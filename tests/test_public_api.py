"""The names that `import fermichain` exports.  A change to the export list is
then a deliberate edit of this set, not a side effect of a refactor."""

import types

import fermichain

EXPORTS = {
    # errors
    "CapacityError", "ConfigError", "NumericalError", "ParameterError",
    # basis
    "ProductBasis", "SpinSectorBasis", "product_basis",
    # hamiltonian
    "HubbardParams", "SparseHamiltonian", "barrier_potential", "build_hamiltonian",
    "jstar_site", "total_spin_squared",
    # states: a state is its amplitude array
    "from_entries", "named_state",
    # evolution and observables
    "PropagatorConfig", "Trajectory", "evolve_trajectory",
    "observable_functions", "time_average", "trap_time",
    # scenarios
    "ScenarioConfig", "SweepConfig", "load_preset", "preset_names",
    "resolve_config", "run_scenario", "run_sweep",
    # verification
    "tunneling_symmetry_gap",
}


def test_exports_are_exactly_the_pinned_names():
    public = {name for name, value in vars(fermichain).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - EXPORTS == set(), "exported but not pinned"
    assert EXPORTS - public == set(), "pinned but not exported"
