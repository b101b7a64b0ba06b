"""Time evolution of few spin-1/2 fermions on open Hubbard chains with
asymmetric two-site barrier potentials.

Energies are in units of the hopping amplitude J, times in 1/J, hbar = 1.
Sites are labeled 1..L.  Dynamics is exact within a fixed (N_up, N_down)
sector: sparse Hamiltonians assembled over occupation bitmasks, propagated
by a dense eigendecomposition oracle, a Lanczos/Krylov stepper, or a
truncated Taylor series.

The package exports what the CLI, the presets, `verify` and the README
examples use; the rest imports from its module (fermichain.scenarios.load_config).
"""

from .basis import ProductBasis, SpinSectorBasis, product_basis
from .errors import CapacityError, ConfigError, NumericalError, ParameterError
from .evolution import (
    PropagatorConfig,
    Trajectory,
    evolve_trajectory,
)
from .hamiltonian import (
    HubbardParams,
    SparseHamiltonian,
    barrier_potential,
    build_hamiltonian,
    jstar_site,
    total_spin_squared,
)
from .observables import observable_functions, time_average, trap_time
from .scenarios import (
    ScenarioConfig,
    SweepConfig,
    load_preset,
    preset_names,
    resolve_config,
    run_scenario,
    run_sweep,
)
from .states import from_entries, named_state
from .verification import tunneling_symmetry_gap

__version__ = "0.1.0"
