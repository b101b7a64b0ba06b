"""Property: every name that `import fermichain` exports, called with one
argument (or one dataclass field) replaced by a value of the wrong kind or
shape, returns or raises an exception whose type is exactly one of those in
fermichain.errors, never a bare TypeError, ValueError or IndexError.

Each export has one valid call.  A drawn value replaces, in turn, each of its
arguments that the vocabulary reaches; an argument that is a library object
(a basis, H, params, a config, an observables mapping) is only ever replaced
by another valid object, which may not fit the others.  SparseHamiltonian's
fields are an H's CSR arrays, so they are library objects, and no product of
an H is drawn: the hot path keeps its duck typing."""

import copy
import dataclasses
import math
import os
import types
from typing import NamedTuple

import numpy as np
import pytest

import fermichain
from fermichain import errors
from fermichain.basis import ProductBasis, SpinSectorBasis, product_basis
from fermichain.evolution import PropagatorConfig, Trajectory, evolve_trajectory
from fermichain.hamiltonian import (
    HubbardParams,
    SparseHamiltonian,
    barrier_potential,
    build_hamiltonian,
    jstar_site,
    total_spin_squared,
)
from fermichain.observables import observable_functions, time_average, trap_time
from fermichain.scenarios import (
    ScenarioConfig,
    SweepConfig,
    load_preset,
    preset_names,
    resolve_config,
    run_scenario,
    run_sweep,
)
from fermichain.states import from_entries, named_state
from fermichain.verification import tunneling_symmetry_gap

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ERRORS = {value for value in vars(errors).values()
          if isinstance(value, type) and issubclass(value, Exception)}


class Library(tuple):
    """A library-object argument: its valid value first, then other valid objects."""


class Call(NamedTuple):
    fn: object
    args: tuple = ()
    kwargs: dict = {}


BASIS, OTHER = product_basis(4, 1, 1), product_basis(6, 1, 0)  # OTHER: another chain and sector
PARAMS = HubbardParams(L=4, J=1.0, U=0.0, V=barrier_potential(4, 10.0, "a"))
MIRRORED = dataclasses.replace(PARAMS, V=PARAMS.V[::-1])
PARAMS6 = HubbardParams(L=6, J=1.0, U=0.0, V=np.zeros(6))
H, STACK = build_hamiltonian(PARAMS, BASIS), build_hamiltonian([PARAMS, MIRRORED], BASIS)
H6 = build_hamiltonian(PARAMS6, OTHER)
PSI = named_state(BASIS, "doublon", 1)
TIMES = [0.0, 0.5, 1.0]
FIELDS = {"L": 4, "U": 0.0, "h": 10.0, "initial_state": {"kind": "doublon", "site": 1},
          "t_max": 0.2, "observables": ["n_L", "n_h2"], "name": "prop", "orientation": "both",
          "J": 1.0, "sample_dt": 0.05, "propagator": PropagatorConfig(), "description": ""}
SCENARIO = ScenarioConfig(**FIELDS)
SWEEP = SweepConfig(name="prop", parameter="U", values=[0.0, 1.0], base=SCENARIO)

# the valid call of each export
CALLS = {
    "CapacityError": Call(errors.CapacityError, ("too big",)),
    "ConfigError": Call(errors.ConfigError, ("bad field",)),
    "NumericalError": Call(errors.NumericalError, ("no convergence",), {"residual": 1.0}),
    "ParameterError": Call(errors.ParameterError, ("bad argument",)),
    "ProductBasis": Call(ProductBasis, kwargs={"up": Library([BASIS.up, OTHER.up]),
                                               "down": Library([BASIS.down])}),
    "SpinSectorBasis": Call(SpinSectorBasis, kwargs={"L": 4, "N": 1, "masks": BASIS.up.masks}),
    "product_basis": Call(product_basis, (4, 1, 1)),
    "HubbardParams": Call(HubbardParams, kwargs={"L": 4, "J": 1.0, "U": 0.0,
                                                 "V": [0.0, 10.0, 5.0, 0.0],
                                                 "j_up": None, "j_down": 0.0}),
    "SparseHamiltonian": Call(SparseHamiltonian, kwargs={
        "indptr": Library([H.indptr]), "indices": Library([H.indices]),
        "data": Library([H.data, STACK.data])}),
    "barrier_potential": Call(barrier_potential, (4, 10.0, "a")),
    "build_hamiltonian": Call(build_hamiltonian, (
        Library([PARAMS, [PARAMS, MIRRORED], PARAMS6, [PARAMS, PARAMS6], []]),
        Library([BASIS, OTHER]))),
    "jstar_site": Call(jstar_site, (4, 10.0, "a")),
    "total_spin_squared": Call(total_spin_squared, (Library([BASIS, OTHER]),)),
    "from_entries": Call(from_entries, (Library([BASIS, OTHER]), [((1,), (1,), 1.0)])),
    "named_state": Call(named_state, kwargs={"basis": Library([BASIS, OTHER]),
                                             "kind": "doublon", "site": 1}),
    "PropagatorConfig": Call(PropagatorConfig, kwargs={"method": "krylov", "dt": 0.05,
                                                       "tolerance": 1e-10, "krylov_dim": 30}),
    "Trajectory": Call(Trajectory, kwargs={"times": TIMES, "columns": {"n_1": [0.0, 0.5, 1.0]}}),
    "evolve_trajectory": Call(evolve_trajectory, (
        Library([H, STACK, H6]), PSI, TIMES,
        Library([PropagatorConfig(), PropagatorConfig("dense_eig"),
                 PropagatorConfig("taylor", dt=0.5)]),
        Library([observable_functions(["n_1", "energy"], BASIS, H)]))),
    "observable_functions": Call(observable_functions, (
        ["n_1", "n_h2", "energy", "s_squared"], Library([BASIS, OTHER]),
        Library([STACK, H, None]), [3, 2])),
    "time_average": Call(time_average, (TIMES, [0.0, 1.0, 0.0], 1.0)),
    "trap_time": Call(trap_time, (TIMES, [0.0, 1.0, 0.0], 0.5)),
    "ScenarioConfig": Call(ScenarioConfig, kwargs=FIELDS),
    "SweepConfig": Call(SweepConfig, kwargs={
        "name": "prop", "parameter": "U", "values": [0.0, 1.0], "base": Library([SCENARIO]),
        "reduction": {"kind": "time_average"}, "description": ""}),
    "load_preset": Call(load_preset, ("fig2",)),
    "preset_names": Call(preset_names),
    "resolve_config": Call(resolve_config, ("fig2",)),
    "run_scenario": Call(run_scenario, (Library([SCENARIO]), None)),
    "run_sweep": Call(run_sweep, (Library([SWEEP]), None)),
    "tunneling_symmetry_gap": Call(tunneling_symmetry_gap, (
        Library([PARAMS, PARAMS6]), Library([BASIS, OTHER]), PSI, TIMES)),
}


class Shaped(NamedTuple):
    """An array of fill, of the shape of the valid argument it replaces."""

    fill: object

    def __call__(self, valid):
        try:
            shape = np.shape(valid)
        except ValueError:  # a ragged valid value, as entries are
            shape = ()
        return np.full(shape, self.fill)


class Another:
    """Each other valid object of a library argument, in place of its valid one."""

    def __repr__(self):
        return "another library object"


ANOTHER = Another()
WRONG = [  # the fixed values of the vocabulary
    True, False, 0, -1, 2**70, math.nan, math.inf, -math.inf, 1e300, "", "1", None,
    [], [[1], [2, 3]], [[0.0, 0.5, 1.0], [1.0, 2.0, 3.0]], np.arange(12.0).reshape(2, 2, 3).tolist(),
    np.array(["a", "b", "c"]), np.array([1.0, None, 2.0], dtype=object),
    Shaped("a"), Shaped(None), ANOTHER,
]
VOCABULARY = st.one_of(st.sampled_from(WRONG), st.integers(), st.floats())


def _valid(call: Call) -> tuple[list, dict]:
    """The arguments of call's valid call."""
    def pick(value):
        return value[0] if isinstance(value, Library) else value
    return [pick(a) for a in call.args], {k: pick(v) for k, v in call.kwargs.items()}


def _replaced(call: Call, value):
    """(slot, args, kwargs) of call with each argument, in turn, replaced by value;
    a library argument is replaced, by each of its other objects, only for ANOTHER."""
    valid_args, valid_kwargs = _valid(call)
    slots = [*range(len(call.args)), *call.kwargs]
    if not slots:
        yield None, valid_args, valid_kwargs
    for slot in slots:
        old = (call.args if isinstance(slot, int) else call.kwargs)[slot]
        if isinstance(old, Library):
            drawn = old[1:] if value is ANOTHER else ()
        elif value is ANOTHER:
            drawn = ()
        else:
            drawn = [value(old) if isinstance(value, Shaped) else copy.deepcopy(value)]
        for new in drawn:
            args, kwargs = list(valid_args), dict(valid_kwargs)
            (args if isinstance(slot, int) else kwargs)[slot] = new
            yield (slot, new), args, kwargs


def _misfits(value) -> list[str]:
    """Each call, with one argument replaced by value, that raises an exception of
    a type outside fermichain.errors, and what it raised."""
    found = []
    for name, call in CALLS.items():
        for slot, args, kwargs in _replaced(call, value):
            try:
                call.fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - the type is what is checked
                if type(exc) not in ERRORS:
                    found.append(f"{name} with {slot}: {type(exc).__name__}: {exc}")
    return found


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(VOCABULARY)
def test_an_export_returns_or_raises_a_package_error(tmp_path_factory, value):
    here, cwd = os.getcwd(), tmp_path_factory.getbasetemp() / "cwd"
    cwd.mkdir(exist_ok=True)
    os.chdir(cwd)  # an output_dir of '' or '1' writes here
    try:
        misfits = _misfits(value)
    finally:
        os.chdir(here)
    assert not misfits, "\n".join(misfits)


def test_every_export_has_a_valid_call():
    public = {name for name, value in vars(fermichain).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(CALLS) == public
    for call in CALLS.values():
        args, kwargs = _valid(call)
        call.fn(*args, **kwargs)
