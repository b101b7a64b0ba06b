"""The benchmark under perfbench/ patches and calls the package by name.  These
checks fail when a change removes or reshapes one of those names, rather than
leaving it to the next traced benchmark run to crash.  They read perfbench/
and change nothing there."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fermichain.basis import product_basis
from fermichain.evolution import METHODS, PropagatorConfig, make_propagator
from fermichain.hamiltonian import HubbardParams, barrier_potential, build_hamiltonian
from fermichain.states import doublon_at

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_every_wrapper(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    targets = [(module, name) for module, name, _ in tracer.SPANS]
    targets += [(tracer.SparseHamiltonian, "matvec")]
    targets += [(cls, "advance") for cls in tracer.PROPAGATORS]
    originals = [owner.__dict__[name] for owner, name in targets]
    trace = tracer.Tracer()
    trace.install()
    try:
        wrapped = [owner.__dict__[name] for owner, name in targets]
    finally:
        trace.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [owner.__dict__[name] for owner, name in targets] == originals


def test_traced_advance_returns_the_states_of_the_unwrapped_call(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    basis = product_basis(4, 1, 1)
    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=10.0, V=barrier_potential(4, 20.0, "a")),
                          basis)
    psi0 = doublon_at(basis, 1).amplitudes
    # krylov_dim 8 < dim 16: a Krylov space that spanned the sector would take the exact path
    props = [make_propagator(H, PropagatorConfig(method, krylov_dim=8)) for method in METHODS]
    assert sorted(type(p).__name__ for p in props) == sorted(c.__name__ for c in tracer.PROPAGATORS)
    plain = [p.advance(psi0, 0.5) for p in props]
    trace = tracer.Tracer()
    traced = trace.run(lambda: [p.advance(psi0, 0.5) for p in props])
    assert all(np.array_equal(a, b) for a, b in zip(traced, plain))
    assert trace.counts()["evolution.advance"] == 3


def test_output_check_reference_runs_on_both_of_its_propagators(monkeypatch):
    check = _load("check", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    ref = check.reference(workloads.make("sweep_U", workloads.DEFAULT_SEED))
    assert ref.method == "dense_eig" and ref.columns

    # above the dense cap the reference steps Taylor over its own matrix; on a
    # small sector that path must agree with the dense one
    H = check.SectorHamiltonian(6, 2, 1, 10.0, check._barrier(6, 20.0, "a"))
    psi0, _ = check._initial(H, {"kind": "doublon_plus_up", "doublon_site": 1, "up_site": 2})
    times = check.time_grid(1.0, 0.05)
    config = check.PropagatorConfig()
    dense = check._states(H, psi0, times, "dense_eig", config)
    taylor = check._states(H, psi0, times, "taylor", config)
    assert np.all(np.linalg.norm(taylor - dense, axis=1) <= config.tolerance * times + 1e-12)
