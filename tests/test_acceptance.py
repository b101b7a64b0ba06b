"""Acceptance criteria for the tunneling-dynamics package.

One test per criterion; each prints a pass/fail line with its runtime
(run with `pytest -v -s` to see them).  Checks that need an independent
reference use the dense eigendecomposition oracle or the full-Fock
second-quantization oracle, never the code path under test.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import fermichain as fc
from fermichain.evolution import (
    DensePropagator,
    KrylovPropagator,
    PropagatorConfig,
    TaylorPropagator,
)
from fermichain.observables import time_average, trap_time
from fermichain.scenarios import Reduction, load_preset, run_scenario, run_sweep, scenario_from_dict
from fermichain.verification import (
    SINGLET_GAP_FLOOR,
    fk_equivalence_residual,
    propagator_mirror_residual,
    tunneling_symmetry_gap,
)

import fock_oracle


def _report(num: int, description: str, ok: bool, detail: str, elapsed: float,
            budget: float | None) -> None:
    status = "PASS" if ok else "FAIL"
    limit = f", budget {budget:g}s" if budget else ""
    print(f"[criterion {num:02d}] {status} {description}: {detail} ({elapsed:.2f}s{limit})")


def _finish(num, description, ok, detail, started, budget=None):
    elapsed = time.perf_counter() - started
    _report(num, description, ok, detail, elapsed, budget)
    assert ok, f"criterion {num}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"


def _scenario(**overrides):
    doc = {
        "L": 4, "U": 0.0, "h": 10.0, "orientation": "both",
        "initial_state": {"kind": "doublon", "site": 1},
        "t_max": 30.0, "sample_dt": 0.05,
        "observables": ["n_L"],
    }
    doc.update(overrides)
    return scenario_from_dict(doc, name="acceptance")


def test_criterion_01_noninteracting_symmetry():
    started = time.perf_counter()
    config = _scenario(propagator={"method": "dense_eig"})
    traj, _ = run_scenario(config)
    gap = float(np.max(np.abs(traj.columns["n_L_a"] - traj.columns["n_L_b"])))
    _finish(1, "noninteracting last-site density is orientation-independent",
            gap <= 1e-9, f"max gap {gap:.3e} (bound 1e-9)", started, budget=1.0)


def test_criterion_02_propagator_mirror_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(4, 13))
        l_b = int(rng.choice([b for b in range(1, L - 1) if (L - b) % 2 == 0]))
        l_a = (L - l_b) // 2
        V = np.zeros(L)
        V[l_a:l_a + l_b] = rng.uniform(-20.0, 20.0, size=l_b)
        a = int(rng.integers(1, l_a + 1))
        c = int(rng.integers(l_a + l_b + 1, L + 1))
        t = float(rng.uniform(0.0, 50.0))
        worst = max(worst, propagator_mirror_residual(L, 1.0, V, t, a, c, l_a=l_a, l_b=l_b))
    _finish(2, "one-particle mirror identity over 100 random barriers",
            worst <= 1e-10, f"max residual {worst:.3e} (bound 1e-10)", started, budget=10.0)


def test_criterion_03_triplet_symmetry():
    started = time.perf_counter()
    basis = fc.product_basis(6, 1, 1)
    params = fc.HubbardParams(L=6, J=1.0, U=0.5, V=fc.barrier_potential(6, 10.0, "a"))
    times = np.arange(0.0, 50.0 + 1e-9, 0.05)
    gap = tunneling_symmetry_gap(params, basis, fc.named_state(basis, "triplet", 1, 2), times)

    config = _scenario(L=6, U=0.5, orientation="a", t_max=50.0,
                       initial_state={"kind": "triplet", "i": 1, "j": 2},
                       observables=["s_squared"])
    traj, _ = run_scenario(config)
    s2_drift = float(np.max(np.abs(traj.columns["s_squared"] - 2.0)))
    ok = gap <= 1e-9 and s2_drift <= 1e-10
    _finish(3, "triplet tunneling symmetry with conserved total spin", ok,
            f"gap {gap:.3e} (bound 1e-9), S^2 drift {s2_drift:.3e} (bound 1e-10)",
            started, budget=5.0)


def test_criterion_04_singlet_asymmetry():
    started = time.perf_counter()
    basis = fc.product_basis(6, 1, 1)
    params = fc.HubbardParams(L=6, J=1.0, U=0.5, V=fc.barrier_potential(6, 10.0, "a"))
    times = np.arange(0.0, 50.0 + 1e-9, 0.05)
    gap = tunneling_symmetry_gap(params, basis, fc.named_state(basis, "singlet", 1, 2), times)
    _finish(4, "singlet tunneling asymmetry exceeds the frozen regression floor",
            gap > SINGLET_GAP_FLOOR,
            f"gap {gap:.4f} (floor {SINGLET_GAP_FLOOR})", started, budget=5.0)


def test_criterion_05_conservation_suite():
    started = time.perf_counter()
    representative = {"fig4": 10.0, "supp3": 8}
    worst = {"norm": 0.0, "energy": 0.0, "number": 0.0, "s_squared": 0.0}
    for name in fc.preset_names():
        config = load_preset(name)
        if not isinstance(config, fc.ScenarioConfig):
            value = representative[name]
            field = {"fig4": "U", "supp3": "L"}[name]
            config = dataclasses.replace(config.base, **{field: value})
        extra = ("norm", "energy", "s_squared", "n_total")
        config = dataclasses.replace(
            config, observables=tuple(dict.fromkeys(config.observables + extra)))
        traj, _ = run_scenario(config)
        n_up, n_down = config.initial_state.sector()
        for col_name, col in traj.columns.items():
            if col_name.startswith("norm"):
                worst["norm"] = max(worst["norm"], float(np.max(np.abs(col - 1.0))))
            elif col_name.startswith("energy"):
                worst["energy"] = max(worst["energy"], float(np.max(np.abs(col - col[0]))))
            elif col_name.startswith("s_squared"):
                worst["s_squared"] = max(worst["s_squared"], float(np.max(np.abs(col - col[0]))))
            elif col_name.startswith("n_total"):
                worst["number"] = max(worst["number"],
                                      float(np.max(np.abs(col - (n_up + n_down)))))
    ok = (worst["norm"] <= 1e-10 and worst["energy"] <= 1e-9
          and worst["number"] <= 1e-10 and worst["s_squared"] <= 1e-10)
    _finish(5, "norm/energy/number/spin conservation across every preset", ok,
            f"drifts: norm {worst['norm']:.2e} (1e-10), energy {worst['energy']:.2e} (1e-9), "
            f"number {worst['number']:.2e} (1e-10), S^2 {worst['s_squared']:.2e} (1e-10)",
            started)


def test_criterion_06_oracle_equivalence():
    started = time.perf_counter()
    sectors = [(4, nu, nd) for nu in range(5) for nd in range(5)]
    sectors += [(6, 1, 1), (6, 2, 1), (6, 2, 2), (6, 3, 2), (6, 3, 3), (20, 1, 1)]
    rng = np.random.default_rng(6)
    config = PropagatorConfig()
    times = np.linspace(0.0, 100.0, 2001)  # the 0.05 grid
    worst_k = worst_t = 0.0
    largest = 0
    for L, nu, nd in sectors:
        basis = fc.product_basis(L, nu, nd)
        largest = max(largest, basis.dim)
        V = fc.barrier_potential(L, 20.0, "a") if L % 2 == 0 and L >= 4 else np.zeros(L)
        H = fc.build_hamiltonian(fc.HubbardParams(L=L, J=1.0, U=10.0, V=V), basis)
        v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        v /= np.linalg.norm(v)
        exact = DensePropagator(H).advance(v, 100.0)
        *_, krylov = KrylovPropagator(H, config).blocks(v, times)
        *_, taylor = TaylorPropagator(H, config).blocks(v, times)
        worst_k = max(worst_k, float(np.linalg.norm(krylov[-1] - exact)))
        worst_t = max(worst_t, float(np.linalg.norm(taylor[-1] - exact)))
    ok = worst_k <= 1e-8 and worst_t <= 1e-8
    _finish(6, f"krylov/taylor match the dense oracle at t=100 (max dim {largest})", ok,
            f"krylov err {worst_k:.3e}, taylor err {worst_t:.3e} (bound 1e-8)", started)


def test_criterion_07_underbarrier_resonance():
    started = time.perf_counter()
    sweep = load_preset("fig4")
    sweep = dataclasses.replace(sweep, values=(6.0, 10.0, 14.0))
    header, rows, _ = run_sweep(sweep)
    table = {row[0]: dict(zip(header[1:], row[1:])) for row in rows}
    details = []
    ok = True
    for orientation in ("a", "b"):
        col = f"avg_n_h2_{orientation}"
        at6, at10, at14 = table[6.0][col], table[10.0][col], table[14.0][col]
        ok = ok and at10 > at6 and at10 > at14
        details.append(f"{orientation}: {at6:.3g}/{at10:.3g}/{at14:.3g}")
    _finish(7, "trapping-site density peaks at U = h/2 for both orientations", ok,
            "avg n_h2 at U=6/10/14 -> " + "; ".join(details), started, budget=60.0)


def test_criterion_08_resonant_tunneling_asymmetry():
    started = time.perf_counter()
    traj, _ = run_scenario(load_preset("fig6"))
    steep = time_average(traj.times, traj.columns["n_down_L_a"], 100.0)
    angled = time_average(traj.times, traj.columns["n_down_L_b"], 100.0)
    ratio = steep / angled
    _finish(8, "steep-side resonant tunneling exceeds angled side tenfold",
            ratio >= 10.0, f"avg n_down_L: steep {steep:.4f}, angled {angled:.5f}, "
            f"ratio {ratio:.1f} (bound 10)", started, budget=10.0)


def test_criterion_09_trap_time_scaling():
    started = time.perf_counter()
    sweep = load_preset("supp3")
    base = dataclasses.replace(sweep.base, t_max=40.0)  # crossings happen by t ~ 24/J
    sweep = dataclasses.replace(sweep, base=base, values=tuple(range(6, 21, 2)))
    header, rows, _ = run_sweep(sweep)
    ok = True
    details = []
    for orientation in ("a", "b"):
        col = header.index(f"t_tr_n_h2_{orientation}")
        tt = np.array([row[col] for row in rows])
        increasing = bool(np.all(np.diff(tt) > 0))
        Ls = np.asarray(sweep.values, dtype=float)
        slope, intercept = np.polyfit(Ls, tt, 1)
        resid = tt - (slope * Ls + intercept)
        r2 = 1.0 - float(np.sum(resid**2) / np.sum((tt - tt.mean()) ** 2))
        ok = ok and increasing and r2 >= 0.9
        details.append(f"{orientation}: increasing={increasing}, R^2={r2:.4f}")
    _finish(9, "trap time grows nearly linearly with chain length", ok,
            "; ".join(details) + " (bound R^2 >= 0.9)", started, budget=300.0)


def test_criterion_10_falicov_kimball_reduction():
    started = time.perf_counter()
    worst = 0.0
    for orientation in ("a", "b"):
        for t in np.arange(0.0, 20.0 + 1e-9, 0.25):
            worst = max(worst, fk_equivalence_residual(4, 1.0, 3.0, 20.0, orientation, float(t)))
    _finish(10, "frozen-down dynamics matches the effective one-particle run",
            worst <= 1e-10, f"max site residual {worst:.3e} (bound 1e-10)",
            started, budget=1.0)


def test_criterion_11_full_fock_equivalence():
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for L in (1, 2, 3, 4):
        rng = np.random.default_rng(100 + L)
        V = rng.uniform(-5.0, 5.0, size=L)
        U = float(rng.uniform(0.0, 12.0))
        full = fock_oracle.full_hamiltonian(L, 1.0, 1.0, U, V)
        for n_up in range(L + 1):
            for n_down in range(L + 1):
                basis = fc.product_basis(L, n_up, n_down)
                ours = fc.build_hamiltonian(
                    fc.HubbardParams(L=L, J=1.0, U=U, V=V), basis).to_dense()
                E = fock_oracle.sector_embedding(L, basis)
                worst = max(worst, float(np.max(np.abs(ours - E.T @ full @ E))))
                checked += 1
    _finish(11, f"sector Hamiltonians match the full-Fock oracle ({checked} sectors)",
            worst <= 1e-12, f"max entry deviation {worst:.3e} (bound 1e-12)", started)
