"""Executable checks of the tunneling-symmetry results.

Everything here runs on the production assembly, build_hamiltonian, and
the dense eigendecomposition propagator, DensePropagator: the
single-particle propagator mirror identity (on the (1, 0) sector), the
density-based tunneling symmetry gap (zero for noninteracting and triplet
runs, nonzero for the interacting singlet; orientations a and b run as one
stack, as in the presets), and the frozen-species reduction of the two-body
problem to an effective one-particle barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import product_basis
from .errors import ParameterError
from .evolution import DensePropagator, PropagatorConfig, evolve_trajectory
from .hamiltonian import BARRIER_ORIENTATIONS, HubbardParams, barrier_potential, build_hamiltonian
from .observables import observable_functions
from .states import StateBlock, from_entries, named_state

# Largest tunneling-symmetry gap of the interacting singlet run (L=6, U=0.5J,
# h=10J, t <= 50/J): 0.0230 measured once with the dense oracle on the 0.05/J
# grid (0.0227 on the 0.25/J grid), frozen here as a regression floor.
SINGLET_GAP_FLOOR = 0.02


def _regions(L: int, l_a: int | None, l_b: int | None) -> tuple[int, int]:
    if l_b is None:
        l_b = 2
    if l_a is None:
        if (L - l_b) % 2:
            raise ParameterError(f"cannot center a {l_b}-site barrier on L={L}")
        l_a = (L - l_b) // 2
    if l_a < 1 or l_b < 1 or 2 * l_a + l_b != L:
        raise ParameterError(f"invalid partition L={L}, l_a={l_a}, l_b={l_b}")
    return l_a, l_b


def propagator_mirror_residual(
    L: int, J: float, V, t: float, a: int, c: int,
    l_a: int | None = None, l_b: int | None = None,
) -> float:
    """|<c|exp(-iHt)|a> - <L+1-c|exp(-iHt)|L+1-a>| for the one-particle chain.

    a must lie before the barrier block and c after it; V must vanish outside
    the block (it is arbitrary inside).
    """
    l_a, l_b = _regions(L, l_a, l_b)
    V = np.ascontiguousarray(V, dtype=np.float64)
    if V.shape != (L,):
        raise ParameterError(f"V has shape {V.shape}, expected ({L},)")
    outside = np.concatenate([V[:l_a], V[l_a + l_b:]])
    if np.any(outside != 0.0):
        raise ParameterError("V must vanish outside the barrier block")
    if not 1 <= a <= l_a:
        raise ParameterError(f"a={a} not in region A = [1, {l_a}]")
    if not l_a + l_b + 1 <= c <= L:
        raise ParameterError(f"c={c} not in region C = [{l_a + l_b + 1}, {L}]")
    prop = DensePropagator(build_hamiltonian(HubbardParams(L, J, 0.0, V), product_basis(L, 1, 0)))
    phases = np.exp(-1j * t * prop.evals)
    amp = (prop.evecs[c - 1] * phases) @ prop.evecs[a - 1]
    amp_mirror = (prop.evecs[L - c] * phases) @ prop.evecs[L - a]
    return float(abs(amp - amp_mirror))


def tunneling_symmetry_gap(params: HubbardParams, psi0: StateBlock, times) -> float:
    """max_t | <n_C>(t) under V - <n_C>(t) under V reversed |, both from psi0,
    which must be supported in region A; by parity, the gap between <n_C> from
    psi0 and <n_A> from the mirrored psi0 under V.  The orientations run as one
    stack through evolve_trajectory, as the presets run them, and n_after reads
    region C of the two-site barrier centered on the chain.
    """
    l_a, _ = _regions(params.L, None, None)
    H = build_hamiltonian([params, replace(params, V=params.V[::-1])], psi0.basis)  # checks L
    weight_outside = float(psi0.density()[l_a:].sum())
    if weight_outside > 1e-12:
        raise ParameterError(f"initial state leaks {weight_outside} outside region A")
    n_c = evolve_trajectory(H, psi0, times, PropagatorConfig(method="dense_eig"),
                            observable_functions(["n_after"], psi0.basis)).columns["n_after"]
    return float(np.max(np.abs(n_c[0] - n_c[1])))


def fk_equivalence_residual(L: int, J: float, U: float, h: float, orientation, t: float) -> float:
    """Mismatch between the frozen-down two-body run and the effective
    one-particle run: max_j | <n_{j,up}>(t) - |psi_j(t)|^2 |.

    The two-body sector (1,1) is evolved with down hopping disabled and the
    down particle pinned at site 1, where the up particle starts too; the
    one-particle problem sees the barrier plus U at site 1.
    """
    V = barrier_potential(L, h, orientation)
    basis = product_basis(L, 1, 1)
    H = build_hamiltonian(HubbardParams(L=L, J=J, U=U, V=V, j_down=0.0), basis)
    psi = DensePropagator(H).advance(named_state(basis, "doublon", 1).amplitudes, t)
    n_up = StateBlock(basis, psi).density("up")

    V[0] += U
    single = product_basis(L, 1, 0)
    H = build_hamiltonian(HubbardParams(L=L, J=J, U=0.0, V=V), single)
    phi = DensePropagator(H).advance(named_state(single, "single_particle", 1).amplitudes, t)
    return float(np.max(np.abs(n_up - np.abs(phi) ** 2)))


# ---------------------------------------------------------------------------
# property suites behind the `verify` CLI command
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _superposition_in_a(basis, l_a: int, rng) -> StateBlock:
    coeffs = rng.normal(size=l_a) + 1j * rng.normal(size=l_a)
    coeffs /= np.linalg.norm(coeffs)
    return from_entries(basis, [((s,), (), c) for s, c in enumerate(coeffs, 1)])


def run_symmetry_suite() -> list[CheckResult]:
    """Randomized and fixed-case checks of the tunneling-symmetry results."""
    rng = np.random.default_rng(20240817)
    results = []

    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(4, 13))
        choices = [b for b in range(1, L - 1) if (L - b) % 2 == 0 and (L - b) // 2 >= 1]
        l_b = int(rng.choice(choices))
        l_a = (L - l_b) // 2
        V = np.zeros(L)
        V[l_a:l_a + l_b] = rng.uniform(-20.0, 20.0, size=l_b)
        a = int(rng.integers(1, l_a + 1))
        c = int(rng.integers(l_a + l_b + 1, L + 1))
        t = float(rng.uniform(0.0, 50.0))
        worst = max(worst, propagator_mirror_residual(L, 1.0, V, t, a, c, l_a=l_a, l_b=l_b))
    results.append(CheckResult(
        name="propagator mirror identity (100 random barriers)",
        passed=worst <= 1e-10,
        detail=f"max residual {worst:.3e} (bound 1e-10)",
    ))

    times = np.arange(0.0, 30.0 + 1e-9, 0.25)
    worst = 0.0
    for L in (4, 6, 8, 12):
        for h in (5.0, 10.0, 20.0):
            V = barrier_potential(L, h, "a")
            l_a = (L - 2) // 2
            single = product_basis(L, 1, 0)
            params1 = HubbardParams(L=L, J=1.0, U=0.0, V=V)
            pair = product_basis(L, 1, 1)
            for psi0 in (named_state(single, "single_particle", 1),
                         _superposition_in_a(single, l_a, rng), named_state(pair, "doublon", 1)):
                worst = max(worst, tunneling_symmetry_gap(params1, psi0, times))
    results.append(CheckResult(
        name="noninteracting symmetry (single particles, superpositions, doublons)",
        passed=worst <= 1e-9,
        detail=f"max gap {worst:.3e} (bound 1e-9)",
    ))

    times = np.arange(0.0, 50.0 + 1e-9, 0.25)
    basis6 = product_basis(6, 1, 1)
    V6 = barrier_potential(6, 10.0, "a")
    triplet = named_state(basis6, "triplet", 1, 2)
    worst = 0.0
    for U in (0.5, 2.0, 10.0):
        params = HubbardParams(L=6, J=1.0, U=U, V=V6)
        worst = max(worst, tunneling_symmetry_gap(params, triplet, times))
    results.append(CheckResult(
        name="triplet symmetry (U in {0.5, 2, 10} J)",
        passed=worst <= 1e-9,
        detail=f"max gap {worst:.3e} (bound 1e-9)",
    ))

    params = HubbardParams(L=6, J=1.0, U=0.5, V=V6)
    gap = tunneling_symmetry_gap(params, named_state(basis6, "singlet", 1, 2), times)
    results.append(CheckResult(
        name="singlet asymmetry (U=0.5J)",
        passed=gap > SINGLET_GAP_FLOOR,
        detail=f"gap {gap:.3e} (regression floor {SINGLET_GAP_FLOOR})",
    ))
    return results


def run_fk_suite() -> list[CheckResult]:
    """Frozen-species reduction checks across sizes, couplings, orientations."""
    results = []
    worst = 0.0
    for L in (4, 6):
        for U in (0.0, 3.0, 10.0):
            for orientation in BARRIER_ORIENTATIONS:
                for t in (5.0, 20.0):
                    worst = max(worst, fk_equivalence_residual(L, 1.0, U, 20.0, orientation, t))
    results.append(CheckResult(
        name="frozen-down reduction to one-particle barrier (L in {4,6})",
        passed=worst <= 1e-10,
        detail=f"max residual {worst:.3e} (bound 1e-10)",
    ))
    return results


def run_suites(which: str = "all") -> list[CheckResult]:
    if which not in ("symmetry", "fk", "all"):
        raise ParameterError(f"unknown suite {which!r}; use symmetry, fk or all")
    results = []
    if which in ("symmetry", "all"):
        results.extend(run_symmetry_suite())
    if which in ("fk", "all"):
        results.extend(run_fk_suite())
    return results
