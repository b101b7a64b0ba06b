"""Executable checks of the tunneling-symmetry results.

Everything here runs against the dense eigendecomposition oracle: the
single-particle propagator mirror identity, the density-based tunneling
symmetry gap (zero for noninteracting and triplet runs, nonzero for the
interacting singlet), and the frozen-species reduction of the two-body
problem to an effective one-particle barrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import product_basis, site_bit
from .errors import ParameterError
from .evolution import DensePropagator
from .hamiltonian import (
    BarrierOrientation,
    HubbardParams,
    build_fk_hamiltonian,
    build_hamiltonian,
    build_single_particle,
    barrier_potential,
)
from .observables import StateBlock
from .states import StateVector, doublon_at, mirror_state, singlet_pair, triplet_pair, _finish

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
    evals, evecs = np.linalg.eigh(build_single_particle(L, J, V))
    phases = np.exp(-1j * t * evals)
    amp = (evecs[c - 1] * phases) @ evecs[a - 1]
    amp_mirror = (evecs[L - c] * phases) @ evecs[L - a]
    return float(abs(amp - amp_mirror))


def tunneling_symmetry_gap(
    params: HubbardParams, psi0: StateVector, times,
    l_a: int | None = None, l_b: int | None = None,
) -> float:
    """max_t | <n_C>(t) starting from psi0 - <n_A>(t) starting from mirror(psi0) |.

    Both runs use the same potential; psi0 must be supported in region A.
    """
    l_a, l_b = _regions(params.L, l_a, l_b)
    basis = psi0.basis
    if basis.L != params.L:
        raise ParameterError(f"state has L={basis.L}, params have L={params.L}")
    weight_outside = float(StateBlock(basis, psi0.amplitudes).density()[l_a:].sum())
    if weight_outside > 1e-12:
        raise ParameterError(f"initial state leaks {weight_outside} outside region A")

    prop = DensePropagator(build_hamiltonian(params, basis))
    times = np.asarray(times, dtype=np.float64)
    fwd = prop.blocks(psi0.amplitudes, times)
    bwd = prop.blocks(mirror_state(basis, psi0).amplitudes, times)
    gap = 0.0
    for a, b in zip(fwd, bwd):
        n_c = StateBlock(basis, a).density()[:, l_a + l_b:].sum(axis=1)
        n_a = StateBlock(basis, b).density()[:, :l_a].sum(axis=1)
        gap = max(gap, float(np.max(np.abs(n_c - n_a))))
    return gap


def fk_equivalence_residual(
    L: int, J: float, U: float, h: float, orientation, t: float, up_site: int = 1,
) -> float:
    """Mismatch between the frozen-down two-body run and the effective
    one-particle run: max_j | <n_{j,up}>(t) - |psi_j(t)|^2 |.

    The two-body sector (1,1) is evolved with down hopping disabled and the
    down particle pinned at site 1; the one-particle problem sees the barrier
    plus U at site 1.
    """
    V = barrier_potential(L, h, orientation)
    params = HubbardParams(L=L, J=J, U=U, V=V, j_down=0.0)
    basis = product_basis(L, 1, 1)
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(site_bit(up_site), site_bit(1))] = 1.0
    H = build_hamiltonian(params, basis)
    n_up = StateBlock(basis, DensePropagator(H).advance(amps, t)).density("up")

    evals, evecs = np.linalg.eigh(build_fk_hamiltonian(L, J, U, h, orientation))
    phi = evecs @ (np.exp(-1j * t * evals) * evecs[up_site - 1])
    return float(np.max(np.abs(n_up - np.abs(phi) ** 2)))


# ---------------------------------------------------------------------------
# property suites behind the `verify` CLI command
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _superposition_in_a(basis, l_a: int, rng) -> StateVector:
    amps = np.zeros(basis.dim, dtype=np.complex128)
    coeffs = rng.normal(size=l_a) + 1j * rng.normal(size=l_a)
    coeffs /= np.linalg.norm(coeffs)
    for s in range(1, l_a + 1):
        amps[basis.index(site_bit(s), 0)] = coeffs[s - 1]
    return _finish(basis, amps)


def run_symmetry_suite(seed: int = 20240817, mirror_cases: int = 100) -> list[CheckResult]:
    """Randomized and fixed-case checks of the tunneling-symmetry results."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(mirror_cases):
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
        name=f"propagator mirror identity ({mirror_cases} random barriers)",
        passed=worst <= 1e-10,
        detail=f"max residual {worst:.3e} (bound 1e-10)",
    ))

    times = np.arange(0.0, 30.0 + 1e-9, 0.25)
    worst = 0.0
    for L in (4, 6, 8, 12):
        for h in (5.0, 10.0, 20.0):
            V = barrier_potential(L, h, BarrierOrientation.A)
            l_a = (L - 2) // 2
            single = product_basis(L, 1, 0)
            params1 = HubbardParams(L=L, J=1.0, U=0.0, V=V)
            amps = np.zeros(single.dim, dtype=np.complex128)
            amps[single.index(site_bit(1), 0)] = 1.0
            worst = max(worst, tunneling_symmetry_gap(params1, _finish(single, amps), times))
            worst = max(worst, tunneling_symmetry_gap(
                params1, _superposition_in_a(single, l_a, rng), times))
            pair = product_basis(L, 1, 1)
            worst = max(worst, tunneling_symmetry_gap(params1, doublon_at(pair, 1), times))
    results.append(CheckResult(
        name="noninteracting symmetry (single particles, superpositions, doublons)",
        passed=worst <= 1e-9,
        detail=f"max gap {worst:.3e} (bound 1e-9)",
    ))

    times = np.arange(0.0, 50.0 + 1e-9, 0.25)
    basis6 = product_basis(6, 1, 1)
    V6 = barrier_potential(6, 10.0, BarrierOrientation.A)
    worst = 0.0
    for U in (0.5, 2.0, 10.0):
        params = HubbardParams(L=6, J=1.0, U=U, V=V6)
        worst = max(worst, tunneling_symmetry_gap(params, triplet_pair(basis6, 1, 2), times))
    results.append(CheckResult(
        name="triplet symmetry (U in {0.5, 2, 10} J)",
        passed=worst <= 1e-9,
        detail=f"max gap {worst:.3e} (bound 1e-9)",
    ))

    params = HubbardParams(L=6, J=1.0, U=0.5, V=V6)
    gap = tunneling_symmetry_gap(params, singlet_pair(basis6, 1, 2), times)
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
            for orientation in BarrierOrientation:
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
