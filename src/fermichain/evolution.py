"""Propagation of state vectors under exp(-iHt).

Three interchangeable propagators: a dense eigendecomposition (the oracle,
capped in dimension), a Lanczos/Krylov stepper (production default), and a
truncated Taylor series (independent cross-check).  Every Krylov or Taylor
step of length s keeps its estimated local error below tolerance * s, so a
run to time t accumulates at most tolerance * t.

A trajectory is propagated over its whole time grid and handed out in blocks
of consecutive samples, each an (n, dim) array.  The dense propagator reads
every sample from one eigendecomposition; the Krylov propagator reads all
samples inside an accepted step from one Lanczos basis ("dense output", as
in Expokit: Sidje, ACM TOMS 24:130, 1998); the Taylor propagator, kept as
the independent reference, steps from sample to sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, NumericalError, ParameterError
from .hamiltonian import DENSE_CAP, SparseHamiltonian
from .observables import StateBlock
from .states import StateVector, _finish

METHODS = ("dense_eig", "krylov", "taylor")

_TAYLOR_THETA = 4.0  # max ||H|| * dt per Taylor substep; keeps term growth mild
_MAX_KRYLOV_SPLITS = 4096
_BLOCK_ELEMENTS = 1 << 20  # amplitudes per block (16 MiB): bounds a trajectory's memory


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepper selection and accuracy knobs (times in 1/J).

    dt is the first trial step of the adaptive Krylov stepper and the
    longest sub-step of the Taylor stepper.
    """

    method: str = "krylov"
    dt: float = 0.05
    tolerance: float = 1e-10
    krylov_dim: int = 30
    max_taylor_terms: int = 200

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("dt", "tolerance"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ParameterError(f"{name}={value} must be positive and finite")
        if self.krylov_dim < 2:
            raise ParameterError(f"krylov_dim={self.krylov_dim} must be at least 2")
        if self.max_taylor_terms < 1:
            raise ParameterError("max_taylor_terms must be at least 1")


@dataclass(eq=False)
class Trajectory:
    """Sampled observables (and optionally states) along one evolution run."""

    times: np.ndarray
    columns: dict[str, np.ndarray]
    states: np.ndarray | None = None

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ParameterError(
                f"no observable column {name!r}; have {sorted(self.columns)}"
            ) from None


def _operator(H):
    """Uniform (matvec, dim, dense, inf_norm) view of sparse or dense input."""
    if isinstance(H, SparseHamiltonian):
        return H.matvec, H.dim, H.to_dense, lambda: H.inf_norm
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {H.shape}")
    return (
        lambda x: H @ x,
        H.shape[0],
        lambda: H,
        lambda: float(np.abs(H).sum(axis=1).max()) if H.size else 0.0,
    )


def _block_rows(dim: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(dim, 1))


class DensePropagator:
    """Exact evolution through a cached full eigendecomposition."""

    def __init__(self, H, cap: int = DENSE_CAP):
        _, dim, dense, _ = _operator(H)
        if dim > cap:
            raise CapacityError(f"dense propagator capped at dim {cap}, got {dim}")
        self.dim = dim
        self.evals, self.evecs = np.linalg.eigh(dense())

    def advance(self, amps: np.ndarray, dt: float) -> np.ndarray:
        coef = self.evecs.T @ amps
        return self.evecs @ (np.exp(-1j * dt * self.evals) * coef)

    def blocks(self, amps: np.ndarray, times: np.ndarray):
        """States at every grid time, in blocks: (exp(-i t (x) E) * c) @ W^T."""
        coef = self.evecs.T @ amps
        rows = _block_rows(self.dim)
        for lo in range(0, len(times), rows):
            phases = np.exp(-1j * np.outer(times[lo:lo + rows], self.evals))
            yield (phases * coef) @ self.evecs.T


class _KrylovBasis(NamedTuple):
    """Lanczos basis of one vector v: orthonormal rows V, the eigenpairs of the
    tridiagonal T, the residual norm beta and ||v||.  beta is 0 when the Krylov
    space is invariant; every exponential read from it is then exact."""

    V: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray
    beta: float
    norm: float


class KrylovPropagator:
    """Lanczos approximation of exp(-iHt) acting on a vector.

    One reorthogonalization pass keeps the Krylov basis orthonormal at machine
    precision, so norms are preserved over long runs.  A state read from a
    basis a time s after its start has the a-posteriori error estimate
    |beta_m y_m(s)| ||v|| (Hochbruck & Lubich, SIAM J. Numer. Anal. 34:1911,
    1997).  A step is accepted only when that estimate is at most
    tolerance * s; a step that fails is bisected, and a non-finite estimate
    raises NumericalError.
    """

    def __init__(self, H, config: PropagatorConfig):
        self.matvec, self.dim, _, _ = _operator(H)
        self.m = min(config.krylov_dim, self.dim)
        self.tolerance = config.tolerance
        self.dt = config.dt

    def _lanczos(self, amps: np.ndarray) -> _KrylovBasis:
        nv = np.linalg.norm(amps)
        if nv == 0.0:
            return _KrylovBasis(np.zeros((1, self.dim)), np.zeros(1), np.ones((1, 1)), 0.0, 0.0)
        m = self.m
        V = np.empty((m, self.dim), dtype=np.complex128)
        alpha = np.empty(m)
        beta = np.empty(m)
        V[0] = amps / nv
        k_eff = m
        for k in range(m):
            w = self.matvec(V[k])
            alpha[k] = np.vdot(V[k], w).real
            w -= alpha[k] * V[k]
            if k > 0:
                w -= beta[k - 1] * V[k - 1]
            w -= (V[: k + 1].conj() @ w) @ V[: k + 1]  # one reorthogonalization pass
            beta[k] = np.linalg.norm(w)
            if not math.isfinite(beta[k]):  # the error estimate scales with beta
                raise NumericalError("krylov error estimate is not finite",
                                     dimension=self.dim, krylov_dim=m)
            if k + 1 == m:
                break
            if beta[k] < 1e-14 * max(1.0, abs(alpha[k])):
                k_eff = k + 1  # invariant subspace reached; result is exact
                break
            V[k + 1] = w / beta[k]
        k = k_eff
        T = np.diag(alpha[:k])
        if k > 1:
            T += np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
        evals, evecs = np.linalg.eigh(T)
        residual = beta[k - 1] if k == m < self.dim else 0.0
        return _KrylovBasis(V[:k], evals, evecs, residual, nv)

    def _read(self, basis: _KrylovBasis, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients exp(-iTs) e1 (one column per time in s) and their error estimates."""
        Y = basis.evecs @ (np.exp(-1j * np.outer(basis.evals, s)) * basis.evecs[0][:, None])
        return Y, np.abs(basis.beta * Y[-1]) * basis.norm

    def _step(self, amps: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
        basis = self._lanczos(amps)
        Y, err = self._read(basis, np.array([tau]))
        return basis.norm * (Y[:, 0] @ basis.V), float(err[0])

    def _split(self, amps: np.ndarray, dt: float, nsub: int) -> np.ndarray:
        """Cover dt with nsub equal steps, doubling nsub until every step is accepted."""
        worst = math.inf
        while nsub <= _MAX_KRYLOV_SPLITS:
            tau = dt / nsub
            cur = amps
            for _ in range(nsub):
                cur, err = self._step(cur, tau)
                if not err <= self.tolerance * abs(tau):
                    worst = err
                    break
            else:
                return cur
            nsub *= 2
        raise NumericalError(
            "krylov step failed to reach tolerance",
            residual=worst, step=dt, dimension=self.dim, krylov_dim=self.m,
        )

    def advance(self, amps: np.ndarray, dt: float) -> np.ndarray:
        if dt == 0.0:
            return amps.copy()
        return self._split(amps, dt, 1)

    def blocks(self, amps: np.ndarray, times: np.ndarray):
        """States at every grid time, in blocks, one Lanczos basis per accepted step.

        A step starts at the last sample reached and covers the longest run of
        following samples whose estimates stay within tolerance times their
        distance from the start.  It tries samples up to a window that starts
        at dt and is twice the last accepted step; the first following sample
        is always tried, and when even it fails the interval up to it is
        bisected.  An exact basis serves every remaining sample.
        """
        rows = _block_rows(self.dim)
        cur = np.array(amps, dtype=np.complex128)
        head = cur[None]  # the t = 0 state rides with the first block
        window = self.dt
        basis = None
        i, last = 0, len(times) - 1
        while i < last:
            if basis is None:
                basis, t0 = self._lanczos(cur), times[i]
            hi = min(last + 1, i + 1 + rows)
            if basis.beta:
                hi = min(hi, max(i + 2, int(np.searchsorted(times, t0 + window, "right"))))
            s = times[i + 1:hi] - t0
            Y, err = self._read(basis, s)
            ok = err <= self.tolerance * s
            n = len(s) if ok.all() else int(ok.argmin())
            if n:
                block = basis.norm * (Y[:, :n].T @ basis.V)
                window = 2.0 * s[n - 1]
            else:
                block = self._split(cur, s[0], 2)[None]
                n = 1
            cur = block[-1].copy()
            i += n
            if basis.beta:
                basis = None  # only an exact basis serves later samples
            if head is not None:
                block, head = np.concatenate([head, block]), None
            yield block
        if head is not None:
            yield head


class TaylorPropagator:
    """Truncated Taylor series for exp(-iHt), with norm-based substepping."""

    def __init__(self, H, config: PropagatorConfig):
        self.matvec, self.dim, _, inf_norm = _operator(H)
        self.hnorm = inf_norm()
        self.tolerance = config.tolerance
        self.max_terms = config.max_taylor_terms
        self.dt = config.dt

    def advance(self, amps: np.ndarray, dt: float) -> np.ndarray:
        if dt == 0.0:
            return amps.copy()
        nsub = max(1, math.ceil(self.hnorm * abs(dt) / _TAYLOR_THETA))
        tau = dt / nsub
        cur = np.array(amps, dtype=np.complex128)
        for _ in range(nsub):
            cur = self._substep(cur, tau)
        return cur

    def _substep(self, psi: np.ndarray, tau: float) -> np.ndarray:
        acc = psi.copy()
        term = psi
        # next-term norm bounds the truncation error; budget scales with the
        # substep so a full run accumulates at most tolerance * t
        budget = 0.25 * self.tolerance * abs(tau) * max(np.linalg.norm(psi), 1e-300)
        tn = math.inf
        for k in range(1, self.max_terms + 1):
            term = (-1j * tau / k) * self.matvec(term)
            acc += term
            tn = np.linalg.norm(term)
            if tn <= budget:
                return acc
        raise NumericalError(
            "taylor series did not converge",
            residual=tn, step=tau, dimension=self.dim, terms=self.max_terms,
        )

    def blocks(self, amps: np.ndarray, times: np.ndarray):
        """States at every grid time, in blocks; each sample interval is covered by
        equal steps no longer than dt."""
        rows = _block_rows(self.dim)
        cur = np.array(amps, dtype=np.complex128)
        block = [cur]
        for k in range(1, len(times)):
            delta = times[k] - times[k - 1]
            nsteps = max(1, math.ceil(delta / self.dt - 1e-9))
            for _ in range(nsteps):
                cur = self.advance(cur, delta / nsteps)
            block.append(cur)
            if len(block) == rows:
                yield np.array(block)
                block = []
        if block:
            yield np.array(block)


def make_propagator(H, config: PropagatorConfig):
    if config.method == "dense_eig":
        return DensePropagator(H)
    if config.method == "krylov":
        return KrylovPropagator(H, config)
    return TaylorPropagator(H, config)


def evolve_dense(H, psi: StateVector, t: float, cap: int = DENSE_CAP) -> StateVector:
    """psi(t) through the full eigendecomposition of H (the oracle path)."""
    return _finish(psi.basis, DensePropagator(H, cap=cap).advance(psi.amplitudes, t))


def evolve_step(H, psi: StateVector, dt: float, config: PropagatorConfig) -> StateVector:
    """One propagation step of length dt with the configured method."""
    prop = make_propagator(H, config)
    return _finish(psi.basis, prop.advance(psi.amplitudes, dt))


def evolve_trajectory(
    H,
    psi0: StateVector,
    times,
    config: PropagatorConfig,
    observables: dict,
    store_states: bool = False,
) -> Trajectory:
    """Sample named observables along the evolution of psi0.

    times must increase strictly from 0.  The configured propagator lands on
    every grid time (no interpolation of observables) and hands the states
    out in blocks of consecutive samples; each observable is a callable that
    maps a StateBlock of n states to n values (see
    observables.observable_functions).  At most one block of states is held
    at a time unless store_states keeps the whole (len(times), dim) array.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or len(times) == 0:
        raise ParameterError("times must be a non-empty 1-d grid")
    if abs(times[0]) > 1e-12:
        raise ParameterError(f"time grid must start at 0, got {times[0]}")
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise ParameterError("time grid must be strictly increasing")

    prop = make_propagator(H, config)
    columns = {name: np.empty(len(times)) for name in observables}
    states = np.empty((len(times), prop.dim), dtype=np.complex128) if store_states else None

    start = 0
    for amps in prop.blocks(psi0.amplitudes, times):
        stop = start + len(amps)
        block = StateBlock(psi0.basis, amps)
        for name, fn in observables.items():
            columns[name][start:stop] = fn(block)
        if store_states:
            states[start:stop] = amps
        start = stop

    return Trajectory(times=times, columns=columns, states=states)
