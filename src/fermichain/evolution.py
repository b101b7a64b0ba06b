"""Propagation of state vectors under exp(-iHt).

Three interchangeable propagators: a dense eigendecomposition (the oracle,
capped in dimension), a Lanczos/Krylov stepper (production default), and a
truncated Taylor series (independent cross-check).  Every Krylov or Taylor
step of length s keeps a bound on its local error below tolerance * s, so a
run to time t accumulates at most tolerance * t: a Taylor step bounds it by
its next term, a Krylov step by the integral of its defect over the step.  A
Krylov bound also passes within the rounding of its error estimate,
n eps beta ||v|| for a basis of n vectors (3e-14 at n = 30, beta ||v|| = 4),
so grids finer than that rounding over tolerance still run: each basis may
add that term to the promise tolerance * t, and a few (dim + ||H|| s) eps of
rounding, which the term does not cover, to the states it reads.

A trajectory is propagated over its whole time grid and handed out in blocks
of consecutive samples, each an (n, dim) array.  The dense propagator reads
every sample, t = 0 with the rest, from one eigendecomposition; the others
hand out their start, as given, as a block of one sample.  The Krylov
propagator finds how far each Lanczos basis reaches on probes of its own,
reads every sample in that reach from it ("dense output", as in Expokit:
Sidje, ACM TOMS 24:130, 1998) and starts the next basis at the reach, on a
grid time or between two, so its steps do not depend on the grid; the Taylor
propagator, kept as the independent reference, sums its series over equal
substeps of each sample interval.  Every propagator steps only in its
`blocks`; its `advance` is the last state of `blocks` over [0, dt].

plan picks, from a sector's size alone, the propagator that runs it, the runs
per stack and the memory of a stack; make_propagator, the config checks and
the stack split all read it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, NumericalError, ParameterError, check_type, real_array
from .hamiltonian import DENSE_CAP, SparseHamiltonian
from .states import NORM_TOLERANCE

METHODS = ("dense_eig", "krylov", "taylor")

MAX_TAYLOR_STEPS = 1_000_000  # per Taylor run: t / dt
_TAYLOR_THETA = 4.0  # max ||H|| * dt per Taylor substep; keeps term growth mild
_MAX_TAYLOR_SUBSTEPS = 4096  # per Taylor step; ||H|| * dt up to 4096 * _TAYLOR_THETA
_MAX_TAYLOR_TERMS = 200  # per Taylor substep
_KRYLOV_PROBES = 32  # a basis reads its estimate at r (1 ... 2N)/N to find its reach
_BLOCK_ELEMENTS = 1 << 20  # amplitudes per block (16 MiB): bounds a trajectory's memory
_ANCHORED_MIN = 16  # fewest lattice samples in a block whose phases come from anchors


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepper selection and accuracy knobs (times in 1/J).

    dt is the first trial reach of the adaptive Krylov stepper and the
    longest sub-step of the Taylor stepper.
    """

    method: str = "krylov"
    dt: float = 0.05
    tolerance: float = 1e-10
    krylov_dim: int = 30

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ParameterError(f"method: must be one of {list(METHODS)}, got {self.method!r}")
        for name, kind in (("dt", numbers.Real), ("tolerance", numbers.Real),
                           ("krylov_dim", numbers.Integral)):
            value = getattr(self, name)
            check_type(name, value, kind)
            if kind is numbers.Real and not 0 < value < math.inf:
                raise ParameterError(f"{name}: must be positive and finite, got {value!r}")
        if self.krylov_dim < 2:
            raise ParameterError(f"krylov_dim={self.krylov_dim} must be at least 2")


@dataclass(eq=False)
class Trajectory:
    """Sampled observables along one evolution run, or along the k runs of a
    stack: then each column is (k, len(times)), and run r is row r of each."""

    times: np.ndarray
    columns: dict[str, np.ndarray]


def _block_rows(amplitudes: int) -> int:
    """Samples per block when one sample holds this many amplitudes."""
    return max(1, _BLOCK_ELEMENTS // max(amplitudes, 1))


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the complex vectors along the last axis of x."""
    return np.sqrt(np.vecdot(x, x).real)


def _lattice(times: np.ndarray) -> tuple[float, int]:
    """(h, m) such that times[:m] == h * arange(m) exactly, where m is len(times),
    or one less when only the last sample is off the lattice (clipped short, as
    scenarios' grids are); m is 0 for any other grid."""
    if len(times) < 2 or not times[1] > 0:
        return 0.0, 0
    h = times[1]
    on = times == h * np.arange(len(times))
    m = len(times) - (not on[-1])
    return h, (m if on[:m].all() else 0)


def _phases(evals: np.ndarray, times: np.ndarray, h: float, m: int) -> np.ndarray:
    """exp(-i t (x) E), (..., len(times), dim), for a block whose first m times
    are consecutive multiples of h.  Those m come from exact exps at anchors
    about sqrt(m) samples apart times the exact exps of the in-group offsets
    j h: about 2 sqrt(m) exps per eigenvalue instead of m, with the error of
    rounding t, about |E| ulp(t), that the direct exp also has.  The other
    times, and blocks of fewer than _ANCHORED_MIN lattice samples, take the
    direct exp."""
    if m < _ANCHORED_MIN:
        return np.exp(-1j * times[:, None] * evals[..., None, :])
    g = math.isqrt(m)
    anchors = np.exp(-1j * times[:m:g, None] * evals[..., None, :])
    offsets = np.exp(-1j * (h * np.arange(g))[:, None] * evals[..., None, :])
    grid = anchors[..., :, None, :] * offsets[..., None, :, :]
    grid = grid.reshape(grid.shape[:-3] + (-1, grid.shape[-1]))[..., :m, :]
    if m == len(times):
        return grid
    return np.concatenate([grid, np.exp(-1j * times[m:, None] * evals[..., None, :])], axis=-2)


def _advance(prop, amps: np.ndarray, dt: float) -> np.ndarray:
    """The state (or stack) a time dt after amps: a copy at dt = 0, otherwise
    the last state of the last block of prop.blocks over [0, dt]."""
    if dt == 0.0:
        return amps.copy()
    *_, last = prop.blocks(amps, np.array([0.0, dt]))
    return last[..., -1, :]


class DensePropagator:
    """Exact evolution through a cached full eigendecomposition: one batched
    eigh for a stack.  H is a SparseHamiltonian or a square array; states are
    (dim,) for one matrix, (k, dim) for a stack."""

    def __init__(self, H):
        shape = np.shape(H)  # checked before anything is made dense
        if len(shape) < 2 or shape[-1] != shape[-2]:
            raise ParameterError(f"expected a square matrix, got shape {shape}")
        if shape[-1] > DENSE_CAP:
            raise CapacityError(f"dense propagator capped at dim {DENSE_CAP}, got {shape[-1]}")
        dense = H.to_dense() if isinstance(H, SparseHamiltonian) else np.asarray(H, np.float64)
        self.evals, self.evecs = np.linalg.eigh(dense)
        if not np.isfinite(self.evals).all():  # eigh returns NaN, it does not raise
            raise NumericalError("dense spectrum is not finite", dimension=shape[-1])

    advance = _advance

    def blocks(self, amps: np.ndarray, times: np.ndarray):
        """States at every grid time, in blocks of shape (..., n, dim):
        (exp(-i t (x) E) * c) @ W^T."""
        coef = amps[..., None, :] @ self.evecs
        rows = _block_rows(coef.size)
        h, m = _lattice(times)
        for lo in range(0, len(times), rows):
            phases = _phases(self.evals, times[lo:lo + rows], h, max(0, min(rows, m - lo)))
            yield (phases * coef) @ np.swapaxes(self.evecs, -1, -2)


class _KrylovBasis(NamedTuple):
    """Lanczos bases of a stack of k vectors v: orthonormal rows V (k, m, dim),
    the eigenpairs of each row's tridiagonal T (k, m) and (k, m, m), the
    residual norms beta (k,), ||v|| (k,) and the rounding of an error estimate
    read from each row (k,), m eps beta ||v||: the estimate sums m terms whose
    magnitudes add up to at most beta ||v||.  A row that stopped growing (its
    space was invariant) has beta 0 at its stop and zeros past it, in V and
    in T; every exponential read from it is then exact."""

    V: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray
    beta: np.ndarray
    norm: np.ndarray
    rounding: np.ndarray


class KrylovPropagator:
    """Lanczos approximation of exp(-iHt) acting on a vector, or on the rows of
    a stack in lockstep.

    One reorthogonalization pass keeps the Krylov basis orthonormal at machine
    precision, so norms are preserved over long runs.  A state read from a
    basis a time s after its start misses the exact one by at most the defect
    integral beta ||v|| int_0^s |y_m(r)| dr for Hermitian H, where y_m is the
    last entry of exp(-iTs) e1 (Jawecki, Auzinger & Koch, BIT Numer. Math.
    60:157, 2020).  Its integrand is the endpoint estimate of Hochbruck &
    Lubich (SIAM J. Numer. Anal. 34:1911, 1997), which at the end of a step
    reads many times the error.  The integral is taken by the trapezoid rule
    from (0, 0) over probes of the basis's own, 2 _KRYLOV_PROBES of them; a
    basis reaches as far as that integral stays at most tolerance * s, or
    within the rounding of the read, at every probe and in every row.  Where
    |y_m| still rises convexly the trapezoid lies above the integral, and
    where it rises the average of the estimate cannot fall, so a bound that
    passes at the reach passes at every sample before it.  A non-finite
    estimate raises NumericalError.
    """

    def __init__(self, H: SparseHamiltonian, config: PropagatorConfig):
        self.matvec, self.dim = H.matvec, H.dim
        self.m = min(config.krylov_dim, self.dim)
        self.tolerance = config.tolerance
        self.dt = config.dt
        # |alpha| <= ||H||_inf, so a step whose every beta reaches this stops no row
        self.grows = 1e-14 * max(1.0, H.inf_norm)

    advance = _advance

    def _lanczos(self, amps: np.ndarray) -> _KrylovBasis:
        """Bases of the rows of a (k, dim) stack, built in lockstep: one matvec of
        the stack per basis vector; a row that stops (an invariant space, or a zero
        start) stores beta = 0 at its stop, and its vectors, alpha and beta are 0 after it."""
        k, m = len(amps), self.m
        nv = _norms(amps)
        V = np.zeros((k, m, self.dim), dtype=np.complex128)
        alpha = np.zeros((k, m))
        beta = np.zeros((k, m))
        V[:, 0] = amps / np.where(nv > 0, nv, np.inf)[:, None]
        for j in range(m):
            v = V[:, j]
            w = self.matvec(v)
            alpha[:, j] = a = np.vecdot(v, w).real
            w -= a[:, None] * v
            if j > 0:
                w -= beta[:, j - 1, None] * V[:, j - 1]
            basis = V[:, :j + 1]  # one reorthogonalization pass, a BLAS product per row
            w -= (np.vecdot(basis, w[:, None])[:, None] @ basis)[:, 0]
            beta[:, j] = b = _norms(w)
            if j + 1 == m:
                break
            if not b.min() >= self.grows:  # a row may stop, or a beta is NaN
                # an invariant row (beta ~ 0) is exact and stops; a non-finite one raises below
                beta[b < 1e-14 * np.maximum(1.0, np.abs(a)), j] = 0.0
                if not (grow := beta[:, j] > 0).any():
                    break
                b = np.where(grow, b, np.inf)
            np.divide(w, b[:, None], out=V[:, j + 1])
        if not np.isfinite(beta).all():  # the error estimate scales with beta
            raise NumericalError("krylov error estimate is not finite",
                                 dimension=self.dim, krylov_dim=m)
        n = j + 1
        T = np.zeros((k, n, n))
        i = np.arange(n)
        T[:, i, i] = alpha[:, :n]
        T[:, i[:-1], i[1:]] = T[:, i[1:], i[:-1]] = beta[:, :n - 1]
        evals, evecs = np.linalg.eigh(T)
        residual = beta[:, m - 1] if m < self.dim else np.zeros(k)
        return _KrylovBasis(V[:, :n], evals, evecs, residual, nv,
                            n * np.finfo(np.float64).eps * residual * nv)

    def _read(self, basis: _KrylovBasis, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients exp(-iTs) e1, (k, m, len(s)), and their error estimates (k, len(s))."""
        Y = basis.evecs @ (np.exp(-1j * basis.evals[:, :, None] * s) * basis.evecs[:, 0, :, None])
        return Y, np.abs(basis.beta[:, None] * Y[:, -1]) * basis.norm[:, None]

    @staticmethod
    def _states(basis: _KrylovBasis, Y: np.ndarray) -> np.ndarray:
        """The states of coefficients Y, (k, n, dim)."""
        return basis.norm[:, None, None] * (np.swapaxes(Y, 1, 2) @ basis.V)

    def _accept(self, basis: _KrylovBasis, s: np.ndarray,
                err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether each of the times s (n,), ascending from the basis's start,
        passes in every row, and the bounds it was judged by (k, n): the
        trapezoid integrals of the estimates err (k, n) from (0, 0) through s.
        A time passes when its integral is at most tolerance * s plus the
        rounding of the read."""
        ds = 0.5 * np.diff(s, prepend=0.0)
        area = ds * err
        area[:, 1:] += ds[1:] * err[:, :-1]
        np.cumsum(area, axis=1, out=area)
        return np.all(area <= self.tolerance * s + basis.rounding[:, None], axis=0), area

    def _reach(self, basis: _KrylovBasis, r: float, span: float) -> float:
        """How far a basis that is not exact serves: the last of its probes
        r (1 ... 2N)/N, N = _KRYLOV_PROBES, before the first that fails, or
        span, the rest of the grid, if that is nearer.  r doubles while every
        probe passes and halves while none does; a reach below 2**-12 dt
        raises NumericalError."""
        probes = np.arange(1, 2 * _KRYLOV_PROBES + 1) / _KRYLOV_PROBES
        floor, reach = 2.0 ** -12 * self.dt, 0.0
        while r >= floor:
            p = r * probes
            err = self._read(basis, p)[1]
            ok, _ = self._accept(basis, p, err)
            n = len(p) if ok.all() else int(ok.argmin())
            reach = max(reach, p[n - 1] if n else 0.0)
            if reach >= span:
                return span
            if reach and n < len(p):
                break
            r = 2.0 * r if n else 0.5 * r
        if reach < floor:
            raise NumericalError("krylov step failed to reach tolerance",
                                 residual=float(np.max(err[:, 0])), step=floor,
                                 dimension=self.dim, krylov_dim=self.m)
        return reach

    def blocks(self, amps: np.ndarray, times: np.ndarray):
        """States at every grid time, in blocks of shape (..., n, dim): first
        the start, as given, alone, then the states of each basis.

        A Lanczos basis of the stack, built at time t0, serves every grid time
        in (t0, t0 + reach], where _reach finds how far its bound holds on
        probes of its own, first from dt and then from the last basis's reach;
        the next basis starts at t0 + reach, on a grid time or between two.
        The bases' spans tile the grid, so the error at t is at most
        tolerance * t plus, once per basis, the estimate's rounding and a few
        (dim + ||H|| s) eps of the states'.  A basis exact in every row serves
        the rest of the grid.
        """
        shape = np.shape(amps)[:-1]
        cur = np.array(amps, dtype=np.complex128).reshape(-1, self.dim)  # a (k, dim) copy
        rows = _block_rows(cur.size)
        yield cur.reshape(shape + (1, self.dim))
        t0, i, last, reach = times[0], 0, len(times) - 1, self.dt  # cur is the state at t0
        while i < last:
            basis = self._lanczos(cur)
            s = times[i + 1:] - t0
            reach = self._reach(basis, reach, s[-1]) if basis.beta.any() else s[-1]
            n = int(np.searchsorted(s, reach, "right"))
            for lo in range(0, n, rows):
                block = self._states(basis, self._read(basis, s[lo:min(n, lo + rows)])[0])
                yield block.reshape(shape + block.shape[1:])
            i += n
            if i < last:
                cur = self._states(basis, self._read(basis, np.array([reach]))[0])[:, 0]
                t0 += reach


class TaylorPropagator:
    """Truncated Taylor series for exp(-iHt) over substeps tau with ||H|| tau at
    most _TAYLOR_THETA (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011).
    States are (dim,) or, against a stack, (k, dim); the series of every row
    runs until the last row has converged."""

    def __init__(self, H: SparseHamiltonian, config: PropagatorConfig):
        self.matvec, self.dim, self.hnorm = H.matvec, H.dim, H.inf_norm
        self.tolerance = config.tolerance
        self.dt = config.dt

    advance = _advance

    def _substep(self, psi: np.ndarray, tau: float) -> np.ndarray:
        acc = psi.copy()
        term = psi
        # next-term norm bounds the truncation error; budget scales with the
        # substep so a full run accumulates at most tolerance * t
        budget = 0.25 * self.tolerance * abs(tau) * np.maximum(_norms(psi), 1e-300)
        tn = math.inf
        for k in range(1, _MAX_TAYLOR_TERMS + 1):
            term = (-1j * tau / k) * self.matvec(term)
            acc += term
            tn = _norms(term)
            if (tn <= budget).all():
                return acc
        raise NumericalError(
            "taylor series did not converge",
            residual=float(np.max(tn)), step=tau, dimension=self.dim, terms=_MAX_TAYLOR_TERMS,
        )

    def blocks(self, amps: np.ndarray, times: np.ndarray):
        """States at every grid time, in blocks of shape (..., n, dim): first
        the start, as given, alone, then the stepped samples.  A sample
        interval delta takes n = max(ceil(|delta| / dt), ceil(||H|| |delta| /
        _TAYLOR_THETA)) equal substeps; a grid longer than MAX_TAYLOR_STEPS dt
        is refused before any stepping, and an interval whose dt-long steps
        need more than _MAX_TAYLOR_SUBSTEPS substeps each raises NumericalError."""
        if (steps := times[-1] / self.dt) > MAX_TAYLOR_STEPS:
            raise ParameterError(f"a taylor run takes at most {MAX_TAYLOR_STEPS} steps, "
                                 f"got t / dt = {steps:g}")
        cur = np.array(amps, dtype=np.complex128)
        rows = _block_rows(cur.size)
        yield cur[..., None, :]
        for lo in range(1, len(times), rows):
            block = []
            for delta in np.diff(times[lo - 1:lo + rows]):
                nsteps = max(1, math.ceil(abs(delta) / self.dt - 1e-9))
                if not self.hnorm * abs(delta / nsteps) / _TAYLOR_THETA <= _MAX_TAYLOR_SUBSTEPS:
                    raise NumericalError(  # a non-finite norm fails here too
                        f"taylor step needs more than {_MAX_TAYLOR_SUBSTEPS} substeps",
                        norm=self.hnorm, step=delta / nsteps)
                n = max(nsteps, math.ceil(self.hnorm * abs(delta) / _TAYLOR_THETA))
                for _ in range(n):
                    cur = self._substep(cur, delta / n)
                block.append(cur)
            yield np.stack(block, axis=-2)


def plan(dim: int, sampled: int, config: PropagatorConfig, nnz: int = 0) -> tuple[str, int, int]:
    """The propagator that runs a sector of dimension dim, the runs per stack
    when each samples `sampled` values (samples times columns), and the bytes
    one stack needs with H's nnz values a run; from sizes alone.

    A krylov config whose Krylov space spans the sector runs dense_eig, exact
    and without matrix-vector products (Moler & Van Loan, SIAM Rev. 45:3,
    2003).  A stack holds at most _BLOCK_ELEMENTS values of samples and
    propagator arrays (2 dim^2 a run for dense_eig, the Lanczos basis for
    krylov, a few vectors for taylor); a sector above DENSE_CAP runs alone: a
    stack of two L = 30 (2, 1) runs (dim 13 050) took as long as two of one.
    """
    if config.method == "dense_eig" and dim > DENSE_CAP:
        raise CapacityError(f"dense_eig is capped at dimension {DENSE_CAP}, the sector has {dim}")
    method = config.method
    if method == "krylov" and dim <= min(config.krylov_dim, DENSE_CAP):
        method = "dense_eig"
    vectors = {"dense_eig": 2 * dim, "krylov": min(config.krylov_dim, dim), "taylor": 4}[method]
    per_run = max(1, sampled + vectors * dim)  # 1 for an empty sector (dim 0)
    rows = 1 if dim > DENSE_CAP else max(1, _BLOCK_ELEMENTS // per_run)
    # 16 bytes a value: samples, propagator arrays, H's values and indices, a block of states
    values = rows * (per_run + nnz) + nnz + max(_BLOCK_ELEMENTS, rows * dim)
    return method, rows, 16 * values


def make_propagator(H, config: PropagatorConfig):
    """The propagator that plan picks for H's dimension."""
    method = plan(np.shape(H)[-1], 0, config)[0]
    if method == "dense_eig":
        return DensePropagator(H)
    if method == "krylov":
        return KrylovPropagator(H, config)
    return TaylorPropagator(H, config)


def check_state(psi0, H) -> np.ndarray:
    """psi0 as an array; a ParameterError unless it is a (dim,) array of
    numbers of norm 1 within NORM_TOLERANCE, for H of shape (..., dim, dim)."""
    try:
        psi0 = np.asarray(psi0)
    except ValueError:
        raise ParameterError("psi0 must be an array of numbers, got a ragged sequence") from None
    if not np.issubdtype(psi0.dtype, np.number):
        raise ParameterError(f"psi0 must be an array of numbers, got dtype {psi0.dtype}")
    if psi0.shape != H.shape[-1:]:
        raise ParameterError(f"psi0 has shape {psi0.shape}, expected {H.shape[-1:]} "
                             f"for H of shape {H.shape}")
    if not abs((norm := math.sqrt(np.vdot(psi0, psi0).real)) - 1.0) <= NORM_TOLERANCE:
        raise ParameterError(f"psi0 has norm {norm:.17g}, expected 1 within {NORM_TOLERANCE:g}")
    return psi0


def evolve_trajectory(
    H,
    psi0: np.ndarray,
    times,
    config: PropagatorConfig,
    observables: dict,
) -> Trajectory:
    """Sample named observables along the evolution of psi0, the (dim,)
    amplitudes of one state over H's basis, of norm 1 within NORM_TOLERANCE.

    times must be finite and increase strictly from 0.  The configured propagator lands on
    every grid time (no interpolation of observables) and hands the states
    out in blocks of consecutive samples.  observables maps a tuple of column
    names to a callable that maps a block of amplitudes (..., n, dim) to their
    values (..., n, len(names)), as observables.observable_functions binds
    them.  At most one block of states is held at a time.

    For a stack of k Hamiltonians (a SparseHamiltonian with (k, nnz) values)
    psi0 starts every run; the runs propagate together, and the result holds
    a (k, len(times)) array per column.
    """
    times = real_array("times", times)
    if times.ndim != 1 or len(times) == 0:
        raise ParameterError("times must be a non-empty 1-d grid")
    if not np.isfinite(times).all():
        raise ParameterError(f"time grid must be finite, got {times[~np.isfinite(times)][0]}")
    if abs(times[0]) > 1e-12:
        raise ParameterError(f"time grid must start at 0, got {times[0]}")
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise ParameterError("time grid must be strictly increasing")
    psi0 = check_state(psi0, H)

    batch = H.shape[:-2]
    prop = make_propagator(H, config)
    amps = np.broadcast_to(psi0, batch + H.shape[-1:])
    tables = [np.empty(batch + (len(times), len(names))) for names in observables]

    start = 0
    for block in prop.blocks(amps, times):
        stop = start + block.shape[-2]
        for table, fn in zip(tables, observables.values()):
            table[..., start:stop, :] = fn(block)
        start = stop

    columns = {name: table[..., i] for names, table in zip(observables, tables)
               for i, name in enumerate(names)}
    return Trajectory(times=times, columns=columns)
