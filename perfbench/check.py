"""Output check: every written column against an independent reference.

The reference Hamiltonian, initial states, barrier and observables are built
here from occupation bitmasks, sharing no code with ``fermichain``'s basis,
assembly, kernels, states or observables, so a defect there cannot move the
reference along with the output.  Sectors up to the dense cap are then
propagated by the dense oracle (``DensePropagator``, a full
eigendecomposition) on that matrix; larger sectors by the independent Taylor
propagator, with a matrix-vector product over the same independent matrix.

The allowed error follows the propagators' promise: a run to time t is
within ``tolerance * t`` of the exact state (summed over both methods when
two inexact propagators are compared), and an observable O then moves by at
most ``2 ||O|| * tolerance * t``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from fermichain.evolution import DensePropagator, PropagatorConfig, TaylorPropagator
from fermichain.hamiltonian import DENSE_CAP, SparseHamiltonian

ROUNDING = 1e-12  # slack for floating-point rounding, in units of 2 ||O||

_SITE = re.compile(r"^n(_up|_down)?_(\d+|L)$")


@dataclass
class Reference:
    """Expected columns per item, keyed by (swept value, orientation)."""

    times: np.ndarray
    columns: dict  # (value, orientation) -> {column: array over times}
    scales: dict  # column -> 2 ||O||, the factor on the state error
    tolerance: float  # summed promised error rate of the compared methods
    method: str
    L: int
    particles: int
    dims: dict = field(default_factory=dict)  # orientation -> sector dimension
    nnz: dict = field(default_factory=dict)  # orientation -> Hamiltonian nonzeros


@dataclass
class Verdict:
    attempted: int
    failed: int
    max_err: float
    reasons: list


def time_grid(t_max: float, sample_dt: float) -> np.ndarray:
    n = max(1, math.ceil(t_max / sample_dt - 1e-9))
    times = sample_dt * np.arange(n + 1)
    times[-1] = min(times[-1], t_max)
    return times


class SectorHamiltonian:
    """The chain Hamiltonian on one (N_up, N_down) sector, built here from bitmasks.

    It shares no code with ``fermichain``'s basis, assembly or kernels, so a
    defect there cannot move the reference along with the output.  Bit j-1 of
    a mask is site j; the global index is ``i_up * dim_down + i_down``.  Terms:
    ``-J`` hops between neighbouring sites of one species, with the
    Jordan-Wigner sign of the same-species sites in between (always +1 for a
    neighbour hop; a hop commutes with the other species' block as a pair),
    open boundaries; on the diagonal ``U`` per doubly occupied site plus
    ``V . n``.  Every diagonal entry is stored, zero or not, so no row is empty.
    """

    def __init__(self, L, n_up, n_down, U, V, J=1.0):
        self.L = L
        self.up = _masks(L, n_up)
        self.down = _masks(L, n_down)
        du, dd = len(self.up), len(self.down)
        self.dim = du * dd
        self.occ_up, self.occ_down = _bits(self.up, L), _bits(self.down, L)
        doubles = _bits((self.up[:, None] & self.down[None, :]).ravel(), L).sum(axis=1)
        onsite = (self.occ_up @ V)[:, None] + (self.occ_down @ V)[None, :]
        diagonal = np.arange(self.dim)
        rows, cols, vals = [diagonal], [diagonal], [U * doubles + onsite.ravel()]
        for masks, stride, rest in ((self.up, dd, np.arange(dd)),
                                    (self.down, 1, dd * np.arange(du))):
            row, col, sign = _hops(masks, L)
            # one hop of this species, for every configuration of the other one
            rows.append((row[:, None] * stride + rest).ravel())
            cols.append((col[:, None] * stride + rest).ravel())
            vals.append(np.repeat(-J * sign, len(rest)))
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        order = np.lexsort((cols, rows))
        self.rows, self.cols, self.vals = rows[order], cols[order], vals[order]
        self.starts = np.searchsorted(self.rows, np.arange(self.dim))
        self.nnz = len(self.vals)
        self.inf_norm = float(np.bincount(self.rows, np.abs(self.vals), self.dim).max())

    def matvec(self, x):
        return np.add.reduceat(self.vals * x[self.cols], self.starts)

    def dense(self):
        out = np.zeros((self.dim, self.dim))
        out[self.rows, self.cols] = self.vals
        return out

    def configuration(self, up_sites, down_sites):
        """Unit vector of the configuration with the given occupied sites."""
        def index(masks, sites):
            return int(np.flatnonzero(masks == sum(1 << (s - 1) for s in sites))[0])
        psi = np.zeros(self.dim, dtype=np.complex128)
        psi[index(self.up, up_sites) * len(self.down) + index(self.down, down_sites)] = 1.0
        return psi


def _masks(L, n):
    masks = sorted(sum(1 << b for b in c) for c in combinations(range(L), n))
    return np.array(masks, dtype=np.int64)


def _bits(masks, L):
    return ((masks[:, None] >> np.arange(L)) & 1).astype(np.float64)


def _hops(masks, L):
    """Neighbour hops within one species: (row, column, Jordan-Wigner sign) of each element."""
    index = {int(m): k for k, m in enumerate(masks)}
    rows, cols, signs = [], [], []
    for k, m in enumerate(masks.tolist()):
        for b in range(L - 1):
            for frm, to in ((b, b + 1), (b + 1, b)):
                if m >> frm & 1 and not m >> to & 1:
                    lo, hi = min(frm, to), max(frm, to)
                    between = m & ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
                    rows.append(index[m ^ (1 << frm) ^ (1 << to)])
                    cols.append(k)
                    signs.append(-1.0 if bin(between).count("1") & 1 else 1.0)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(signs)


def _barrier(L, h, orientation):
    """Height h at site L/2 and h/2 at L/2 + 1 for orientation a; mirrored for b."""
    V = np.zeros(L)
    V[L // 2 - 1], V[L // 2] = (h, h / 2) if orientation == "a" else (h / 2, h)
    return V


def _initial(H, spec):
    """Initial state and its S^2 eigenvalue."""
    if spec["kind"] == "doublon":
        site = spec["site"]
        return H.configuration([site], [site]), 0.0  # on-site singlet: S = 0
    if spec["kind"] == "doublon_plus_up":
        d, u = spec["doublon_site"], spec["up_site"]
        return H.configuration([d, u], [d]), 0.75
    raise ValueError(f"no reference for initial state {spec['kind']!r}")


class _SectorOperator(SparseHamiltonian):
    """``SectorHamiltonian`` in the shape ``TaylorPropagator`` takes, with its own matvec."""

    def __init__(self, H):
        super().__init__(indptr=np.append(H.starts, H.nnz), indices=H.cols, data=H.vals)
        object.__setattr__(self, "_sector", H)

    def matvec(self, x):
        return self._sector.matvec(x)

    @property
    def inf_norm(self):
        return self._sector.inf_norm


def _states(H, psi0, times, method, config):
    """Reference states on the time grid, one row per sample."""
    if method == "dense_eig":
        prop = DensePropagator(H.dense())
        coef = prop.evecs.T @ psi0
        return (np.exp(-1j * np.outer(times, prop.evals)) * coef) @ prop.evecs.T
    prop = TaylorPropagator(_SectorOperator(H), config)
    out = np.empty((len(times), len(psi0)), dtype=np.complex128)
    out[0] = psi0
    for k in range(1, len(times)):
        delta = times[k] - times[k - 1]
        nsteps = max(1, math.ceil(delta / config.dt - 1e-9))
        cur = out[k - 1]
        for _ in range(nsteps):
            cur = prop.advance(cur, delta / nsteps)
        out[k] = cur
    return out


def _energies(H, states):
    if H.dim <= DENSE_CAP:
        return np.einsum("ti,ti->t", states.conj(), states @ H.dense()).real
    return np.array([np.vdot(s, H.matvec(s)).real for s in states])


def _column_names(tokens, L):
    names = []
    for token in tokens:
        if token in ("n_all", "n_up_all", "n_down_all"):
            prefix = "n" if token == "n_all" else token[:-4]
            names.extend(f"{prefix}_{j}" for j in range(1, L + 1))
        else:
            names.append(token)
    return names


def _expected(name, L, h, V, N, density, up, down, norms, energies, s2):
    """One observable column of the reference states, and its 2 ||O||."""
    m = _SITE.match(name)
    if m:
        site = L if m.group(2) == "L" else int(m.group(2))
        table = {None: density, "_up": up, "_down": down}[m.group(1)]
        return table[:, site - 1], 2.0 if m.group(1) is None else 1.0
    if name == "n_h2":
        jstar = int(np.flatnonzero(V == h / 2)[0])
        return density[:, jstar], 2.0
    if name == "n_after":
        return density[:, L // 2 + 1:].sum(axis=1), 2.0 * N
    if name == "norm":
        return norms, 1.0
    if name == "energy":
        return energies, None  # scale set from ||H|| by the caller
    if name == "s_squared":
        return np.full_like(norms, s2), 2.0 * (N / 2) * (N / 2 + 1)
    raise ValueError(f"no reference for column {name!r}")


def reference(workload) -> Reference:
    """Compute the expected output of ``workload`` outside any timed region."""
    sc = workload.scenario
    L, h = sc["L"], sc["h"]
    config = PropagatorConfig(**sc["propagator"])
    spec = sc["initial_state"]
    n_up, n_down = (1, 1) if spec["kind"] == "doublon" else (2, 1)
    N = n_up + n_down
    times = time_grid(sc["t_max"], sc["sample_dt"])
    names = _column_names(sc["observables"], L)
    method = "dense_eig" if math.comb(L, n_up) * math.comb(L, n_down) <= DENSE_CAP else "taylor"
    tolerance = config.tolerance * (1 if method == "dense_eig" else 2)

    ref = Reference(times=times, columns={}, scales={}, tolerance=tolerance, method=method,
                    L=L, particles=N)
    for value in workload.values:
        U = sc["U"] if value is None else value
        for o in workload.orientations:
            V = _barrier(L, h, o)
            H = SectorHamiltonian(L, n_up, n_down, U, V)
            ref.dims[o], ref.nnz[o] = H.dim, H.nnz
            psi0, s2 = _initial(H, spec)
            states = _states(H, psi0, times, method, config)
            p = (np.abs(states) ** 2).reshape(len(times), len(H.up), len(H.down))
            up, down = p.sum(axis=2) @ H.occ_up, p.sum(axis=1) @ H.occ_down
            norms = np.linalg.norm(states, axis=1)
            energies = _energies(H, states) if "energy" in names else None
            cols = {}
            for name in names:
                col, scale = _expected(name, L, h, V, N, up + down, up, down, norms, energies, s2)
                cols[name] = col
                ref.scales[name] = max(ref.scales.get(name, 0.0), scale or 2.0 * H.inf_norm)
            ref.columns[(value, o)] = cols
    return ref


def _read_csv(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data.reshape(len(lines) - 1, len(header))


def check_output(workload, ref: Reference, path) -> Verdict:
    """Count the failed items of one written CSV; an item is one trajectory."""
    items = [(v, o) for v in workload.values for o in workload.orientations]
    try:
        header, data = _read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return Verdict(len(items), len(items), math.inf, [f"unreadable output: {exc}"])
    failed, worst, reasons = set(), 0.0, []

    def compare(item, label, got, want, bound):
        nonlocal worst
        err = np.abs(np.asarray(got) - want)
        bad = ~(err <= bound)  # NaN counts as a miss
        if np.any(bad):
            failed.add(item)
            reasons.append(f"{item} {label}: {int(bad.sum())} value(s) off, max error {np.max(err):.3g}")
        if np.all(np.isfinite(err)):
            worst = max(worst, float(err.max()))

    if workload.command == "sweep":
        T = workload.doc["sweep"]["reduction"]["T"]
        keep = ref.times <= T * (1 + 1e-12)
        tt = ref.times[keep]
        want_header = ["U"] + [f"avg_{n}_{o}" for o in workload.orientations
                               for n in next(iter(ref.columns.values()))]
        if header != want_header or len(data) != len(workload.values):
            return Verdict(len(items), len(items), math.inf, [f"unexpected table shape {header}"])
        for row, value in zip(data, workload.values):
            for o in workload.orientations:
                item = (value, o)
                compare(item, "U", row[0], value, 0.0)
                for name, col in ref.columns[item].items():
                    want = np.trapezoid(col[keep], tt) / (tt[-1] - tt[0])
                    bound = ref.scales[name] * (ref.tolerance * T + ROUNDING)
                    compare(item, name, row[header.index(f"avg_{name}_{o}")], want, bound)
    else:
        suffix = len(workload.orientations) > 1
        names = list(next(iter(ref.columns.values())))
        want_header = ["t"] + [f"{n}_{o}" if suffix else n
                               for o in workload.orientations for n in names]
        if header != want_header or len(data) != len(ref.times):
            return Verdict(len(items), len(items), math.inf, [f"unexpected trajectory shape {header}"])
        t = ref.times
        for item in items:
            o, cols = item[1], ref.columns[item]

            def label(name):
                return f"{name}_{o}" if suffix else name

            def got(name):
                return data[:, header.index(label(name))]

            def bound(scale):
                return scale * (ref.tolerance * t + ROUNDING)

            compare(item, "t", data[:, 0], t, 1e-12 * (1 + t))
            for name, want in cols.items():
                compare(item, label(name), got(name), want, bound(ref.scales[name]))
            # Conservation: norm and energy stay at their t = 0 values.  In a
            # fixed (N_up, N_down) sector the particle number is N ||psi||^2,
            # so the norm checks it too; where every site density is written,
            # their sum must equal N.
            if "norm" in cols:
                compare(item, "norm conservation", got("norm"), 1.0, bound(ref.scales["norm"]))
            if "energy" in cols:
                compare(item, "energy conservation", got("energy"), cols["energy"][0],
                        bound(ref.scales["energy"]))
            sites = [f"n_{j}" for j in range(1, ref.L + 1)]
            if all(s in cols for s in sites):
                compare(item, "particle number", sum(got(s) for s in sites), ref.particles,
                        bound(2.0 * ref.particles))
    return Verdict(len(items), len(failed), worst, reasons)
