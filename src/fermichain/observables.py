"""Measured quantities: site densities, region sums, time averages, trap times."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import ProductBasis
from .errors import ParameterError
from .hamiltonian import SparseHamiltonian, total_spin_squared
from .states import StateVector

KINDS = (
    "n_site", "n_site_spin", "n_after", "n_h2", "n_total",
    "norm", "energy", "s_squared", "doublon_count",
)
SPINS = ("up", "down")


@dataclass(frozen=True)
class ObservableSpec:
    """One measurable column: its kind plus site/spin parameters where used."""

    kind: str
    site: int | None = None
    spin: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown observable kind {self.kind!r}")
        if self.kind in ("n_site", "n_site_spin") and self.site is None:
            raise ParameterError(f"{self.kind} needs a site")
        if self.kind == "n_site_spin" and self.spin not in SPINS:
            raise ParameterError(f"n_site_spin needs spin in {SPINS}, got {self.spin!r}")
        if self.kind not in ("n_site", "n_site_spin") and (self.site or self.spin):
            raise ParameterError(f"{self.kind} takes no site/spin parameters")


class StateBlock:
    """Consecutive states over one basis, one per row of an (n, dim) array, or
    the n states of each of the k runs of a stack, (k, n, dim).

    Observable callables map a block to n values, or to (k, n).  What several
    columns read, the occupation probabilities and the per-site densities, is
    computed once per block and shared.
    """

    def __init__(self, basis: ProductBasis | None, amplitudes: np.ndarray):
        self.basis = basis
        self.amplitudes = amplitudes

    @classmethod
    def of(cls, psi: StateVector) -> "StateBlock":
        return cls(psi.basis, psi.amplitudes[None])

    @cached_property
    def probabilities(self) -> np.ndarray:
        """|psi|^2 of each state, shaped (..., n, dim_up, dim_down)."""
        a = self.amplitudes
        return (a.real ** 2 + a.imag ** 2).reshape(
            a.shape[:-1] + (self.basis.up.dim, self.basis.down.dim))

    @cached_property
    def _densities(self) -> dict:
        p = self.probabilities
        up = p.sum(axis=-1) @ self.basis.up.occupations
        down = p.sum(axis=-2) @ self.basis.down.occupations
        return {None: up + down, "up": up, "down": down}

    def density(self, spin: str | None = None) -> np.ndarray:
        """Per-site expected occupations, (..., n, L): both species, or one spin."""
        if spin is not None and spin not in SPINS:
            raise ParameterError(f"spin must be in {SPINS} or None, got {spin!r}")
        return self._densities[spin]


def _site_column(site: int, spin: str | None):
    def column(block: StateBlock) -> np.ndarray:
        return block.density(spin)[..., site - 1]
    return column


def _row_site_column(sites: np.ndarray):
    """Total density at sites[r] in run r of a stack."""
    runs = np.arange(len(sites))

    def column(block: StateBlock) -> np.ndarray:
        return block.density()[runs, :, sites - 1]
    return column


def _total_number(block: StateBlock) -> np.ndarray:
    return block.density().sum(axis=-1)


def _n_after(block: StateBlock) -> np.ndarray:
    L = block.basis.L
    if L % 2:
        raise ParameterError(f"n_after needs an even chain, got L={L}")
    return block.density()[..., L // 2 + 1:].sum(axis=-1)


def _doublon_count(block: StateBlock) -> np.ndarray:
    p = block.probabilities
    return p.reshape(p.shape[:-2] + (-1,)) @ block.basis.doublon_counts


def _norm(block: StateBlock) -> np.ndarray:
    return np.linalg.norm(block.amplitudes, axis=-1)


def _expectation_column(op: SparseHamiltonian):
    def column(block: StateBlock) -> np.ndarray:
        return op.expectations(block.amplitudes)
    return column


def _check_site(basis: ProductBasis, site: int) -> None:
    if not 1 <= site <= basis.L:
        raise ParameterError(f"site {site} outside chain [1, {basis.L}]")


def density_profile(psi: StateVector, spin: str | None = None) -> np.ndarray:
    """Per-site expected occupations, length L."""
    return StateBlock.of(psi).density(spin)[0]


def site_density(psi: StateVector, site: int, spin: str | None = None) -> float:
    """<n_{site}> (total) or <n_{site,spin}>."""
    _check_site(psi.basis, site)
    return float(density_profile(psi, spin)[site - 1])


def total_number(psi: StateVector) -> float:
    return float(_total_number(StateBlock.of(psi))[0])


def n_after(psi: StateVector) -> float:
    """Total density on the sites after the central barrier, L/2+2 .. L."""
    return float(_n_after(StateBlock.of(psi))[0])


def doublon_count(psi: StateVector) -> float:
    """Expected number of doubly occupied sites."""
    return float(_doublon_count(StateBlock.of(psi))[0])


def norm(psi: StateVector) -> float:
    return psi.norm()


def energy(psi: StateVector, H: SparseHamiltonian) -> float:
    return H.expectation(psi.amplitudes)


def s_squared(psi: StateVector, s2: SparseHamiltonian) -> float:
    return s2.expectation(psi.amplitudes)


def observable_functions(
    specs: list[tuple[str, ObservableSpec]],
    basis: ProductBasis,
    H: SparseHamiltonian | None = None,
    jstar=None,
) -> dict:
    """Bind (column name, spec) pairs to callables over a StateBlock.

    Each callable maps a block of n consecutive states to an array of n
    values (of (k, n) for a stack); the density columns of one block share
    one density computation.  H is required when an energy column is
    requested, jstar when an n_h2 column is: one site, or one per run of a
    stack, whose H then holds each run's values.  The S^2 matrix depends
    only on the basis and is built once on demand.
    """
    s2 = None
    unbound = {"n_after": _n_after, "n_total": _total_number,
               "norm": _norm, "doublon_count": _doublon_count}
    fns = {}
    for name, spec in specs:
        if spec.kind in ("n_site", "n_site_spin"):
            _check_site(basis, spec.site)
            fns[name] = _site_column(spec.site, spec.spin)
        elif spec.kind == "n_h2":
            if jstar is None:
                raise ParameterError("n_h2 requires a barrier (jstar site unknown)")
            if np.ndim(jstar):
                fns[name] = _row_site_column(np.asarray(jstar, dtype=np.int64))
            else:
                fns[name] = _site_column(jstar, None)
        elif spec.kind == "energy":
            if H is None:
                raise ParameterError("energy observable requires the Hamiltonian")
            fns[name] = _expectation_column(H)
        elif spec.kind == "s_squared":
            if s2 is None:
                s2 = total_spin_squared(basis)
            fns[name] = _expectation_column(s2)
        else:
            fns[name] = unbound[spec.kind]
    return fns


def time_average(times, values, T: float) -> float:
    """Trapezoid-rule average of a sampled column over [0, T].

    The grid must cover [0, T]; samples beyond T are ignored.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not T > 0:
        raise ParameterError(f"averaging window T={T} must be positive")
    keep = times <= T * (1 + 1e-12)
    tt, vv = times[keep], values[keep]
    if len(tt) < 2 or tt[-1] < T * (1 - 1e-9):
        raise ParameterError(f"trajectory covers [0, {times[-1] if len(times) else 0}], need [0, {T}]")
    return float(np.trapezoid(vv, tt) / (tt[-1] - tt[0]))


def trap_time(times, values, threshold: float = 0.01) -> float | None:
    """First sampled time where the column strictly exceeds threshold; None if never."""
    if not threshold > 0:
        raise ParameterError(f"threshold={threshold} must be positive")
    hits = np.flatnonzero(np.asarray(values) > threshold)
    if hits.size == 0:
        return None
    return float(np.asarray(times)[hits[0]])
