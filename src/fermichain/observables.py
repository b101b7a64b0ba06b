"""Measured quantities: site densities, region sums, time averages, trap times."""

from __future__ import annotations

import re
from functools import cached_property

import numpy as np

from .basis import ProductBasis
from .errors import ParameterError
from .hamiltonian import SparseHamiltonian, total_spin_squared
from .states import StateVector

SPINS = ("up", "down")
TRAP_COLUMN = "n_h2"  # the column a trap-time reduction reads unless told otherwise

# a site density: n_<j>, n_L, n_all, with _up or _down after the n for one spin
_SITE_TOKEN = re.compile(r"n(?:_(up|down))?_(\d+|L|all)")


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
    return block.density()[..., block.basis.L // 2 + 1:].sum(axis=-1)


def _doublon_count(block: StateBlock) -> np.ndarray:
    p = block.probabilities
    return p.reshape(p.shape[:-2] + (-1,)) @ block.basis.doublon_counts


def _norm(block: StateBlock) -> np.ndarray:
    return np.linalg.norm(block.amplitudes, axis=-1)


def _expectation_column(op: SparseHamiltonian):
    def column(block: StateBlock) -> np.ndarray:
        return op.expectations(block.amplitudes)
    return column


_UNBOUND = {"n_after": _n_after, "n_total": _total_number,
            "norm": _norm, "doublon_count": _doublon_count}


def columns(tokens, L: int, barrier: bool = True) -> dict[str, tuple]:
    """The columns of observable tokens on an L-site chain, in token order:
    name -> (kind, site, spin); kind is n_site for a site density, else the
    token.  Raises ParameterError on an unknown token, a site outside the
    chain, n_after on an odd chain, n_h2 without a barrier, or a column
    named twice.
    """
    out = {}
    for token in map(str, tokens):
        m = _SITE_TOKEN.fullmatch(token)
        if m and m[2] == "all":
            found = {f"{token[:-3]}{j}": ("n_site", j, m[1]) for j in range(1, L + 1)}
        elif m:
            j = L if m[2] == "L" else int(m[2])
            if not 1 <= j <= L:
                raise ParameterError(f"token {token!r}: site {j} outside chain [1, {L}]")
            found = {token: ("n_site", j, m[1])}
        elif token in (*_UNBOUND, "n_h2", "energy", "s_squared"):
            if token == "n_after" and L % 2:
                raise ParameterError(f"n_after needs an even chain, got L={L}")
            if token == "n_h2" and not barrier:
                raise ParameterError("n_h2 needs a barrier (h > 0)")
            found = {token: (token, None, None)}
        else:
            raise ParameterError(f"unknown observable token {token!r}")
        if twice := out.keys() & found.keys():
            raise ParameterError(f"duplicate observable column {min(twice)!r}")
        out.update(found)
    return out


def density_profile(psi: StateVector, spin: str | None = None) -> np.ndarray:
    """Per-site expected occupations, length L."""
    return StateBlock.of(psi).density(spin)[0]


def site_density(psi: StateVector, site: int, spin: str | None = None) -> float:
    """<n_{site}> (total) or <n_{site,spin}>."""
    if not 1 <= site <= psi.basis.L:
        raise ParameterError(f"site {site} outside chain [1, {psi.basis.L}]")
    return float(density_profile(psi, spin)[site - 1])


def total_number(psi: StateVector) -> float:
    return float(_total_number(StateBlock.of(psi))[0])


def n_after(psi: StateVector) -> float:
    """Total density on the sites after the central barrier, L/2+2 .. L."""
    if psi.basis.L % 2:
        raise ParameterError(f"n_after needs an even chain, got L={psi.basis.L}")
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
    tokens,
    basis: ProductBasis,
    H: SparseHamiltonian | None = None,
    jstar=None,
) -> dict:
    """Bind the columns of observable tokens (see columns) to callables over a
    StateBlock, keyed by column name.

    Each callable maps a block of n consecutive states to an array of n
    values (of (k, n) for a stack); the density columns of one block share
    one density computation.  H is required when an energy column is
    requested, jstar when an n_h2 column is: one site, or one per run of a
    stack, whose H then holds each run's values.  The S^2 matrix depends
    only on the basis and is built once on demand.
    """
    s2 = None
    fns = {}
    for name, (kind, site, spin) in columns(tokens, basis.L, barrier=jstar is not None).items():
        if kind == "n_site":
            fns[name] = _site_column(site, spin)
        elif kind == "n_h2":
            if np.ndim(jstar):
                fns[name] = _row_site_column(np.asarray(jstar, dtype=np.int64))
            else:
                fns[name] = _site_column(jstar, None)
        elif kind == "energy":
            if H is None:
                raise ParameterError("energy observable requires the Hamiltonian")
            fns[name] = _expectation_column(H)
        elif kind == "s_squared":
            if s2 is None:
                s2 = total_spin_squared(basis)
            fns[name] = _expectation_column(s2)
        else:
            fns[name] = _UNBOUND[kind]
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
