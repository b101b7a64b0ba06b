"""Measured quantities: site densities, region sums, time averages, trap times."""

from __future__ import annotations

import re

import numpy as np

from .basis import ProductBasis
from .errors import ParameterError
from .hamiltonian import SparseHamiltonian, total_spin_squared
from .states import StateBlock

TRAP_COLUMN = "n_h2"  # the column a trap-time reduction reads unless told otherwise

# a site density: n_<j>, n_L, n_all, with _up or _down after the n for one spin
_SITE_TOKEN = re.compile(r"n(?:_(up|down))?_(\d+|L|all)")


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


def _n_total(block: StateBlock) -> np.ndarray:
    return block.density().sum(axis=-1)


def _after_barrier(block: StateBlock) -> np.ndarray:
    return block.density()[..., block.basis.L // 2 + 1:].sum(axis=-1)


def _doublons(block: StateBlock) -> np.ndarray:
    p = block.probabilities
    return p.reshape(p.shape[:-2] + (-1,)) @ block.basis.doublon_counts


def _norm(block: StateBlock) -> np.ndarray:
    return np.linalg.norm(block.amplitudes, axis=-1)


def _expectation_column(op: SparseHamiltonian):
    def column(block: StateBlock) -> np.ndarray:
        return op.expectations(block.amplitudes)
    return column


_UNBOUND = {"n_after": _after_barrier, "n_total": _n_total,
            "norm": _norm, "doublon_count": _doublons}


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


def time_average(times, values, T: float):
    """Trapezoid-rule average over [0, T] of a sampled column (n,), as a float,
    or of each row of a (columns, n) array, as an array.

    The grid must cover [0, T]; samples beyond T are ignored.  A column is
    averaged as a one-row array, so its average does not depend on the rows
    it comes with.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not T > 0:
        raise ParameterError(f"averaging window T={T} must be positive")
    keep = times <= T * (1 + 1e-12)
    tt = times[keep]
    if len(tt) < 2 or tt[-1] < T * (1 - 1e-9):
        raise ParameterError(f"trajectory covers [0, {times[-1] if len(times) else 0}], need [0, {T}]")
    # row-major rows: each row's sum is then the same pairwise sum as a 1-d array's
    rows = np.ascontiguousarray(np.atleast_2d(values)[:, keep])
    avg = np.trapezoid(rows, tt, axis=-1) / (tt[-1] - tt[0])
    return float(avg[0]) if values.ndim == 1 else avg


def trap_time(times, values, threshold: float = 0.01):
    """First sampled time where a column (n,) strictly exceeds threshold, None
    if never; or that time for each row of a (columns, n) array, NaN if never."""
    if not threshold > 0:
        raise ParameterError(f"threshold={threshold} must be positive")
    hits = np.atleast_2d(np.asarray(values)) > threshold
    # a row without a hit stops at the appended True and reads the appended NaN
    hits = np.concatenate([hits, np.ones(hits.shape[:-1] + (1,), dtype=bool)], axis=-1)
    first = np.append(np.asarray(times, dtype=np.float64), np.nan)[hits.argmax(axis=-1)]
    if np.ndim(values) > 1:
        return first
    return None if np.isnan(first[0]) else float(first[0])
