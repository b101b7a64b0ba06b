"""Measured quantities: site densities, region sums, time averages, trap times."""

from __future__ import annotations

import functools
import math
import numbers
import re

import numpy as np

from .basis import ProductBasis
from .errors import ParameterError, check_type, real_array
from .hamiltonian import SparseHamiltonian, total_spin_squared

TRAP_COLUMN = "n_h2"  # the column a trap-time reduction reads unless told otherwise

# a site density: n_<j>, n_L, n_all, with _up or _down after the n for one spin
_SITE_TOKEN = re.compile(r"n(?:_(up|down))?_(\d+|L|all)")


def columns(tokens, L: int, barrier: bool = True) -> dict[str, tuple]:
    """The columns of observable tokens on an L-site chain, in token order:
    name -> (kind, site, spin); kind is n_site for a site density, else the
    token.  Raises ParameterError on tokens that are not a list, an unknown
    token, a site outside the chain, n_after on an odd chain, n_h2 without a
    barrier, or a column named twice.
    """
    try:
        tokens = [str(token) for token in tokens]
    except TypeError:
        raise ParameterError(f"observable tokens must be a list, got {tokens!r}") from None
    out = {}
    for token in tokens:
        m = _SITE_TOKEN.fullmatch(token)
        if m and m[2] == "all":
            found = {f"{token[:-3]}{j}": ("n_site", j, m[1]) for j in range(1, L + 1)}
        elif m:
            j = L if m[2] == "L" else int(m[2])
            if not 1 <= j <= L:
                raise ParameterError(f"token {token!r}: site {j} outside chain [1, {L}]")
            found = {token: ("n_site", j, m[1])}
        elif token in ("n_after", "n_total", "norm", "doublon_count", "n_h2", "energy",
                       "s_squared"):
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
    """Bind the columns of observable tokens (see columns) to one callable,
    returned as {tuple of the column names, in token order: callable}.

    The callable maps a block of amplitudes (..., n, dim), as a propagator's
    blocks yield it, to the values (..., n, c) of the c columns.  Every
    column but energy and s_squared is diagonal in the occupation basis,
    |psi|^2 . d for one weight vector d over configurations; those weights
    form one table D, (dim, d), and the block's diagonal columns are one
    product |psi|^2 @ D (norm is the square root of the column of ones).
    energy and s_squared are H's and S^2's expectations.  H is required when
    an energy column is requested, jstar when an n_h2 column is: one site in
    [1, L], or one per run of a stack H, when D is (k, dim, d).  An H that
    does not act on the basis is refused.  The S^2 matrix depends only on the
    basis and is built only when requested.
    """
    cols = columns(tokens, basis.L, barrier=jstar is not None)
    if H is not None and (dim := np.shape(H)[-1]) != basis.dim:
        raise ParameterError(f"H acts on dimension {dim}, the basis has dimension {basis.dim}")

    @functools.cache
    def occupations(spin):
        """(dim, L) occupation of every site in every configuration: both species, or one."""
        up = basis.up.occupations[:, None, :] if spin != "down" else 0.0
        down = basis.down.occupations[None, :, :] if spin != "up" else 0.0
        return np.broadcast_to(up + down, (basis.up.dim, basis.down.dim, basis.L)
                               ).reshape(basis.dim, basis.L)

    diagonal, weights, roots, operators = [], [], [], []
    for i, (kind, site, spin) in enumerate(cols.values()):
        if kind in ("energy", "s_squared"):
            if kind == "energy" and H is None:
                raise ParameterError("energy observable requires the Hamiltonian")
            operators.append((i, H if kind == "energy" else total_spin_squared(basis)))
            continue
        diagonal.append(i)
        if kind == "n_site":
            weights.append(occupations(spin)[:, site - 1])
        elif kind == "n_h2":  # (dim,), or (k, dim) with one site per run
            sites = np.asarray(jstar, dtype=object)
            if sites.ndim > 1 or not sites.size or not all(
                    isinstance(j, numbers.Integral) and not isinstance(j, bool)
                    and 1 <= j <= basis.L for j in sites.flat):
                raise ParameterError(f"jstar must be a site in [1, {basis.L}], or one per run "
                                     f"of a stack, got {jstar!r}")
            if sites.ndim and (runs := np.shape(H)[:-2]) != sites.shape:
                raise ParameterError(f"a jstar list needs one site per run of a stack: got "
                                     f"{len(sites)} for {f'{runs[0]} runs' if runs else 'no stack'}")
            weights.append(np.moveaxis(occupations(None)[:, sites.astype(np.int64) - 1], 0, -1))
        elif kind == "n_after":
            weights.append(occupations(None)[:, basis.L // 2 + 1:].sum(axis=-1))
        elif kind == "n_total":
            weights.append(occupations(None).sum(axis=-1))
        elif kind == "doublon_count":
            weights.append(basis.doublon_counts)
        else:  # norm
            roots.append(i)
            weights.append(np.ones(basis.dim))
    table = np.stack(np.broadcast_arrays(*weights), axis=-1) if weights else None

    def values(amplitudes: np.ndarray) -> np.ndarray:
        out = np.empty(amplitudes.shape[:-1] + (len(cols),))
        if diagonal:
            out[..., diagonal] = (amplitudes.real ** 2 + amplitudes.imag ** 2) @ table
            out[..., roots] = np.sqrt(out[..., roots])
        for i, op in operators:
            out[..., i] = op.expectations(amplitudes)
        return out
    return {tuple(cols): values}


def _sampled(times, values) -> tuple[np.ndarray, np.ndarray]:
    """times and values as float arrays, refused unless values hold one sample
    per time along their last axis."""
    times, values = real_array("times", times), real_array("values", values)
    if times.ndim != 1 or values.shape[-1:] != times.shape:
        raise ParameterError(f"values of shape {values.shape} are not sampled on "
                             f"times of shape {times.shape}")
    return times, values


def time_average(times, values, T: float):
    """Trapezoid-rule average over [0, T] of a sampled column (n,), as a float,
    or of each row of a (..., n) array, as an array (...).

    The grid must cover [0, T]; samples beyond T are ignored.  A column is
    averaged as a one-row array, so its average does not depend on the rows
    it comes with.
    """
    times, values = _sampled(times, values)
    check_type("averaging window T", T)
    if not T > 0:
        raise ParameterError(f"averaging window T={T} must be positive")
    keep = times <= T * (1 + 1e-12)
    tt = times[keep]
    if len(tt) < 2 or tt[-1] < T * (1 - 1e-9):
        raise ParameterError(f"trajectory covers [0, {times[-1] if len(times) else 0}], need [0, {T}]")
    # row-major rows: each row's sum is then the same pairwise sum as a 1-d array's
    rows = np.ascontiguousarray(np.atleast_2d(values)[..., keep])
    avg = np.trapezoid(rows, tt, axis=-1) / (tt[-1] - tt[0])
    return float(avg[0]) if values.ndim == 1 else avg


def trap_time(times, values, threshold: float = 0.01):
    """First sampled time where a column (n,) strictly exceeds threshold, None
    if never; or that time for each row of a (..., n) array, NaN if never.
    threshold is positive and finite."""
    check_type("threshold", threshold)
    if not 0 < threshold < math.inf:
        raise ParameterError(f"threshold={threshold} must be positive and finite")
    times, values = _sampled(times, values)
    hits = np.atleast_2d(values) > threshold
    # a row without a hit stops at the appended True and reads the appended NaN
    hits = np.concatenate([hits, np.ones(hits.shape[:-1] + (1,), dtype=bool)], axis=-1)
    first = np.append(times, np.nan)[hits.argmax(axis=-1)]
    if np.ndim(values) > 1:
        return first
    return None if np.isnan(first[0]) else float(first[0])
