"""Hubbard-chain Hamiltonians, asymmetric barrier potentials, and the total-spin operator.

All energies are in units of the hopping amplitude J and times in 1/J
(hbar = 1); chains are open (hopping sum runs over bonds 1..L-1 only).
build_hamiltonian is the one assembly, of scenarios and verification
alike; its (1, 0) sector is the one-particle chain.  H and S^2 read the
basis's occupations, doublon_counts and index; neither decodes a mask.  A
barrier's orientation is "a" or "b".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .basis import MAX_SITES, ProductBasis, SpinSectorBasis, product_basis, site_bit
from .errors import NumericalError, ParameterError, check_type, real_array

DENSE_CAP = 4096  # largest dimension handled by dense eigendecompositions
# (state, stored entry) terms per chunk of an expectation; H on a (2, 19, 400)
# trap block took 252-264, 216-227, 216-250, 212-219 us at 2^13, 2^14, 2^15, 2^17
_TERMS_PER_PRODUCT = 1 << 15
BARRIER_ORIENTATIONS = ("a", "b")  # which central site carries the full height h


@dataclass(frozen=True, eq=False)
class HubbardParams:
    """Couplings of the chain Hamiltonian.

    j_up / j_down override the hopping amplitude per species (used to freeze
    one species entirely, e.g. j_down=0); both default to J.  Every coupling
    is a finite real number, and J is positive.
    """

    L: int
    J: float
    U: float
    V: np.ndarray
    j_up: float | None = None
    j_down: float | None = None

    def __post_init__(self):
        if isinstance(self.L, bool) or not isinstance(self.L, Integral) or self.L < 1:
            raise ParameterError(f"L={self.L!r} must be a positive integer")
        for name in ("J", "U", "j_up", "j_down"):
            value = getattr(self, name)
            if value is None and name in ("j_up", "j_down"):  # the hop defaults to J
                continue
            check_type(name, value)
            if name == "J" and not value > 0:
                raise ParameterError(f"J={value} must be positive")
            if not math.isfinite(value):
                raise ParameterError(f"{name}={value} must be finite")
        V = real_array("V", self.V)  # a copy: the caller's array stays writable
        if V.shape != (self.L,):
            raise ParameterError(f"V has shape {V.shape}, expected ({self.L},)")
        if not np.isfinite(V).all():
            raise ParameterError(f"V must be finite, got {V.tolist()}")
        V.setflags(write=False)
        object.__setattr__(self, "V", V)

    @property
    def hop_up(self) -> float:
        return self.J if self.j_up is None else self.j_up

    @property
    def hop_down(self) -> float:
        return self.J if self.j_down is None else self.j_down


@dataclass(frozen=True, eq=False)
class SparseHamiltonian:
    """Real-symmetric sparse matrix in canonical CSR form, or a stack of them.

    Both triangles are stored explicitly with column indices sorted within
    each row; assembly is deterministic, so identical inputs yield
    bit-identical arrays.  A stack of k matrices shares one pattern (indptr,
    indices) and stores its values as a (k, nnz) array; a single matrix
    stores (nnz,).  Instances are immutable; products read the slot-major _slots.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.data):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def shape(self) -> tuple:
        """(dim, dim), or (k, dim, dim) for a stack."""
        return self.data.shape[:-1] + (self.dim, self.dim)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x along the last axis of a complex array x, each row summed over
        its entries in column order.

        One matrix acts on every vector of x.  Matrix r of a stack acts on
        x[r], of shape (dim,) or (n, dim); a single vector (dim,) meets every
        matrix of the stack.
        """
        x = np.asarray(x, dtype=np.complex128)
        cols, vals = self._slots
        if x.ndim < self.data.ndim:  # the vector meets every matrix: gather it once per matrix
            x = np.broadcast_to(x, self.data.shape[:-1] + x.shape)
        terms = x.take(cols, axis=-1)
        terms *= vals.reshape(vals.shape[:-2] + (1,) * (x.ndim - self.data.ndim) + vals.shape[-2:])
        return terms.sum(axis=-2)

    @cached_property
    def _rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Entries slot-major, entry s of row r at [s, r]: columns (w, dim) and values
        (..., w, dim) for the longest row's w, padded with column 0 and value 0;
        complex values, so matvec multiplies its gathered terms in place."""
        counts = np.diff(self.indptr)
        slot = np.arange(self.nnz) - np.repeat(self.indptr[:-1], counts)
        width = int(counts.max(initial=0))
        cols = np.zeros((width, self.dim), dtype=np.int64)
        cols[slot, self._rows] = self.indices
        vals = np.zeros(self.data.shape[:-1] + (width, self.dim), dtype=np.complex128)
        vals[..., slot, self._rows] = self.data
        return cols, vals

    def expectations(self, block: np.ndarray) -> np.ndarray:
        """<psi|A psi> for each state psi of an (n, dim) block, or of a (k, n, dim)
        block against a stack (run r under matrix r), a few states at a time."""
        out = np.empty(block.shape[:-1])
        step = max(1, _TERMS_PER_PRODUCT // (max(self.nnz, 1) * math.prod(block.shape[:-2])))
        for lo in range(0, block.shape[-2], step):
            part = block[..., lo:lo + step, :]
            out[..., lo:lo + step] = np.vecdot(part, self.matvec(part)).real
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[..., self._rows, self.indices] = self.data
        return out

    @cached_property
    def inf_norm(self) -> float:
        """Maximum absolute row sum (over every matrix of a stack); an upper
        bound on the spectral radius."""
        return float(np.abs(self._slots[1].real).sum(axis=-2).max(initial=0.0))


def _csr(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> SparseHamiltonian:
    """Canonical CSR from (row, col, value) triplets with unique (row, col) pairs;
    vals of shape (k, nnz) give a stack over the one pattern."""
    order = np.argsort(rows * dim + cols)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=dim))
    return SparseHamiltonian(indptr=indptr, indices=cols[order], data=vals[..., order])


def _barrier_sites(L: int, h: float, orientation: str) -> tuple[int, int]:
    """0-based (full-height, half-height) sites of a barrier of height h on the
    central bond of an even chain: orientation "a" puts the full height at
    site L/2 (a left-incident particle meets the steep side first), "b"
    mirrors it; a chain longer than MAX_SITES, which no basis holds, is refused."""
    check_type("barrier height h", h)
    check_type("barrier chain length L", L, Integral)
    if not 0 <= h < math.inf:
        raise ParameterError(f"barrier height h={h} must be non-negative and finite")
    if not isinstance(orientation, str) or orientation not in BARRIER_ORIENTATIONS:
        raise ParameterError(f"orientation must be 'a' or 'b', got {orientation!r}")
    if L % 2 or not 4 <= L <= MAX_SITES:
        raise ParameterError(f"barrier needs an even chain with 4 <= L <= {MAX_SITES}, got L={L}")
    return (L // 2 - 1, L // 2) if orientation == "a" else (L // 2, L // 2 - 1)


def barrier_potential(L: int, h: float, orientation: str) -> np.ndarray:
    """Two-site asymmetric barrier: height h at the full-height site, h/2 at
    the other (see _barrier_sites)."""
    full, half = _barrier_sites(L, h, orientation)
    V = np.zeros(L)
    V[full] = h
    V[half] = h / 2
    return V


def jstar_site(L: int, h: float, orientation: str) -> int:
    """Site whose potential equals h/2 (the resonant-trapping site)."""
    _, half = _barrier_sites(L, h, orientation)
    if not h > 0:
        raise ParameterError("j* is undefined for a zero barrier")
    return half + 1


def _species_hops(sector: SpinSectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """All nearest-neighbor moves within one species: (source, target) index pairs."""
    src, dst = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    occ = sector.occupations
    for j in range(1, sector.L):
        idx = np.flatnonzero(occ[:, j - 1] != occ[:, j])  # exactly one of sites j, j+1 occupied
        src.append(idx)
        dst.append(sector.index(sector.masks[idx] ^ (site_bit(j) | site_bit(j + 1))))
    return np.concatenate(src), np.concatenate(dst)


def build_hamiltonian(params, basis: ProductBasis) -> SparseHamiltonian:
    """Assemble the chain Hamiltonian on a fixed (N_up, N_down) sector.

    Terms: -hop_up (-hop_down) nearest-neighbor hops within the up (down)
    species, open boundaries; on the diagonal U times basis.doublon_counts plus
    V dotted with the up and down occupations, accumulated site-ascending
    so identical inputs give bit-identical arrays.  params is
    one HubbardParams, or a sequence of them for a stack: the pattern is
    assembled once, the values once per entry.
    """
    single = isinstance(params, HubbardParams)
    stack = [params] if single else list(params)
    if not stack:
        raise ParameterError("a stack needs at least one set of parameters")
    for p in stack:
        if p.L != basis.L:
            raise ParameterError(f"basis has L={basis.L}, params have L={p.L}")
    du, dd = basis.up.dim, basis.down.dim
    occ_u, occ_d = basis.up.occupations, basis.down.occupations
    U = np.array([float(p.U) for p in stack])[:, None]
    V = np.array([p.V for p in stack])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry raises below
        diag = (U * basis.doublon_counts).reshape(len(stack), du, dd)
        for j in range(basis.L):
            diag += V[:, j, None, None] * (occ_u[:, j, None] + occ_d[None, :, j])

    su, tu = _species_hops(basis.up)
    sd, td = _species_hops(basis.down)
    ru, rd = np.arange(du, dtype=np.int64), np.arange(dd, dtype=np.int64)
    g = np.arange(basis.dim, dtype=np.int64)
    rows = np.concatenate([g, (su[:, None] * dd + rd).ravel(), (ru[:, None] * dd + sd).ravel()])
    cols = np.concatenate([g, (tu[:, None] * dd + rd).ravel(), (ru[:, None] * dd + td).ravel()])
    vals = np.concatenate([
        diag.reshape(len(stack), -1),
        np.repeat([[-float(p.hop_up)] for p in stack], len(su) * dd, axis=1),
        np.repeat([[-float(p.hop_down)] for p in stack], len(sd) * du, axis=1),
    ], axis=1)
    if not np.isfinite(vals).all():
        raise NumericalError("hamiltonian entries are not finite", dimension=basis.dim)
    return _csr(basis.dim, rows, cols, vals[0] if single else vals)


def total_spin_squared(basis: ProductBasis) -> SparseHamiltonian:
    """S^2 restricted to a fixed (N_up, N_down) sector, via S^- S^+ + S_z(S_z + 1).

    S^+ = sum_j c+_{j,up} c_{j,down} maps the sector to (N_up+1, N_down-1),
    so S^- S^+ = (S^+)^T S^+ is sector-diagonal; the combination avoids the
    sector-mixing S_x, S_y.  S^+ is built as (row, col, sign) triplets, one
    pass per site, and the product pairs the triplets that share a row.
    """
    L, dim = basis.L, basis.dim
    n_up, n_down = basis.up.N, basis.down.N
    sz = 0.5 * (n_up - n_down)
    rows, cols, signs = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    if n_down >= 1 and n_up < L:
        target = product_basis(L, n_up + 1, n_down - 1)
        occ_u, occ_d = basis.up.occupations, basis.down.occupations
        # occupied sites below each site, per configuration
        below_u, below_d = ((np.cumsum(o, axis=1) - o).astype(np.int64) for o in (occ_u, occ_d))
        for j in range(L):
            iu, idn = np.flatnonzero(occ_u[:, j] == 0), np.flatnonzero(occ_d[:, j])
            bit = site_bit(j + 1)
            rows.append(target.index(basis.up.masks[iu, None] | bit,
                                     basis.down.masks[idn] ^ bit).ravel())
            cols.append((iu[:, None] * basis.down.dim + idn).ravel())
            # c_{j,down} passes every up operator and the downs below j, then
            # c+_{j,up} passes the ups below j
            signs.append((1 - 2 * ((n_up + below_u[iu, j, None] + below_d[idn, j]) & 1)).ravel())
    rows, cols, signs = (np.concatenate(a) for a in (rows, cols, signs))

    # every pair of S^+ entries in one row r adds S+_{r,a} S+_{r,b} to entry (a, b):
    # entry i, in a row group of size z starting at s, pairs with s .. s+z-1
    order = np.argsort(rows, kind="stable")
    cols, signs = cols[order], signs[order]
    starts = np.flatnonzero(np.diff(rows[order], prepend=-1))
    sizes = np.diff(starts, append=len(rows))
    size_of = np.repeat(sizes, sizes)
    first_pair = np.cumsum(size_of) - size_of
    left = np.repeat(np.arange(len(rows)), size_of)
    right = np.arange(len(left)) + np.repeat(np.repeat(starts, sizes) - first_pair, size_of)

    a = np.concatenate([cols[left], np.arange(dim)])
    b = np.concatenate([cols[right], np.arange(dim)])
    v = np.concatenate([signs[left] * signs[right], np.full(dim, sz * (sz + 1.0))])
    keys, inverse = np.unique(a * dim + b, return_inverse=True)
    vals = np.bincount(inverse, weights=v, minlength=len(keys))
    keep = vals != 0
    return _csr(dim, keys[keep] // dim, keys[keep] % dim, vals[keep])
