"""Hubbard-chain Hamiltonians, asymmetric barrier potentials, and the total-spin operator.

All energies are in units of the hopping amplitude J and times in 1/J
(hbar = 1); chains are open (hopping sum runs over bonds 1..L-1 only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .basis import ProductBasis, enumerate_sector
from .errors import NumericalError, ParameterError

DENSE_CAP = 4096  # largest dimension handled by dense eigendecompositions
# (state, stored entry) terms per chunk of an expectation; on a dim-400 stack
# 2^17, whose chunks hold MB-sized temporaries, ran about 3x slower
_TERMS_PER_PRODUCT = 1 << 15


class BarrierOrientation(Enum):
    """Which central site carries the full barrier height h.

    A: full height at L/2, half height at L/2+1 (a left-incident particle
    meets the steep side first).  B is the mirror image.
    """

    A = "a"
    B = "b"

    @classmethod
    def parse(cls, value) -> "BarrierOrientation":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ParameterError(f"orientation must be 'a' or 'b', got {value!r}") from None


@dataclass(frozen=True, eq=False)
class HubbardParams:
    """Couplings of the chain Hamiltonian.

    j_up / j_down override the hopping amplitude per species (used to freeze
    one species entirely, e.g. j_down=0); both default to J.
    """

    L: int
    J: float
    U: float
    V: np.ndarray
    j_up: float | None = None
    j_down: float | None = None

    def __post_init__(self):
        if self.L < 1:
            raise ParameterError(f"L={self.L} must be positive")
        if not self.J > 0:
            raise ParameterError(f"J={self.J} must be positive")
        if not np.isfinite(self.U):
            raise ParameterError(f"U={self.U} must be finite")
        V = np.ascontiguousarray(self.V, dtype=np.float64)
        if V.shape != (self.L,):
            raise ParameterError(f"V has shape {V.shape}, expected ({self.L},)")
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
    stores (nnz,).  Instances are immutable and safe to share across threads.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    basis: ProductBasis | None = None

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
        """A @ x along the last axis of a complex array x; rows without entries give 0.

        One matrix acts on every vector of x.  Matrix r of a stack acts on
        x[r], of shape (dim,) or (n, dim); a single vector (dim,) meets every
        matrix of the stack.
        """
        x = np.asarray(x, dtype=np.complex128)
        data = self.data.reshape(self.data.shape[:-1] + (1,) * (x.ndim - self.data.ndim) + (-1,))
        sums = np.add.reduceat(data * x.take(self.indices, axis=-1), self._starts, axis=-1)
        if sums.shape[-1] == self.dim:
            return sums
        out = np.zeros(sums.shape[:-1] + (self.dim,), dtype=np.complex128)
        out[..., self._nonempty] = sums
        return out

    @cached_property
    def _rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    @cached_property
    def _nonempty(self) -> np.ndarray:
        return np.flatnonzero(np.diff(self.indptr))

    @cached_property
    def _starts(self) -> np.ndarray:
        """First stored entry of every row that has one."""
        return self.indptr[self._nonempty]

    @cached_property
    def _upper(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows and columns of the stored entries on and above the diagonal, and
        their weights in a quadratic form: the value, doubled off the diagonal,
        each repeated for the real and imaginary part."""
        keep = self._rows <= self.indices
        rows, cols = self._rows[keep], self.indices[keep]
        weights = self.data[..., keep] * np.where(rows < cols, 2.0, 1.0)
        return rows, cols, np.repeat(weights, 2, axis=-1)[..., None]

    def expectations(self, block: np.ndarray) -> np.ndarray:
        """<psi|A|psi> for each state psi of an (n, dim) block, or of a (k, n, dim)
        block against a stack (run r under matrix r), a few states at a time.

        A is real symmetric, so the form reads only the stored upper triangle:
        sum_r A_rr |psi_r|^2 + sum_{r<c} 2 A_rc (Re psi_r Re psi_c + Im psi_r Im psi_c),
        one product of gathered amplitude pairs and one matrix-vector product
        with the weights; no matvec."""
        rows, cols, weights = self._upper
        out = np.empty(block.shape[:-1])
        step = max(1, _TERMS_PER_PRODUCT // (max(self.nnz, 1) * math.prod(block.shape[:-2])))
        for lo in range(0, block.shape[-2], step):
            part = np.asarray(block[..., lo:lo + step, :], dtype=np.complex128)
            pairs = part.take(rows, axis=-1).view(np.float64)
            pairs *= part.take(cols, axis=-1).view(np.float64)
            out[..., lo:lo + step] = (pairs @ weights)[..., 0]
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[..., self._rows, self.indices] = self.data
        return out

    @cached_property
    def inf_norm(self) -> float:
        """Maximum absolute row sum (over every matrix of a stack); an upper
        bound on the spectral radius."""
        if self.nnz == 0:
            return 0.0
        sums = np.zeros(self.data.shape[:-1] + (self.dim,))
        np.add.at(sums, (..., self._rows), np.abs(self.data))
        return float(sums.max())


def _csr(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
         basis: ProductBasis | None) -> SparseHamiltonian:
    """Canonical CSR from (row, col, value) triplets with unique (row, col) pairs;
    vals of shape (k, nnz) give a stack over the one pattern."""
    order = np.argsort(rows * dim + cols)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=dim))
    return SparseHamiltonian(indptr=indptr, indices=cols[order], data=vals[..., order],
                             basis=basis)


def barrier_potential(L: int, h: float, orientation) -> np.ndarray:
    """Two-site asymmetric barrier on the central bond of an even chain.

    Orientation A puts height h at site L/2 and h/2 at L/2+1; B swaps them.
    """
    orientation = BarrierOrientation.parse(orientation)
    if L % 2 or L < 4:
        raise ParameterError(f"barrier needs an even chain with L >= 4, got L={L}")
    if h < 0:
        raise ParameterError(f"barrier height h={h} must be non-negative")
    V = np.zeros(L)
    if orientation is BarrierOrientation.A:
        V[L // 2 - 1] = h
        V[L // 2] = h / 2
    else:
        V[L // 2 - 1] = h / 2
        V[L // 2] = h
    return V


def jstar_site(L: int, h: float, orientation) -> int:
    """Site whose potential equals h/2 (the resonant-trapping site)."""
    orientation = BarrierOrientation.parse(orientation)
    if L % 2 or L < 4:
        raise ParameterError(f"barrier needs an even chain with L >= 4, got L={L}")
    if not h > 0:
        raise ParameterError("j* is undefined for a zero barrier")
    return L // 2 + 1 if orientation is BarrierOrientation.A else L // 2


def _species_hops(L: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All nearest-neighbor moves within one species: (source, target) index pairs."""
    src, dst = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for j in range(L - 1):
        pair = np.int64(3) << j
        idx = np.flatnonzero(np.bitwise_count(masks & pair) == 1)
        src.append(idx)
        dst.append(np.searchsorted(masks, masks[idx] ^ pair))
    return np.concatenate(src), np.concatenate(dst)


def build_hamiltonian(params, basis: ProductBasis) -> SparseHamiltonian:
    """Assemble the chain Hamiltonian on a fixed (N_up, N_down) sector.

    Terms: -hop_up (-hop_down) nearest-neighbor hops within the up (down)
    species, open boundaries; on the diagonal U per doubly occupied site plus
    the potential V dotted with the total site occupations, accumulated
    site-ascending so identical inputs give bit-identical arrays.  params is
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
    L = basis.L
    up, down = basis.up.masks, basis.down.masks
    du, dd = len(up), len(down)
    U = np.array([float(p.U) for p in stack])[:, None, None]
    V = np.array([p.V for p in stack])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry raises below
        diag = U * np.bitwise_count(up[:, None] & down[None, :]).astype(np.float64)
        for j in range(L):
            bu = ((up >> j) & 1).astype(np.float64)
            bd = ((down >> j) & 1).astype(np.float64)
            diag += V[:, j, None, None] * (bu[:, None] + bd[None, :])

    su, tu = _species_hops(L, up)
    sd, td = _species_hops(L, down)
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
    return _csr(basis.dim, rows, cols, vals[0] if single else vals, basis)


def build_single_particle(L: int, J: float, V) -> np.ndarray:
    """One-particle chain Hamiltonian: tridiagonal with diagonal V and off-diagonal -J."""
    V = np.ascontiguousarray(V, dtype=np.float64)
    if V.shape != (L,):
        raise ParameterError(f"V has shape {V.shape}, expected ({L},)")
    H = np.diag(V)
    off = np.full(L - 1, -float(J))
    H += np.diag(off, 1) + np.diag(off, -1)
    return H


def build_fk_hamiltonian(L: int, J: float, U: float, h: float, orientation) -> np.ndarray:
    """Effective one-particle Hamiltonian seen by the mobile species when the
    other species is pinned at site 1: the barrier potential plus U at site 1."""
    V = barrier_potential(L, h, orientation)
    V[0] += U
    return build_single_particle(L, J, V)


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
        up_t, down_t = enumerate_sector(L, n_up + 1).masks, enumerate_sector(L, n_down - 1).masks
        mu, md = basis.up.masks, basis.down.masks
        for j in range(L):
            bit = np.int64(1) << j
            iu, idn = np.flatnonzero((mu & bit) == 0), np.flatnonzero(md & bit)
            rows.append((np.searchsorted(up_t, mu[iu] | bit)[:, None] * len(down_t)
                         + np.searchsorted(down_t, md[idn] ^ bit)).ravel())
            cols.append((iu[:, None] * basis.down.dim + idn).ravel())
            # c_{j,down} passes every up operator and the downs below j, then
            # c+_{j,up} passes the ups below j
            ups_below = np.bitwise_count(mu[iu] & (bit - 1)).astype(np.int64)
            downs_below = np.bitwise_count(md[idn] & (bit - 1)).astype(np.int64)
            signs.append((1 - 2 * ((n_up + ups_below[:, None] + downs_below) & 1)).ravel())
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
    return _csr(dim, keys[keep] // dim, keys[keep] % dim, vals[keep], basis)
