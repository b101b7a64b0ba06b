"""Hubbard-chain Hamiltonians, asymmetric barrier potentials, and the total-spin operator.

All energies are in units of the hopping amplitude J and times in 1/J
(hbar = 1); chains are open (hopping sum runs over bonds 1..L-1 only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ._kernels import assemble_hubbard, csr_matvec
from .basis import ProductBasis, enumerate_sector, popcount, site_bit
from .errors import CapacityError, ParameterError

DENSE_CAP = 4096  # largest dimension handled by dense eigendecompositions
_TERMS_PER_PRODUCT = 1 << 16  # (state, nonzero) terms per block product: bounds its memory


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
    """Real-symmetric sparse matrix in canonical CSR form.

    Both triangles are stored explicitly with column indices sorted within
    each row; assembly is deterministic, so identical inputs yield
    bit-identical arrays.  Instances are immutable and safe to share across
    threads.
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return csr_matvec(self.indptr, self.indices, self.data, x)

    def expectation(self, amplitudes: np.ndarray) -> float:
        return float(self.expectations(amplitudes[None])[0])

    @cached_property
    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    def expectations(self, block: np.ndarray) -> np.ndarray:
        """<psi|A|psi> for each row psi of an (n, dim) block: the sum over stored
        entries of A_rc conj(psi_r) psi_c, a few states at a time."""
        out = np.empty(len(block))
        step = max(1, _TERMS_PER_PRODUCT // max(self.nnz, 1))
        for lo in range(0, len(block), step):
            rows = block[lo:lo + step]
            terms = (rows[:, self._rows].conj() * rows[:, self.indices]).real
            out[lo:lo + step] = (terms * self.data).sum(axis=1)
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            sl = slice(self.indptr[i], self.indptr[i + 1])
            out[i, self.indices[sl]] = self.data[sl]
        return out

    @cached_property
    def inf_norm(self) -> float:
        """Maximum absolute row sum; an upper bound on the spectral radius."""
        if self.nnz == 0:
            return 0.0
        sums = np.zeros(self.dim)
        np.add.at(sums, np.repeat(np.arange(self.dim), np.diff(self.indptr)), np.abs(self.data))
        return float(sums.max())


def _csr_from_dense(matrix: np.ndarray, basis: ProductBasis | None = None) -> SparseHamiltonian:
    rows, cols = np.nonzero(matrix)
    indptr = np.zeros(matrix.shape[0] + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=matrix.shape[0]))
    return SparseHamiltonian(
        indptr=indptr,
        indices=cols.astype(np.int64),
        data=matrix[rows, cols].astype(np.float64),
        basis=basis,
    )


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


def build_hamiltonian(params: HubbardParams, basis: ProductBasis) -> SparseHamiltonian:
    """Assemble the chain Hamiltonian on a fixed (N_up, N_down) sector."""
    if basis.L != params.L:
        raise ParameterError(f"basis has L={basis.L}, params have L={params.L}")
    indptr, indices, data = assemble_hubbard(
        params.L, basis.up.masks, basis.down.masks,
        params.hop_up, params.hop_down, params.U, params.V,
    )
    return SparseHamiltonian(indptr=indptr, indices=indices, data=data, basis=basis)


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

    S^+ maps the sector to (N_up+1, N_down-1), so S^- S^+ is sector-diagonal;
    the combination avoids building the sector-mixing S_x, S_y.
    """
    if basis.dim > DENSE_CAP:
        raise CapacityError(f"S^2 construction capped at dim {DENSE_CAP}, got {basis.dim}")
    L = basis.L
    n_up, n_down = basis.up.N, basis.down.N
    sz = 0.5 * (n_up - n_down)
    sq = np.zeros((basis.dim, basis.dim))
    if n_down >= 1 and n_up < L:
        up_t = enumerate_sector(L, n_up + 1)
        down_t = enumerate_sector(L, n_down - 1)
        splus = np.zeros((up_t.dim * down_t.dim, basis.dim))
        for idn, md in enumerate(basis.down.masks):
            md = int(md)
            for site in range(1, L + 1):
                bit = site_bit(site)
                if not md & bit:
                    continue
                below = bit - 1
                md2 = md ^ bit
                col_d = down_t.index_of[md2]
                par_d = popcount(md & below)
                for iu, mu in enumerate(basis.up.masks):
                    mu = int(mu)
                    if mu & bit:
                        continue
                    sign = -1 if (n_up + par_d + popcount(mu & below)) & 1 else 1
                    row = up_t.index_of[mu | bit] * down_t.dim + col_d
                    splus[row, iu * basis.down.dim + idn] = sign
        sq = splus.T @ splus
    sq[np.diag_indices_from(sq)] += sz * (sz + 1.0)
    return _csr_from_dense(sq, basis=basis)
