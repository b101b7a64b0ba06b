"""Dense full-Fock-space second-quantization oracle for small chains.

Completely independent of the package's assembly path: every operator is an
explicit Jordan-Wigner matrix product on the 4^L-dimensional space.  Modes
are ordered (up sites 1..L, then down sites 1..L); the Fock index of a
configuration is little-endian in the mode order, i.e. index = sum_m n_m 2^m.
"""

from functools import lru_cache, reduce

import numpy as np

from fermichain.hamiltonian import SparseHamiltonian

_ADAG = np.array([[0.0, 0.0], [1.0, 0.0]])  # creation on one mode, |1><0|
_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)


@lru_cache(maxsize=8)
def creation_operators(n_modes: int) -> tuple:
    """Creation matrices c^+_m for m = 0..n_modes-1 (JW strings included)."""
    ops = []
    for m in range(n_modes):
        factors = [_Z] * m + [_ADAG] + [_I2] * (n_modes - m - 1)
        # mode 0 is the least significant index bit, so it is the last kron factor
        ops.append(reduce(np.kron, reversed(factors)))
    return tuple(ops)


def full_hamiltonian(L: int, j_up: float, j_down: float, U: float, V) -> np.ndarray:
    """Chain Hamiltonian on the full 4^L Fock space."""
    cd = creation_operators(2 * L)
    c = [m.T for m in cd]
    dim = 4 ** L
    H = np.zeros((dim, dim))
    for j in range(L - 1):
        H -= j_up * (cd[j] @ c[j + 1] + cd[j + 1] @ c[j])
        H -= j_down * (cd[L + j] @ c[L + j + 1] + cd[L + j + 1] @ c[L + j])
    for j in range(L):
        num_up = cd[j] @ c[j]
        num_down = cd[L + j] @ c[L + j]
        H += U * (num_up @ num_down) + V[j] * (num_up + num_down)
    return H


def full_spin_squared(L: int) -> np.ndarray:
    """Total spin S^2 = (S^+ S^- + S^- S^+) / 2 + S_z^2 on the full 4^L Fock space,
    with S^+ = sum_j c+_{j,up} c_{j,down}."""
    cd = creation_operators(2 * L)
    splus = sum(cd[j] @ cd[L + j].T for j in range(L))
    sz = 0.5 * sum(cd[j] @ cd[j].T - cd[L + j] @ cd[L + j].T for j in range(L))
    return 0.5 * (splus @ splus.T + splus.T @ splus) + sz @ sz


def embed_configuration(L: int, up_sites, down_sites) -> np.ndarray:
    """Full-Fock vector of (prod_asc c+_up)(prod_asc c+_down)|0>.

    Operators are applied right to left, so the creation product is evaluated
    by applying the largest-site operator first.
    """
    cd = creation_operators(2 * L)
    v = np.zeros(4 ** L)
    v[0] = 1.0
    for j in sorted(down_sites, reverse=True):
        v = cd[L + j - 1] @ v
    for j in sorted(up_sites, reverse=True):
        v = cd[j - 1] @ v
    return v


def sector_embedding(L: int, basis) -> np.ndarray:
    """(4^L, dim) matrix whose columns embed the sector configurations in order."""
    cols = []
    for mu in basis.up.masks:
        ups = [j + 1 for j in range(L) if (int(mu) >> j) & 1]
        for md in basis.down.masks:
            downs = [j + 1 for j in range(L) if (int(md) >> j) & 1]
            cols.append(embed_configuration(L, ups, downs))
    return np.array(cols).T


def restricted_hamiltonian(L: int, j_up: float, j_down: float, U: float, V, basis) -> np.ndarray:
    """Full-Fock Hamiltonian projected onto one (N_up, N_down) sector."""
    E = sector_embedding(L, basis)
    return E.T @ full_hamiltonian(L, j_up, j_down, U, V) @ E


def single_particle_hamiltonian(L: int, J: float, V) -> np.ndarray:
    """One-particle chain Hamiltonian, written out: tridiagonal with diagonal V
    and off-diagonal -J."""
    off = np.full(L - 1, -float(J))
    return np.diag(np.asarray(V, dtype=np.float64)) + np.diag(off, 1) + np.diag(off, -1)


def csr_from_dense(matrix: np.ndarray) -> SparseHamiltonian:
    """The package's CSR form of a dense matrix, zero entries dropped."""
    rows, cols = np.nonzero(matrix)
    indptr = np.zeros(matrix.shape[0] + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=matrix.shape[0]))
    return SparseHamiltonian(indptr=indptr, indices=cols.astype(np.int64),
                             data=matrix[rows, cols].astype(np.float64))
