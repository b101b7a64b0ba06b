"""Occupation-bitmask Fock bases for spin-1/2 fermions on an open chain.

Sites are numbered 1..L in every public interface; bit j-1 of a mask stores
the occupation of site j.  A product configuration (up_mask, down_mask)
stands for the state obtained by applying all spin-up creation operators in
ascending site order, then all spin-down ones:

    |up_mask, down_mask> = (prod_{j in up, ascending} c+_{j,up})
                           (prod_{j in down, ascending} c+_{j,down}) |vacuum>

This spinor ordering is the fixed convention of the whole package.  It never
enters nearest-neighbor hopping within one species (the opposite-spin block
is crossed an even number of times), but the singlet and triplet states of
the states module do depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ParameterError

MAX_SITES = 62  # masks must fit a signed 64-bit word with headroom


def popcount(mask: int) -> int:
    """Number of occupied sites in a scalar mask."""
    return int(mask).bit_count()


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Elementwise popcount for an array of non-negative masks."""
    return np.bitwise_count(masks).astype(np.int64)


def site_bit(site: int) -> int:
    return 1 << (site - 1)


def occupation_matrix(masks: np.ndarray, L: int) -> np.ndarray:
    """(dim, L) float matrix of per-site occupations, sites in ascending order."""
    shifts = np.arange(L, dtype=np.int64)
    return ((masks[:, None] >> shifts) & 1).astype(np.float64)


@dataclass(frozen=True, eq=False)
class SpinSectorBasis:
    """All L-site occupation masks with exactly N particles, sorted ascending."""

    L: int
    N: int
    masks: np.ndarray  # int64, ascending

    @property
    def dim(self) -> int:
        return len(self.masks)

    def index(self, masks):
        """Position of a mask, or of each of an array of masks, among the sorted
        masks; a mask outside the sector raises ParameterError (searchsorted
        alone gives the position it would be inserted at)."""
        idx = np.minimum(np.searchsorted(self.masks, masks), self.dim - 1)
        if (absent := np.ravel(self.masks[idx] != masks)).any():
            mask = int(np.ravel(masks)[absent.argmax()])
            raise ParameterError(f"mask {mask:#b} not in (L={self.L}, N={self.N}) sector")
        return idx

    @cached_property
    def occupations(self) -> np.ndarray:
        occ = occupation_matrix(self.masks, self.L)
        occ.setflags(write=False)
        return occ


def enumerate_sector(L: int, N: int) -> SpinSectorBasis:
    """Enumerate the fixed-particle-number sector of one spin species."""
    if not 1 <= L <= MAX_SITES:
        raise ParameterError(f"site count L={L} outside [1, {MAX_SITES}]")
    if not 0 <= N <= L:
        raise ParameterError(f"particle count N={N} outside [0, L={L}]")
    masks = np.fromiter(
        (sum(1 << p for p in combo) for combo in combinations(range(L), N)),
        dtype=np.int64,
        count=math.comb(L, N),
    )
    masks.sort()
    masks.setflags(write=False)
    return SpinSectorBasis(L=L, N=N, masks=masks)


@dataclass(frozen=True, eq=False)
class ProductBasis:
    """Tensor product of an up and a down sector; global index = iu * down.dim + id."""

    up: SpinSectorBasis
    down: SpinSectorBasis

    def __post_init__(self):
        if self.up.L != self.down.L:
            raise ParameterError(f"mismatched site counts: up L={self.up.L}, down L={self.down.L}")

    @property
    def L(self) -> int:
        return self.up.L

    @property
    def dim(self) -> int:
        return self.up.dim * self.down.dim

    def index(self, up_mask: int, down_mask: int) -> int:
        return self.up.index(up_mask) * self.down.dim + self.down.index(down_mask)

    def config(self, g: int) -> tuple[int, int]:
        """Masks (up, down) of the global index g."""
        iu, idn = divmod(g, self.down.dim)
        return int(self.up.masks[iu]), int(self.down.masks[idn])

    @cached_property
    def doublon_counts(self) -> np.ndarray:
        """(dim,) number of doubly occupied sites per configuration."""
        counts = popcount_array(self.up.masks[:, None] & self.down.masks[None, :])
        counts = counts.astype(np.float64).ravel()
        counts.setflags(write=False)
        return counts


def product_basis(L: int, n_up: int, n_down: int) -> ProductBasis:
    return ProductBasis(up=enumerate_sector(L, n_up), down=enumerate_sector(L, n_down))

