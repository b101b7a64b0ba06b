import math

import numpy as np
import pytest

from fermichain.basis import (
    enumerate_sector,
    mirror_mask,
    popcount,
    product_basis,
    reorder_sign,
)
from fermichain.errors import ParameterError


def test_enumerate_examples():
    sector = enumerate_sector(4, 1)
    assert sector.masks.tolist() == [0b0001, 0b0010, 0b0100, 0b1000]
    assert enumerate_sector(4, 2).dim == 6
    assert enumerate_sector(20, 1).dim == 20


@pytest.mark.parametrize("L", range(1, 13))
def test_enumerate_bijection(L):
    for N in range(L + 1):
        sector = enumerate_sector(L, N)
        assert sector.dim == math.comb(L, N)
        assert np.all(np.diff(sector.masks) > 0)
        assert all(popcount(int(m)) == N for m in sector.masks)
        assert all(int(m) >> L == 0 for m in sector.masks)
        assert sector.index(sector.masks).tolist() == list(range(sector.dim))
        assert all(sector.index(int(m)) == k for k, m in enumerate(sector.masks))


@pytest.mark.parametrize("L,N", [(4, -1), (4, 5), (0, 0), (63, 1)])
def test_enumerate_rejects_bad_parameters(L, N):
    with pytest.raises(ParameterError):
        enumerate_sector(L, N)


def test_product_basis_dimensions():
    basis = product_basis(6, 2, 3)
    assert basis.dim == math.comb(6, 2) * math.comb(6, 3)
    assert basis.L == 6
    g = basis.index(0b000011, 0b000111)
    assert basis.config(g) == (0b000011, 0b000111)


def test_mirror_examples():
    assert mirror_mask(4, 0b0001) == 0b1000
    assert mirror_mask(6, 0b000011) == 0b110000
    assert mirror_mask(4, 0b0110) == 0b0110


def test_mirror_involution():
    rng = np.random.default_rng(11)
    for L in range(1, 13):
        for mask in rng.integers(0, 1 << L, size=50):
            mask = int(mask)
            assert mirror_mask(L, mirror_mask(L, mask)) == mask
            assert popcount(mirror_mask(L, mask)) == popcount(mask)


def test_reorder_sign_is_reversal_parity():
    # reversing k operators costs k(k-1)/2 transpositions
    assert [reorder_sign(k) for k in range(6)] == [1, 1, -1, -1, 1, 1]
