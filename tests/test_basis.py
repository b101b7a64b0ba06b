import math

import numpy as np
import pytest

from fermichain.basis import enumerate_sector, popcount, product_basis
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

