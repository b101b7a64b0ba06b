import numpy as np
import pytest

from fermichain import _kernels
from fermichain.basis import product_basis
from fermichain.hamiltonian import HubbardParams, build_hamiltonian, _csr_from_dense

needs_numba = pytest.mark.skipif(
    len(_kernels.available_backends()) < 2, reason="numba backend unavailable"
)


@pytest.fixture
def restore_backend():
    previous = _kernels.active_backend()
    yield
    _kernels.use_backend(previous)


def _assemble_with(backend, restore=None):
    rng = np.random.default_rng(3)
    basis = product_basis(6, 2, 2)
    params = HubbardParams(L=6, J=1.0, U=3.7, V=rng.uniform(-5, 5, size=6), j_down=0.4)
    _kernels.use_backend(backend)
    H = build_hamiltonian(params, basis)
    return H.indptr, H.indices, H.data


@needs_numba
def test_backends_assemble_identically(restore_backend):
    ref = _assemble_with("numpy")
    got = _assemble_with("numba")
    for a, b in zip(ref, got):
        assert np.array_equal(a, b)  # bit-identical, including float data


@needs_numba
def test_backends_matvec_identically(restore_backend):
    rng = np.random.default_rng(5)
    basis = product_basis(5, 2, 1)
    params = HubbardParams(L=5, J=1.0, U=2.0, V=rng.uniform(-3, 3, size=5))
    H = build_hamiltonian(params, basis)
    x = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    dense = H.to_dense() @ x
    for backend in _kernels.available_backends():
        _kernels.use_backend(backend)
        out = _kernels.csr_matvec(H.indptr, H.indices, H.data, x)
        assert np.allclose(out, dense, atol=1e-13, rtol=0)


def test_matvec_handles_empty_rows(restore_backend):
    matrix = np.zeros((4, 4))
    matrix[1, 2] = 2.5
    matrix[3, 0] = -1.0
    H = _csr_from_dense(matrix)
    x = np.array([1 + 1j, 0, 2.0, -1j])
    for backend in _kernels.available_backends():
        _kernels.use_backend(backend)
        assert np.allclose(H.matvec(x), matrix @ x)
        zero = _csr_from_dense(np.zeros((3, 3)))
        assert np.array_equal(zero.matvec(np.ones(3)), np.zeros(3, dtype=complex))


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        _kernels.use_backend("fortran")
