import numpy as np
import pytest

from fermichain.basis import mirror_mask, product_basis
from fermichain.errors import ParameterError
from fermichain.evolution import DensePropagator
from fermichain.hamiltonian import HubbardParams, build_hamiltonian, total_spin_squared
from fermichain.observables import StateBlock
from fermichain.states import (
    doublon_at,
    doublon_plus_up,
    from_amplitudes,
    mirror_state,
    singlet_pair,
    single_particle_at,
    triplet_pair,
)


def _random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return from_amplitudes(basis, amps / np.linalg.norm(amps))


def test_doublon_examples():
    basis = product_basis(4, 1, 1)
    psi = doublon_at(basis, 1)
    assert abs(psi.norm() - 1.0) <= 1e-15
    assert psi.amplitudes[basis.index(0b0001, 0b0001)] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1

    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=10.0, V=np.zeros(4)), basis)
    assert abs(H.expectations(psi.amplitudes[None])[0] - 10.0) <= 1e-12

    mirrored = mirror_state(basis, psi)
    assert np.allclose(mirrored.amplitudes, doublon_at(basis, 4).amplitudes)


def test_pair_states():
    basis = product_basis(6, 1, 1)
    s2 = total_spin_squared(basis)
    singlet = singlet_pair(basis, 1, 2)
    triplet = triplet_pair(basis, 1, 2)
    assert abs(singlet.norm() - 1.0) <= 1e-15
    assert abs(triplet.norm() - 1.0) <= 1e-15
    got = s2.expectations(np.array([singlet.amplitudes, triplet.amplitudes]))
    assert np.all(np.abs(got - [0.0, 2.0]) <= 1e-12)
    assert abs(singlet.overlap(triplet)) <= 1e-15
    with pytest.raises(ParameterError):
        singlet_pair(basis, 2, 2)
    with pytest.raises(ParameterError):
        singlet_pair(product_basis(6, 2, 1), 1, 2)


def test_doublon_plus_up():
    basis = product_basis(4, 2, 1)
    assert basis.dim == 24
    psi = doublon_plus_up(basis, 1, 4)
    assert np.count_nonzero(psi.amplitudes) == 1
    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=10.0, V=np.zeros(4)), basis)
    assert abs(H.expectations(psi.amplitudes[None])[0] - 10.0) <= 1e-12
    with pytest.raises(ParameterError):
        doublon_plus_up(basis, 2, 2)
    with pytest.raises(ParameterError):
        doublon_plus_up(product_basis(4, 1, 1), 1, 4)


def test_mirror_is_involution_on_random_states():
    for n_up, n_down, seed in [(1, 1, 0), (2, 1, 1), (2, 2, 2), (3, 2, 3)]:
        basis = product_basis(5, n_up, n_down)
        psi = _random_state(basis, seed)
        back = mirror_state(basis, mirror_state(basis, psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-14


def test_single_particle_mirror_reverses_amplitudes():
    L = 7
    basis = product_basis(L, 1, 0)
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=L) + 1j * rng.normal(size=L)
    coeffs /= np.linalg.norm(coeffs)
    amps = np.zeros(basis.dim, dtype=complex)
    for site in range(1, L + 1):
        amps[basis.index(1 << (site - 1), 0)] = coeffs[site - 1]
    mirrored = mirror_state(basis, from_amplitudes(basis, amps))
    for site in range(1, L + 1):
        assert mirrored.amplitudes[basis.index(1 << (site - 1), 0)] == coeffs[L - site]


def test_mirror_occupations_reflect():
    basis = product_basis(6, 2, 1)
    psi = _random_state(basis, 9)
    mirrored = mirror_state(basis, psi)
    profiles = StateBlock(basis, np.array([psi.amplitudes, mirrored.amplitudes])).density()
    assert np.allclose(profiles[1], profiles[0][::-1], atol=1e-14)


def test_mirror_commutes_with_symmetric_hamiltonian():
    basis = product_basis(4, 1, 1)
    V = np.array([0.0, 7.0, 7.0, 0.0])  # reflection-symmetric barrier
    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=2.5, V=V), basis)
    psi = _random_state(basis, 5)
    prop = DensePropagator(H)
    t = 13.0
    lhs = mirror_state(basis, from_amplitudes(basis, prop.advance(psi.amplitudes, t)))
    rhs = prop.advance(mirror_state(basis, psi).amplitudes, t)
    assert np.linalg.norm(lhs.amplitudes - rhs) <= 1e-10


def test_from_amplitudes_validation():
    basis = product_basis(4, 1, 1)
    with pytest.raises(ParameterError):
        from_amplitudes(basis, np.ones(basis.dim))  # badly normalized
    with pytest.raises(ParameterError):
        from_amplitudes(basis, np.zeros(3))


def test_single_particle_at():
    basis = product_basis(5, 1, 0)
    psi = single_particle_at(basis, 3)
    assert psi.amplitudes[basis.index(0b00100, 0)] == 1.0
    with pytest.raises(ParameterError):
        single_particle_at(product_basis(5, 1, 1), 3)
