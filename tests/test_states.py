import re

import numpy as np
import pytest

from fermichain.basis import mirror_mask, product_basis
from fermichain.errors import ParameterError
from fermichain.evolution import DensePropagator
from fermichain.hamiltonian import HubbardParams, build_hamiltonian, total_spin_squared
from fermichain.observables import StateBlock
from fermichain.states import (
    ENTRIES,
    check_entries,
    from_amplitudes,
    from_entries,
    mirror_state,
    named_state,
)


def _random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return from_amplitudes(basis, amps / np.linalg.norm(amps))


def test_doublon_examples():
    basis = product_basis(4, 1, 1)
    psi = named_state(basis, "doublon", 1)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-15
    assert psi.amplitudes[basis.index(0b0001, 0b0001)] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1

    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=10.0, V=np.zeros(4)), basis)
    assert abs(H.expectations(psi.amplitudes[None])[0] - 10.0) <= 1e-12

    mirrored = mirror_state(basis, psi)
    assert np.allclose(mirrored.amplitudes, named_state(basis, "doublon", 4).amplitudes)


def test_pair_states():
    basis = product_basis(6, 1, 1)
    s2 = total_spin_squared(basis)
    singlet = named_state(basis, "singlet", 1, 2)
    triplet = named_state(basis, "triplet", 1, 2)
    assert abs(np.linalg.norm(singlet.amplitudes) - 1.0) <= 1e-15
    assert abs(np.linalg.norm(triplet.amplitudes) - 1.0) <= 1e-15
    got = s2.expectations(np.array([singlet.amplitudes, triplet.amplitudes]))
    assert np.all(np.abs(got - [0.0, 2.0]) <= 1e-12)
    assert abs(np.vdot(singlet.amplitudes, triplet.amplitudes)) <= 1e-15
    with pytest.raises(ParameterError):
        named_state(basis, "singlet", 2, 2)
    with pytest.raises(ParameterError):
        named_state(product_basis(6, 2, 1), "singlet", 1, 2)


def test_doublon_plus_up():
    basis = product_basis(4, 2, 1)
    assert basis.dim == 24
    psi = named_state(basis, "doublon_plus_up", 1, 4)
    assert np.count_nonzero(psi.amplitudes) == 1
    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=10.0, V=np.zeros(4)), basis)
    assert abs(H.expectations(psi.amplitudes[None])[0] - 10.0) <= 1e-12
    with pytest.raises(ParameterError):
        named_state(basis, "doublon_plus_up", 2, 2)
    with pytest.raises(ParameterError):
        named_state(product_basis(4, 1, 1), "doublon_plus_up", 1, 4)


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
    psi = named_state(basis, "single_particle", 3)
    assert psi.amplitudes[basis.index(0b00100, 0)] == 1.0
    with pytest.raises(ParameterError):
        named_state(product_basis(5, 1, 1), "single_particle", 3)


@pytest.mark.parametrize("entries, message", [
    ([((1, 1), (2,), 1.0)], "entries[0].up repeats a site: [1, 1]"),
    ([((1,), (2,), 0.6), ((1, 2), (2,), 0.8)], "entries[1] lie in the (2, 1) sector"),
    ([((1,), (2,), 0.6), ((1,), (2,), 0.8)], "entries[1] repeat the configuration of entries[0]"),
    ([((2, 1), (3,), 0.6), ((1, 2), (3,), 0.8)], "repeat the configuration"),  # sites as a set
    ([((1,), (2,), 0.5)], "amplitudes have norm 0.5"),
    ([], "amplitudes have norm 0"),
])
def test_check_entries_refuses_non_states(entries, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        check_entries(entries)


def test_from_entries_refuses_sites_off_the_chain_and_other_sectors():
    basis = product_basis(4, 1, 1)
    for site in (0, 5, 63):
        with pytest.raises(ParameterError, match="outside chain"):
            from_entries(basis, [((site,), (1,), 1.0)])
    # searchsorted gives each of these masks the position of a (1, 1) configuration
    for entries in ([((1, 2), (1,), 1.0)], [((), (1,), 1.0)], [((1,), (1, 2), 1.0)]):
        with pytest.raises(ParameterError, match="not in \\(L=4, N=1\\) sector"):
            from_entries(basis, entries)


def test_from_entries_places_each_amplitude_on_its_configuration():
    basis = product_basis(5, 2, 1)
    entries = [((4, 1), (5,), 0.6), ((2, 3), (2,), 0.8j)]
    psi = from_entries(basis, entries)
    assert psi.amplitudes[basis.index(0b01001, 0b10000)] == 0.6
    assert psi.amplitudes[basis.index(0b00110, 0b00010)] == 0.8j
    assert np.count_nonzero(psi.amplitudes) == 2


def test_named_states_are_their_entry_lists():
    basis = product_basis(6, 1, 1)
    assert np.array_equal(named_state(basis, "singlet", 2, 5).amplitudes,
                          from_entries(basis, ENTRIES["singlet"](2, 5)).amplitudes)
    spectator = product_basis(6, 2, 1)
    psi = named_state(spectator, "doublon_plus_up", doublon_site=4, up_site=2)
    assert psi.amplitudes[spectator.index(0b001010, 0b001000)] == 1.0
    assert np.array_equal(named_state(spectator, "doublon_plus_up", 4, up_site=2).amplitudes,
                          psi.amplitudes)
    with pytest.raises(ParameterError, match=re.escape(f"unknown state kind 'quartet'; "
                                                       f"known: {sorted(ENTRIES)}")):
        named_state(basis, "quartet", 1, 2)


def test_mirror_mask_reflects_arrays():
    masks = product_basis(7, 3, 0).up.masks
    assert mirror_mask(7, masks).tolist() == [mirror_mask(7, int(m)) for m in masks]
    with pytest.raises(ParameterError):
        mirror_mask(3, np.array([0b0111, 0b1000]))


def test_every_constructor_returns_one_read_only_state():
    basis = product_basis(4, 1, 1)
    psi = named_state(basis, "doublon", 2)
    states = [psi, from_entries(basis, ENTRIES["singlet"](1, 2)),
              named_state(basis, "singlet", 1, 2), named_state(basis, "triplet", 1, 2),
              mirror_state(basis, psi), from_amplitudes(basis, psi.amplitudes),
              named_state(product_basis(4, 2, 1), "doublon_plus_up", 1, 2),
              named_state(product_basis(4, 1, 0), "single_particle", 1)]
    for state in states:
        assert isinstance(state, StateBlock) and state.amplitudes.shape == (state.basis.dim,)
        assert not state.amplitudes.flags.writeable
    assert psi.density().tolist() == [0.0, 2.0, 0.0, 0.0]
    assert psi.density("up").tolist() == [0.0, 1.0, 0.0, 0.0]
