import numpy as np
import pytest

from fermichain.basis import popcount, product_basis
from fermichain.errors import ParameterError
from fermichain.evolution import DensePropagator
from fermichain.hamiltonian import (
    HubbardParams,
    barrier_potential,
    build_hamiltonian,
    jstar_site,
    total_spin_squared,
)
from fermichain.observables import (
    StateBlock,
    density_profile,
    doublon_count,
    energy,
    n_after,
    norm,
    observable_functions,
    s_squared,
    site_density,
    time_average,
    total_number,
    trap_time,
)
from fermichain.states import StateVector, doublon_at, mirror_state, singlet_pair


def test_doublon_densities():
    basis = product_basis(4, 1, 1)
    psi = doublon_at(basis, 1)
    assert site_density(psi, 1) == 2.0
    assert all(site_density(psi, j) == 0.0 for j in (2, 3, 4))
    assert site_density(psi, 1, "up") == 1.0
    assert doublon_count(psi) == 1.0
    assert total_number(psi) == 2.0
    with pytest.raises(ParameterError):
        site_density(psi, 5)


def test_singlet_densities():
    basis = product_basis(4, 1, 1)
    psi = singlet_pair(basis, 1, 2)
    assert abs(site_density(psi, 1) - 1.0) <= 1e-15
    assert abs(site_density(psi, 2) - 1.0) <= 1e-15
    assert abs(doublon_count(psi)) <= 1e-15


def test_number_conservation_along_run():
    basis = product_basis(6, 2, 1)
    V = barrier_potential(6, 10.0, "a")
    H = build_hamiltonian(HubbardParams(L=6, J=1.0, U=4.0, V=V), basis)
    prop = DensePropagator(H)
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[0] = 1.0
    for t in np.linspace(0, 25, 26):
        psi = StateVector(basis, prop.advance(psi0, t))
        profile = density_profile(psi)
        assert abs(profile.sum() - 3.0) <= 1e-10
        assert np.all(profile >= -1e-12) and np.all(profile <= 2 + 1e-12)
        up = density_profile(psi, "up")
        assert np.all(up >= -1e-12) and np.all(up <= 1 + 1e-12)


def test_n_after_examples():
    basis = product_basis(6, 1, 1)
    psi = doublon_at(basis, 1)
    assert n_after(psi) == 0.0
    assert n_after(mirror_state(basis, psi)) == 2.0

    basis4 = product_basis(4, 1, 1)
    psi4 = doublon_at(basis4, 3)
    assert n_after(psi4) == site_density(psi4, 4)

    with pytest.raises(ParameterError):
        n_after(doublon_at(product_basis(5, 1, 1), 1))


def test_mirror_covariance_of_densities():
    # <n_j> under (V, psi0) equals <n_{L+1-j}> under (mirrored V, mirrored psi0)
    L = 6
    basis = product_basis(L, 1, 1)
    psi0 = singlet_pair(basis, 1, 2)
    V = barrier_potential(L, 10.0, "a")
    H_fwd = build_hamiltonian(HubbardParams(L=L, J=1.0, U=2.0, V=V), basis)
    H_mir = build_hamiltonian(HubbardParams(L=L, J=1.0, U=2.0, V=V[::-1].copy()), basis)
    fwd = DensePropagator(H_fwd)
    mir = DensePropagator(H_mir)
    psi0_m = mirror_state(basis, psi0)
    for t in (0.0, 3.0, 11.0, 27.0):
        a = density_profile(StateVector(basis, fwd.advance(psi0.amplitudes, t)))
        b = density_profile(StateVector(basis, mir.advance(psi0_m.amplitudes, t)))
        assert np.max(np.abs(a - b[::-1])) <= 1e-10


def _loop_reference(basis, amps, H, s2):
    """Expected values of one state by a loop over its configurations."""
    up, down = np.zeros(basis.L), np.zeros(basis.L)
    doublons = 0.0
    for g, a in enumerate(amps):
        mu, md = basis.config(g)
        p = abs(a) ** 2
        doublons += p * popcount(mu & md)
        for j in range(basis.L):
            up[j] += p * (mu >> j & 1)
            down[j] += p * (md >> j & 1)
    total = up + down
    return {
        "n_3": total[2], "n_up_1": up[0], "n_down_L": down[-1], "n_h2": total[3],
        "n_after": total[basis.L // 2 + 1:].sum(), "n_total": total.sum(),
        "norm": np.linalg.norm(amps), "doublon_count": doublons,
        "energy": np.vdot(amps, H.to_dense() @ amps).real,
        "s_squared": np.vdot(amps, s2.to_dense() @ amps).real,
    }


def test_block_observables_match_state_functions():
    L = 6
    basis = product_basis(L, 2, 1)
    H = build_hamiltonian(HubbardParams(L=L, J=1.0, U=4.0, V=barrier_potential(L, 10.0, "a")),
                          basis)
    s2 = total_spin_squared(basis)
    tokens = ["n_3", "n_up_1", "n_down_L", "n_h2", "n_after", "n_total", "norm",
              "doublon_count", "energy", "s_squared"]
    fns = observable_functions(tokens, basis, H=H, jstar=jstar_site(L, 10.0, "a"))
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(7, basis.dim)) + 1j * rng.normal(size=(7, basis.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    columns = {name: fn(StateBlock(basis, amps)) for name, fn in fns.items()}
    for row, v in enumerate(amps):
        psi = StateVector(basis, v)
        state = {
            "n_3": site_density(psi, 3), "n_up_1": site_density(psi, 1, "up"),
            "n_down_L": density_profile(psi, "down")[-1], "n_h2": site_density(psi, 4),
            "n_after": n_after(psi), "n_total": total_number(psi), "norm": norm(psi),
            "doublon_count": doublon_count(psi), "energy": energy(psi, H),
            "s_squared": s_squared(psi, s2),
        }
        reference = _loop_reference(basis, v, H, s2)
        for name, col in columns.items():
            assert abs(col[row] - state[name]) <= 1e-13, name
            assert abs(col[row] - reference[name]) <= 1e-12, name


def test_time_average_examples():
    times = np.linspace(0, 2.0, 201)
    assert abs(time_average(times, np.full_like(times, 3.25), 2.0) - 3.25) <= 1e-14

    times = np.linspace(0, np.pi, 3001)
    vals = np.sin(times) ** 2
    assert abs(time_average(times, vals, np.pi) - 0.5) <= 1e-6

    with pytest.raises(ParameterError):
        time_average(np.linspace(0, 1, 11), np.zeros(11), 2.0)  # grid too short
    with pytest.raises(ParameterError):
        time_average(times, vals, -1.0)

    # samples beyond T are ignored
    times = np.linspace(0, 2 * np.pi, 6001)
    assert abs(time_average(times, np.sin(times) ** 2, np.pi) - 0.5) <= 1e-6


def test_trap_time_examples():
    assert trap_time([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]) is None
    assert trap_time([0.0, 1.0, 2.0], [0.0, 0.005, 0.02]) == 2.0
    assert trap_time([0.0, 1.0], [0.02, 0.0], threshold=0.01) == 0.0
    with pytest.raises(ParameterError):
        trap_time([0.0], [0.0], threshold=0.0)
