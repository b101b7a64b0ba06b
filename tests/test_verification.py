import numpy as np
import pytest

from fermichain.basis import product_basis
from fermichain.errors import ParameterError
from fermichain.hamiltonian import HubbardParams, barrier_potential, build_hamiltonian
from fermichain.states import named_state
from fermichain.verification import (
    SINGLET_GAP_FLOOR,
    fk_equivalence_residual,
    propagator_mirror_residual,
    run_fk_suite,
    run_suites,
    tunneling_symmetry_gap,
)


def test_mirror_residual_randomized():
    rng = np.random.default_rng(99)
    for _ in range(25):
        L = int(rng.integers(4, 13))
        l_b = int(rng.choice([b for b in range(1, L - 1) if (L - b) % 2 == 0]))
        l_a = (L - l_b) // 2
        V = np.zeros(L)
        V[l_a:l_a + l_b] = rng.uniform(-15, 15, size=l_b)
        a = int(rng.integers(1, l_a + 1))
        c = int(rng.integers(l_a + l_b + 1, L + 1))
        t = float(rng.uniform(0, 50))
        assert propagator_mirror_residual(L, 1.0, V, t, a, c, l_a=l_a, l_b=l_b) <= 1e-10


def test_mirror_residual_symmetric_barrier():
    V = np.array([0.0, 0.0, 6.0, 6.0, 0.0, 0.0])
    assert propagator_mirror_residual(6, 1.0, V, 17.3, 1, 6) <= 1e-12


def test_mirror_residual_t0():
    V = barrier_potential(6, 10.0, "a")
    assert propagator_mirror_residual(6, 1.0, V, 0.0, 1, 6) == 0.0


def test_mirror_residual_region_validation():
    V = barrier_potential(6, 10.0, "a")
    with pytest.raises(ParameterError):
        propagator_mirror_residual(6, 1.0, V, 1.0, 3, 6)  # a inside barrier block
    with pytest.raises(ParameterError):
        propagator_mirror_residual(6, 1.0, V, 1.0, 1, 4)  # c inside barrier block
    bad = V.copy()
    bad[0] = 1.0
    with pytest.raises(ParameterError):
        propagator_mirror_residual(6, 1.0, bad, 1.0, 1, 6)


def test_mirror_identity_reads_the_production_assembly(monkeypatch):
    # one bond's hopping scaled by 1.001 in build_hamiltonian breaks the mirror
    # identity; a check that built its own chain would not see it
    from fermichain import verification

    def skewed(params, basis):
        dense = build_hamiltonian(params, basis).to_dense()
        dense[0, 1] *= 1.001
        dense[1, 0] *= 1.001
        return dense

    V = barrier_potential(6, 10.0, "a")  # a = 1 and c = 5: not a transpose of each other
    assert propagator_mirror_residual(6, 1.0, V, 17.3, 1, 5) <= 1e-10
    monkeypatch.setattr(verification, "build_hamiltonian", skewed)
    assert propagator_mirror_residual(6, 1.0, V, 17.3, 1, 5) > 1e-6


def test_symmetry_gap_noninteracting_doublon():
    times = np.arange(0.0, 30.0 + 1e-9, 0.25)
    basis = product_basis(4, 1, 1)
    params = HubbardParams(L=4, J=1.0, U=0.0, V=barrier_potential(4, 10.0, "a"))
    assert tunneling_symmetry_gap(params, named_state(basis, "doublon", 1), times) <= 1e-9


def test_symmetry_gap_triplet_vs_singlet():
    times = np.arange(0.0, 50.0 + 1e-9, 0.25)
    basis = product_basis(6, 1, 1)
    params = HubbardParams(L=6, J=1.0, U=0.5, V=barrier_potential(6, 10.0, "a"))
    assert tunneling_symmetry_gap(params, named_state(basis, "triplet", 1, 2), times) <= 1e-9
    singlet = named_state(basis, "singlet", 1, 2)
    assert tunneling_symmetry_gap(params, singlet, times) > SINGLET_GAP_FLOOR


def test_symmetry_gap_reads_each_row_of_its_stack(monkeypatch):
    # an assembly that gives every run of a stack run 0's parameters runs
    # orientation a twice; the singlet gap must then vanish
    from fermichain import verification

    def first_row_only(params, basis):
        stack = [params] if isinstance(params, HubbardParams) else list(params)
        return build_hamiltonian([stack[0]] * len(stack), basis)

    times = np.arange(0.0, 50.0 + 1e-9, 0.25)
    basis = product_basis(6, 1, 1)
    params = HubbardParams(L=6, J=1.0, U=0.5, V=barrier_potential(6, 10.0, "a"))
    singlet = named_state(basis, "singlet", 1, 2)
    monkeypatch.setattr(verification, "build_hamiltonian", first_row_only)
    assert tunneling_symmetry_gap(params, singlet, times) <= SINGLET_GAP_FLOOR


def test_symmetry_gap_rejects_leaking_state():
    times = [0.0, 1.0]
    basis = product_basis(6, 1, 1)
    params = HubbardParams(L=6, J=1.0, U=0.0, V=barrier_potential(6, 10.0, "a"))
    with pytest.raises(ParameterError):
        tunneling_symmetry_gap(params, named_state(basis, "doublon", 3), times)  # inside barrier


def test_fk_residual_examples():
    assert fk_equivalence_residual(4, 1.0, 3.0, 20.0, "a", 20.0) <= 1e-10
    assert fk_equivalence_residual(4, 1.0, 3.0, 20.0, "b", 20.0) <= 1e-10
    assert fk_equivalence_residual(4, 1.0, 0.0, 20.0, "a", 10.0) <= 1e-10


def test_fk_effective_potentials_are_not_mirror_images():
    # the one-particle chains seen by the mobile species, the barrier plus U at site 1
    diags = []
    for orientation in ("a", "b"):
        V = barrier_potential(4, 20.0, orientation)
        V[0] += 3.0
        H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=0.0, V=V), product_basis(4, 1, 0))
        diags.append(np.diag(H.to_dense()))
    diag_a, diag_b = diags
    assert not np.allclose(diag_a, diag_b[::-1])


def test_fk_suite_passes():
    results = run_fk_suite()
    assert all(res.passed for res in results)


def test_run_suites_validates_name():
    with pytest.raises(ParameterError):
        run_suites("everything")
