import math
import re

import numpy as np
import pytest

from fermichain.basis import MAX_SITES, product_basis
from fermichain.errors import NumericalError, ParameterError
from fermichain.hamiltonian import (
    HubbardParams,
    barrier_potential,
    build_hamiltonian,
    jstar_site,
    total_spin_squared,
)
from fermichain.states import named_state

import fock_oracle
from fock_oracle import csr_from_dense


def test_barrier_shapes():
    assert barrier_potential(4, 10.0, "a").tolist() == [0, 10, 5, 0]
    assert barrier_potential(4, 20.0, "b").tolist() == [0, 10, 20, 0]
    assert barrier_potential(6, 0.0, "a").tolist() == [0, 0, 0, 0, 0, 0]
    with pytest.raises(ParameterError):
        barrier_potential(5, 10.0, "a")
    with pytest.raises(ParameterError):
        barrier_potential(4, -1.0, "a")
    with pytest.raises(ParameterError):
        barrier_potential(4, 1.0, "c")


@pytest.mark.parametrize("orientation", ["A", " a ", "B", "both", None,
                                         np.array(["a"]), np.array(["a", "b"])])
def test_orientation_is_exactly_a_or_b(orientation):
    with pytest.raises(ParameterError, match="orientation must be 'a' or 'b'"):
        barrier_potential(4, 10.0, orientation)
    with pytest.raises(ParameterError, match="orientation must be 'a' or 'b'"):
        jstar_site(4, 10.0, orientation)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -1.0])
def test_barrier_height_must_be_non_negative_and_finite(h):
    with pytest.raises(ParameterError, match="must be non-negative and finite"):
        barrier_potential(4, h, "a")
    with pytest.raises(ParameterError, match="must be non-negative and finite"):
        jstar_site(4, h, "a")


@pytest.mark.parametrize("L, h, message", [
    (4.0, 10.0, "barrier chain length L=4.0 must be an integer"),
    ("4", 10.0, "barrier chain length L='4' must be an integer"),
    (4, "10", "barrier height h='10' must be a real number"),
    (4, None, "barrier height h=None must be a real number"),
])
def test_barrier_arguments_that_are_not_numbers_are_refused(L, h, message):
    # barrier_potential raised a bare TypeError on each, jstar_site returned 3.0 on L = 4.0
    for build in (barrier_potential, jstar_site):
        with pytest.raises(ParameterError, match=re.escape(message)) as refused:
            build(L, h, "a")
        assert type(refused.value) is ParameterError


@pytest.mark.parametrize("L", [MAX_SITES + 2, 10**30])
def test_barrier_on_a_chain_no_basis_holds_is_refused(L):
    # L = 10**30 raised numpy's bare "Maximum allowed dimension exceeded" and jstar_site
    # returned a 31-digit site; L = 64 built a potential for a chain no basis holds
    for build in (barrier_potential, jstar_site):
        with pytest.raises(ParameterError, match=f"4 <= L <= {MAX_SITES}, got L={L}") as refused:
            build(L, 1.0, "a")
        assert type(refused.value) is ParameterError


def test_jstar_site():
    assert jstar_site(4, 20.0, "a") == 3
    assert jstar_site(4, 20.0, "b") == 2
    assert jstar_site(20, 20.0, "a") == 11
    with pytest.raises(ParameterError):
        jstar_site(4, 0.0, "a")


def test_two_site_sector_by_hand():
    basis = product_basis(2, 1, 1)
    H = build_hamiltonian(HubbardParams(L=2, J=1.0, U=0.0, V=np.zeros(2)), basis)
    dense = H.to_dense()
    # global order: (doublon at 1), (up 1, down 2), (up 2, down 1), (doublon at 2)
    expected = np.array([
        [0, -1, -1, 0],
        [-1, 0, 0, -1],
        [-1, 0, 0, -1],
        [0, -1, -1, 0],
    ], dtype=float)
    assert np.array_equal(dense, expected)

    H4 = build_hamiltonian(HubbardParams(L=2, J=1.0, U=4.0, V=np.zeros(2)), basis)
    assert np.array_equal(np.diag(H4.to_dense()), [4, 0, 0, 4])


def test_hamiltonian_is_symmetric_and_real():
    rng = np.random.default_rng(1)
    basis = product_basis(6, 2, 3)
    params = HubbardParams(L=6, J=1.0, U=rng.uniform(0, 8), V=rng.uniform(-4, 4, size=6))
    dense = build_hamiltonian(params, basis).to_dense()
    assert np.array_equal(dense, dense.T)
    assert dense.dtype == np.float64


def test_block_expectations_match_dense_products(monkeypatch):
    from fermichain import hamiltonian

    rng = np.random.default_rng(4)
    basis = product_basis(5, 2, 1)
    H = build_hamiltonian(HubbardParams(L=5, J=1.0, U=3.0, V=rng.uniform(-4, 4, size=5)), basis)
    block = rng.normal(size=(5, basis.dim)) + 1j * rng.normal(size=(5, basis.dim))
    want = np.einsum("ti,ij,tj->t", block.conj(), H.to_dense(), block).real
    assert np.allclose(H.expectations(block), want, rtol=0, atol=1e-12)
    monkeypatch.setattr(hamiltonian, "_TERMS_PER_PRODUCT", 2 * H.nnz)  # two states per product
    assert np.allclose(H.expectations(block), want, rtol=0, atol=1e-12)


def _random_sector_operators(rng):
    """A random sector, its H, a stack of H over a few parameter sets, and its S^2."""
    L = int(rng.integers(2, 7))
    basis = product_basis(L, int(rng.integers(0, L + 1)), int(rng.integers(0, L + 1)))
    params = [HubbardParams(L=L, J=1.0, U=rng.uniform(-5, 10), V=rng.uniform(-4, 4, size=L),
                            j_down=rng.uniform(0, 2))
              for _ in range(int(rng.integers(2, 5)))]
    return (basis, build_hamiltonian(params[0], basis), build_hamiltonian(params, basis),
            total_spin_squared(basis))


@pytest.mark.parametrize("seed", range(12))
def test_expectations_match_dense_quadratic_forms(seed, monkeypatch):
    # <psi|A psi> through the sparse product against einsum over the dense
    # matrix: single H and S^2 on (n, dim) and (k, n, dim) blocks, a stack on
    # (k, n, dim), in chunks from one state up to the whole block
    from fermichain import hamiltonian

    rng = np.random.default_rng(seed)
    basis, H, stack, s2 = _random_sector_operators(rng)
    k, n = stack.shape[0], int(rng.integers(1, 9))
    block = rng.normal(size=(k, n, basis.dim)) + 1j * rng.normal(size=(k, n, basis.dim))
    block /= np.linalg.norm(block, axis=-1, keepdims=True)
    cases = [(H, block[0], "ti,ij,tj->t"), (s2, block[0], "ti,ij,tj->t"),
             (H, block, "rti,ij,rtj->rt"), (s2, block, "rti,ij,rtj->rt"),
             (stack, block, "rti,rij,rtj->rt")]
    for op, states, form in cases:
        want = np.einsum(form, states.conj(), op.to_dense(), states).real
        runs = states.shape[0] if states.ndim == 3 else 1
        for per_chunk in sorted({1, int(rng.integers(1, n + 1)), n}):
            terms = per_chunk * max(op.nnz, 1) * runs
            monkeypatch.setattr(hamiltonian, "_TERMS_PER_PRODUCT", terms)
            got = op.expectations(states)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_assembled_operators_equal_their_transpose(seed):
    # Lanczos and the real part of <psi|A psi> both take A to be exactly symmetric
    basis, H, stack, s2 = _random_sector_operators(np.random.default_rng(seed))
    for op in (H, stack, s2):
        dense = op.to_dense()
        assert np.array_equal(dense, np.swapaxes(dense, -1, -2))


def test_overflowing_entries_raise_without_warning():
    # 1e308 on the diagonal and 1e308 more from the barrier: the sum overflows;
    # RuntimeWarnings are errors under the suite's filterwarnings
    basis = product_basis(4, 1, 1)
    V = barrier_potential(4, 1.0e308, "a")
    with pytest.raises(NumericalError, match="not finite"):
        build_hamiltonian(HubbardParams(L=4, J=1.0, U=1.0e308, V=V), basis)
    with pytest.raises(NumericalError, match="not finite"):
        build_hamiltonian([HubbardParams(L=4, J=1.0, U=0.0, V=np.zeros(4)),
                           HubbardParams(L=4, J=1.0, U=1.0e308, V=V)], basis)


def test_dimension_mismatch_rejected():
    basis = product_basis(4, 1, 1)
    params = HubbardParams(L=6, J=1.0, U=0.0, V=np.zeros(6))
    with pytest.raises(ParameterError):
        build_hamiltonian(params, basis)


def _one_particle(L, V):
    """The one-particle chain: the (1, 0) sector of the production assembly."""
    params = HubbardParams(L=L, J=1.0, U=0.0, V=np.asarray(V, dtype=np.float64))
    return build_hamiltonian(params, product_basis(L, 1, 0)).to_dense()


def _fk_matrix(L, U, h, orientation):
    """What the mobile species sees with the other pinned at site 1: the barrier plus U there."""
    V = barrier_potential(L, h, orientation)
    V[0] += U
    return _one_particle(L, V)


def test_single_particle_examples():
    assert _one_particle(2, [0, 0]).tolist() == [[0, -1], [-1, 0]]
    H = _one_particle(4, [0, 10, 5, 0])
    assert np.array_equal(np.diag(H), [0, 10, 5, 0])
    assert np.array_equal(np.diag(H, 1), [-1, -1, -1])
    evals = np.linalg.eigvalsh(_one_particle(3, [0, 0, 0]))
    assert np.allclose(evals, [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-12)


def test_sector_reduces_to_single_particle():
    # the (1, 0) sector is index-for-index the one-particle matrix
    V = barrier_potential(6, 10.0, "a")
    basis = product_basis(6, 1, 0)
    H = build_hamiltonian(HubbardParams(L=6, J=1.0, U=5.0, V=V), basis)
    assert np.array_equal(H.to_dense(), fock_oracle.single_particle_hamiltonian(6, 1.0, V))


def test_fk_hamiltonian_examples():
    assert np.array_equal(np.diag(_fk_matrix(4, 3.0, 20.0, "a")), [3, 20, 10, 0])
    assert np.array_equal(np.diag(_fk_matrix(4, 3.0, 20.0, "b")), [3, 10, 20, 0])
    bare = _one_particle(4, barrier_potential(4, 20.0, "a"))
    assert np.array_equal(_fk_matrix(4, 0.0, 20.0, "a"), bare)


def test_frozen_down_block_equals_fk_matrix():
    # two-body H with down hopping off, restricted to configurations with the
    # down particle on site 1, must equal the effective one-particle matrix
    L, U, h = 4, 3.0, 20.0
    basis = product_basis(L, 1, 1)
    V = barrier_potential(L, h, "a")
    H = build_hamiltonian(HubbardParams(L=L, J=1.0, U=U, V=V, j_down=0.0), basis)
    dense = H.to_dense()
    block_idx = [basis.index(1 << (j - 1), 1) for j in range(1, L + 1)]
    block = dense[np.ix_(block_idx, block_idx)]
    assert np.max(np.abs(block - _fk_matrix(L, U, h, "a"))) <= 1e-12


@pytest.mark.parametrize("L", [1, 2, 3])
def test_matches_full_fock_oracle_small(L):
    rng = np.random.default_rng(L)
    V = rng.uniform(-3, 3, size=L)
    U = rng.uniform(0, 6)
    for n_up in range(L + 1):
        for n_down in range(L + 1):
            basis = product_basis(L, n_up, n_down)
            ours = build_hamiltonian(HubbardParams(L=L, J=1.0, U=U, V=V), basis).to_dense()
            oracle = fock_oracle.restricted_hamiltonian(L, 1.0, 1.0, U, V, basis)
            assert np.max(np.abs(ours - oracle)) <= 1e-12


def test_matches_full_fock_oracle_l4_with_asymmetric_hopping():
    V = barrier_potential(4, 20.0, "b")
    for n_up, n_down in [(1, 1), (2, 1), (2, 2)]:
        basis = product_basis(4, n_up, n_down)
        params = HubbardParams(L=4, J=1.0, U=10.0, V=V, j_down=0.25)
        ours = build_hamiltonian(params, basis).to_dense()
        oracle = fock_oracle.restricted_hamiltonian(4, 1.0, 0.25, 10.0, V, basis)
        assert np.max(np.abs(ours - oracle)) <= 1e-12


def test_spin_squared_eigenstates():
    basis = product_basis(6, 1, 1)
    s2 = total_spin_squared(basis)
    states = [named_state(basis, "singlet", 1, 2), named_state(basis, "triplet", 1, 2),
              named_state(basis, "doublon", 1)]
    got = s2.expectations(np.array(states))
    assert np.all(np.abs(got - [0.0, 2.0, 0.0]) <= 1e-12)


@pytest.mark.parametrize("n_up,n_down", [(1, 1), (2, 1), (2, 2), (1, 0), (0, 2)])
def test_spin_squared_commutes_with_hamiltonian(n_up, n_down):
    rng = np.random.default_rng(n_up * 10 + n_down)
    basis = product_basis(4, n_up, n_down)
    params = HubbardParams(L=4, J=1.0, U=rng.uniform(0, 10), V=rng.uniform(-5, 5, size=4))
    H = build_hamiltonian(params, basis)
    s2 = total_spin_squared(basis)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    comm = H.matvec(s2.matvec(psi)) - s2.matvec(H.matvec(psi))
    assert np.linalg.norm(comm) <= 1e-12


@pytest.mark.parametrize("n_up", range(5))
def test_spin_squared_matches_full_fock_oracle(n_up):
    full = fock_oracle.full_spin_squared(4)
    for n_down in range(5):
        basis = product_basis(4, n_up, n_down)
        E = fock_oracle.sector_embedding(4, basis)
        ours = total_spin_squared(basis).to_dense()
        assert np.max(np.abs(ours - E.T @ full @ E)) <= 1e-12


def test_spin_squared_above_the_dense_cap():
    basis = product_basis(30, 2, 1)  # dim 13050
    psi = named_state(basis, "doublon_plus_up", 1, 30)
    s2 = total_spin_squared(basis)
    assert s2.dim == basis.dim
    assert np.linalg.norm(s2.matvec(psi) - 0.75 * psi) <= 1e-12


def test_matvec_matches_dense_product():
    rng = np.random.default_rng(5)
    basis = product_basis(5, 2, 1)
    H = build_hamiltonian(HubbardParams(L=5, J=1.0, U=2.0, V=rng.uniform(-3, 3, size=5)), basis)
    x = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    assert np.allclose(H.matvec(x), H.to_dense() @ x, atol=1e-13, rtol=0)


def test_one_vector_meets_every_matrix_of_a_stack():
    rng = np.random.default_rng(6)
    basis = product_basis(5, 2, 1)
    params = [HubbardParams(L=5, J=1.0, U=U, V=rng.uniform(-3, 3, size=5)) for U in (0.0, 2.0, 7.5)]
    stack = build_hamiltonian(params, basis)
    x = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    got = stack.matvec(x)
    assert got.shape == (3, basis.dim)
    for r, p in enumerate(params):
        assert np.array_equal(got[r], build_hamiltonian(p, basis).matvec(x))


@pytest.mark.parametrize("sector", [(6, 2, 1), (8, 3, 3)])
def test_matvec_sums_each_row_in_column_order(sector):
    # rows of 3-7 and 3-13 entries: every row is the sequential sum of its
    # products, lowest column first, to the last bit
    rng = np.random.default_rng(7)
    basis = product_basis(*sector)
    L = sector[0]
    H = build_hamiltonian(HubbardParams(L=L, J=1.0, U=3.3, V=rng.uniform(-4, 4, size=L)), basis)
    x = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    want = np.empty(H.dim, dtype=complex)
    for r in range(H.dim):
        entries = slice(H.indptr[r], H.indptr[r + 1])
        terms = H.data[entries] * x[H.indices[entries]]
        want[r] = terms[0]
        for term in terms[1:]:
            want[r] += term
    assert np.array_equal(H.matvec(x), want)


def test_matvec_handles_empty_rows():
    matrix = np.zeros((4, 4))
    matrix[1, 2] = 2.5
    matrix[3, 0] = -1.0
    x = np.array([1 + 1j, 0, 2.0, -1j])
    assert np.allclose(csr_from_dense(matrix).matvec(x), matrix @ x)
    zero = csr_from_dense(np.zeros((3, 3)))
    assert np.array_equal(zero.matvec(np.ones(3)), np.zeros(3, dtype=complex))


def test_params_validation():
    with pytest.raises(ParameterError):
        HubbardParams(L=4, J=0.0, U=1.0, V=np.zeros(4))
    with pytest.raises(ParameterError):
        HubbardParams(L=4, J=1.0, U=np.inf, V=np.zeros(4))
    with pytest.raises(ParameterError):
        HubbardParams(L=4, J=1.0, U=1.0, V=np.zeros(3))


@pytest.mark.parametrize("L", ["4", 4.0, True, None])
def test_params_refuse_a_site_count_that_is_not_an_integer(L):
    with pytest.raises(ParameterError, match=re.escape(f"L={L!r} must be a positive integer")):
        HubbardParams(L=L, J=1.0, U=1.0, V=np.zeros(4))


@pytest.mark.parametrize("changes, message", [
    ({"J": "1"}, "J='1' must be a real number"),  # a bare TypeError
    ({"U": None}, "U=None must be a real number"),  # a bare TypeError
    ({"J": math.inf}, "J=inf must be finite"),
    ({"j_up": math.nan}, "j_up=nan must be finite"),
    ({"j_down": math.nan}, "j_down=nan must be finite"),
    ({"j_down": -math.inf}, "j_down=-inf must be finite"),
    ({"V": [0.0, math.nan, 0.0, 0.0]}, "V must be finite, got [0.0, nan, 0.0, 0.0]"),
    ({"V": [0.0, 0.0, math.inf, 0.0]}, "V must be finite, got [0.0, 0.0, inf, 0.0]"),
    ({"V": ["a"] * 4}, "V must hold real numbers, got ['a', 'a', 'a', 'a']"),  # a bare ValueError
    ({"V": np.array([2 + 1j, 0, 0, 0])}, "V must hold real numbers"),  # was cast to [2, 0, 0, 0]
])
def test_params_refuse_couplings_that_are_not_finite_numbers(changes, message):
    fields = {"L": 4, "J": 1.0, "U": 0.0, "V": np.zeros(4), **changes}
    with pytest.raises(ParameterError, match=re.escape(message)) as refused:
        HubbardParams(**fields)
    assert type(refused.value) is ParameterError


def test_params_copy_the_potential():
    V = barrier_potential(4, 20.0, "a")
    params = HubbardParams(L=4, J=1.0, U=1.0, V=V)
    V[0] = 1.0  # the caller's array stays writable
    assert params.V.tolist() == [0.0, 20.0, 10.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        params.V[0] = 1.0
