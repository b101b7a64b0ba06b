import math
import re

import numpy as np
import pytest

from fermichain.basis import product_basis
from fermichain.errors import ParameterError
from fermichain.evolution import DensePropagator
from fermichain.hamiltonian import (
    HubbardParams,
    barrier_potential,
    build_hamiltonian,
    jstar_site,
    total_spin_squared,
)
from fermichain.observables import observable_functions, time_average, trap_time
from fermichain.states import named_state

import fock_oracle


def _columns(tokens, basis, amps, **bound):
    """The columns of a block of amplitudes, as the callable that trajectories sample
    computes them, by name."""
    (names, fn), = observable_functions(tokens, basis, **bound).items()
    values = fn(amps)
    return {name: values[..., i] for i, name in enumerate(names)}


def _measure(tokens, basis, psi):
    """The columns of one state."""
    return {name: float(col[0]) for name, col in _columns(tokens, basis, psi[None]).items()}


def _densities(prop, basis, psi0, times, spin=None):
    """Per-site densities on a time grid, (len(times), L)."""
    states = np.concatenate(list(prop.blocks(psi0, np.asarray(times, dtype=float))))
    (_, density), = observable_functions([f"n_{spin}_all" if spin else "n_all"], basis).items()
    return density(states)


def test_doublon_densities():
    basis = product_basis(4, 1, 1)
    got = _measure(["n_all", "n_up_1", "doublon_count", "n_total"], basis,
                   named_state(basis, "doublon", 1))
    assert got["n_1"] == 2.0
    assert all(got[f"n_{j}"] == 0.0 for j in (2, 3, 4))
    assert got["n_up_1"] == 1.0
    assert got["doublon_count"] == 1.0
    assert got["n_total"] == 2.0
    with pytest.raises(ParameterError):
        observable_functions(["n_5"], basis)


def test_singlet_densities():
    basis = product_basis(4, 1, 1)
    got = _measure(["n_1", "n_2", "doublon_count"], basis, named_state(basis, "singlet", 1, 2))
    assert abs(got["n_1"] - 1.0) <= 1e-15
    assert abs(got["n_2"] - 1.0) <= 1e-15
    assert abs(got["doublon_count"]) <= 1e-15


def test_number_conservation_along_run():
    basis = product_basis(6, 2, 1)
    V = barrier_potential(6, 10.0, "a")
    H = build_hamiltonian(HubbardParams(L=6, J=1.0, U=4.0, V=V), basis)
    prop = DensePropagator(H)
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[0] = 1.0
    times = np.linspace(0, 25, 26)
    profile = _densities(prop, basis, psi0, times)
    assert np.all(np.abs(profile.sum(axis=1) - 3.0) <= 1e-10)
    assert np.all(profile >= -1e-12) and np.all(profile <= 2 + 1e-12)
    up = _densities(prop, basis, psi0, times, "up")
    assert np.all(up >= -1e-12) and np.all(up <= 1 + 1e-12)


def test_n_after_examples():
    basis = product_basis(6, 1, 1)
    assert _measure(["n_after"], basis, named_state(basis, "doublon", 1))["n_after"] == 0.0
    assert _measure(["n_after"], basis, named_state(basis, "doublon", 6))["n_after"] == 2.0

    basis = product_basis(4, 1, 1)
    got = _measure(["n_after", "n_4"], basis, named_state(basis, "doublon", 3))
    assert got["n_after"] == got["n_4"]

    with pytest.raises(ParameterError):
        observable_functions(["n_after"], product_basis(5, 1, 1))


def test_mirror_covariance_of_densities():
    # <n_j> under (V, psi0) equals <n_{L+1-j}> under (mirrored V, mirrored psi0);
    # the mirror image of singlet(1, 2) is singlet(L, L-1), up to a global sign
    L = 6
    basis = product_basis(L, 1, 1)
    psi0 = named_state(basis, "singlet", 1, 2)
    mirrored = named_state(basis, "singlet", L, L - 1)
    V = barrier_potential(L, 10.0, "a")
    H_fwd = build_hamiltonian(HubbardParams(L=L, J=1.0, U=2.0, V=V), basis)
    H_mir = build_hamiltonian(HubbardParams(L=L, J=1.0, U=2.0, V=V[::-1].copy()), basis)
    times = (0.0, 3.0, 11.0, 27.0)
    a = _densities(DensePropagator(H_fwd), basis, psi0, times)
    b = _densities(DensePropagator(H_mir), basis, mirrored, times)
    assert np.max(np.abs(a - b[:, ::-1])) <= 1e-10


def _loop_reference(basis, amps, H, s2):
    """Expected values of one state by a loop over its configurations."""
    up, down = np.zeros(basis.L), np.zeros(basis.L)
    doublons = 0.0
    for g, a in enumerate(amps):
        iu, idn = divmod(g, basis.down.dim)
        mu, md = int(basis.up.masks[iu]), int(basis.down.masks[idn])
        p = abs(a) ** 2
        doublons += p * (mu & md).bit_count()
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


def _random_block(basis, seed, n=7):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n, basis.dim)) + 1j * rng.normal(size=(n, basis.dim))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def test_block_observables_match_loop_reference():
    L = 6
    basis = product_basis(L, 2, 1)
    H = build_hamiltonian(HubbardParams(L=L, J=1.0, U=4.0, V=barrier_potential(L, 10.0, "a")),
                          basis)
    s2 = total_spin_squared(basis)
    tokens = ["n_3", "n_up_1", "n_down_L", "n_h2", "n_after", "n_total", "norm",
              "doublon_count", "energy", "s_squared"]
    amps = _random_block(basis, 11)
    columns = _columns(tokens, basis, amps, H=H, jstar=jstar_site(L, 10.0, "a"))
    for row, v in enumerate(amps):
        reference = _loop_reference(basis, v, H, s2)
        for name, col in columns.items():
            assert abs(col[row] - reference[name]) <= 1e-12, name


@pytest.mark.parametrize("n_up, n_down", [(1, 1), (2, 1), (2, 2)])
def test_block_observables_match_full_fock_oracle(n_up, n_down):
    # every operator of the reference is a Jordan-Wigner product on the 4^L
    # Fock space, projected onto the sector: no code shared with the package
    L, U = 4, 3.0
    V = barrier_potential(L, 10.0, "b")
    basis = product_basis(L, n_up, n_down)
    H = build_hamiltonian(HubbardParams(L=L, J=1.0, U=U, V=V), basis)
    amps = _random_block(basis, 5)
    columns = _columns(["n_all", "n_up_all", "n_down_all", "doublon_count",
                        "energy", "s_squared"], basis, amps, H=H)

    E = fock_oracle.sector_embedding(L, basis)
    cd = fock_oracle.creation_operators(2 * L)
    number = [m @ m.T for m in cd]  # n_m for mode m: up sites 1..L, then down sites
    operators = {"energy": fock_oracle.full_hamiltonian(L, 1.0, 1.0, U, V),
                 "s_squared": fock_oracle.full_spin_squared(L),
                 "doublon_count": sum(number[j] @ number[L + j] for j in range(L))}
    for j in range(1, L + 1):
        operators[f"n_up_{j}"] = number[j - 1]
        operators[f"n_down_{j}"] = number[L + j - 1]
        operators[f"n_{j}"] = number[j - 1] + number[L + j - 1]
    assert sorted(operators) == sorted(columns)
    for name, op in operators.items():
        want = np.einsum("ni,ij,nj->n", amps.conj(), E.T @ op @ E, amps).real
        assert np.max(np.abs(columns[name] - want)) <= 1e-12, name


@pytest.mark.parametrize("jstar", [0, -1, 5, 2.5, True, "4", [1, 0], [[1, 4]], []])
def test_jstar_off_the_chain_is_refused(jstar):
    # on L = 4, jstar 0 read site 4 and -1 site 3; 5 and 2.5 raised a bare IndexError
    with pytest.raises(ParameterError, match=r"jstar must be a site in \[1, 4\]"):
        observable_functions(["n_h2"], product_basis(4, 1, 1), jstar=jstar)


@pytest.mark.parametrize("jstar, stack, message", [
    ([2], True, "got 1 for 2 runs"),
    ([2, 3, 3], True, "got 3 for 2 runs"),
    ([2, 3], False, "got 2 for no stack"),
])
def test_jstar_list_needs_one_site_per_run_of_the_stack(jstar, stack, message):
    # on a two-run stack, [2] gave run b run a's n_h2; [2, 3, 3] raised a bare IndexError
    basis = product_basis(4, 1, 1)
    params = [HubbardParams(L=4, J=1.0, U=0.0, V=barrier_potential(4, 20.0, o)) for o in "ab"]
    H = build_hamiltonian(params if stack else params[0], basis)
    with pytest.raises(ParameterError,
                       match=f"a jstar list needs one site per run of a stack: {message}"):
        observable_functions(["n_h2"], basis, H=H, jstar=jstar)


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
    # a last axis longer than the grid
    with pytest.raises(ParameterError, match=re.escape("values of shape (4,) are not sampled")):
        time_average([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], 1.0)

    # samples beyond T are ignored
    times = np.linspace(0, 2 * np.pi, 6001)
    assert abs(time_average(times, np.sin(times) ** 2, np.pi) - 0.5) <= 1e-6


def test_trap_time_examples():
    assert trap_time([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]) is None
    assert trap_time([0.0, 1.0, 2.0], [0.0, 0.005, 0.02]) == 2.0
    assert trap_time([0.0, 1.0], [0.02, 0.0], threshold=0.01) == 0.0
    with pytest.raises(ParameterError):
        trap_time([0.0], [0.0], threshold=0.0)
    # a crossing after the last time: neither a time nor never
    with pytest.raises(ParameterError, match=re.escape("values of shape (3,) are not sampled")):
        trap_time([0.0, 1.0], [0.0, 0.0, 1.0], 0.5)


@pytest.mark.parametrize("reduce, message", [
    (time_average, "averaging window T='1' must be a real number"),
    (trap_time, "threshold='1' must be a real number"),
])
def test_reduction_argument_that_is_not_a_number_is_refused(reduce, message):
    # each raised a bare TypeError
    with pytest.raises(ParameterError, match=re.escape(message)) as refused:
        reduce([0.0, 1.0], [0.0, 1.0], "1")
    assert type(refused.value) is ParameterError


@pytest.mark.parametrize("reduce, times, values, message", [
    (time_average, [0.0, 1.0], [[1, 2], [3]], "values must hold real numbers"),
    (trap_time, [[0.0, 1.0], [2.0]], [0.0, 1.0], "times must hold real numbers"),
    (time_average, [0.0, 1.0], {}, "values must hold real numbers, got {}"),  # a bare TypeError
    (trap_time, [0.0, 1.0], [0.0, 1j], "values must hold real numbers"),
])
def test_ragged_or_non_numeric_samples_are_refused(reduce, times, values, message):
    # a ragged list raised numpy's bare "setting an array element with a sequence"
    with pytest.raises(ParameterError, match=re.escape(message)) as refused:
        reduce(times, values, 1.0) if reduce is time_average else reduce(times, values)
    assert type(refused.value) is ParameterError


@pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2, 3)])
def test_time_average_of_a_stack_of_tables_averages_each_row(shape):
    # (2, 3, 3) values were averaged over the wrong axis, giving [[2, 8], [20, 26]];
    # (2, 2, 3) values raised a bare IndexError
    values = np.arange(float(math.prod(shape))).reshape(shape)
    averages = time_average([0.0, 1.0, 2.0], values, 1.0)
    assert averages.tolist() == ((values[..., 0] + values[..., 1]) / 2).tolist()
    assert averages.tolist() == [time_average([0.0, 1.0, 2.0], table, 1.0).tolist()
                                 for table in values]


@pytest.mark.parametrize("threshold", [math.inf, math.nan, 0.0, -1.0])
def test_trap_time_threshold_must_be_positive_and_finite(threshold):
    # an infinite threshold returned None, as if the column never crossed it
    with pytest.raises(ParameterError, match="must be positive and finite"):
        trap_time([0.0, 1.0], [1.0, 2.0], threshold)


@pytest.mark.parametrize("tokens", [None, 1, True, 2.5])
def test_tokens_that_are_not_a_list_are_refused(tokens):
    # each raised a bare TypeError: the object is not iterable
    with pytest.raises(ParameterError, match=re.escape(f"tokens must be a list, got {tokens!r}")):
        observable_functions(tokens, product_basis(4, 1, 1))


def test_reductions_of_a_column_stack_equal_the_per_column_calls():
    # bit for bit: a sweep reduces all of a trajectory's columns in one call
    rng = np.random.default_rng(5)
    times = 0.05 * np.arange(2001)
    values = rng.random((6, len(times))) * np.linspace(0.0, 0.02, len(times))
    for T in (5.0, 40.0, 100.0):
        stacked = time_average(times, values, T)
        assert stacked.shape == (6,)
        assert stacked.tolist() == [time_average(times, col, T) for col in values]
    first = trap_time(times, values, 0.015)
    assert first.tolist() == [trap_time(times, col, 0.015) for col in values]
    never = trap_time(times, [values[0], np.zeros(len(times))], 0.015)
    assert never[0] == first[0] and np.isnan(never[1])
