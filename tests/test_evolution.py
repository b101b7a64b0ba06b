import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermichain.basis import product_basis
from fermichain.errors import CapacityError, NumericalError, ParameterError
from fermichain.evolution import (
    DensePropagator,
    KrylovPropagator,
    METHODS,
    PropagatorConfig,
    TaylorPropagator,
    evolve_trajectory,
    make_propagator,
    plan,
)
from fermichain.hamiltonian import (
    DENSE_CAP,
    HubbardParams,
    SparseHamiltonian,
    barrier_potential,
    build_hamiltonian,
    jstar_site,
)
from fermichain.observables import observable_functions
from fermichain.states import from_entries, named_state

import fock_oracle
from fock_oracle import csr_from_dense


def _random_sparse(dim, seed, density=0.08, scale=2.0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(scale=scale, size=(dim, dim))
    dense[rng.random((dim, dim)) > density] = 0.0
    dense = (dense + dense.T) / 2
    return csr_from_dense(dense), rng


def _random_vec(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _propagator(H, config):
    """The configured propagator; a krylov config gets the Lanczos method even
    on a sector that its space spans, where make_propagator takes the exact path."""
    return KrylovPropagator(H, config) if config.method == "krylov" else make_propagator(H, config)


def _grid_states(H, psi0, times, config):
    """The configured propagator's states on a time grid, (..., len(times), dim):
    psi0 starts every run of a stack."""
    amps = np.broadcast_to(psi0, H.shape[:-1])
    return np.concatenate(list(_propagator(H, config).blocks(amps, times)), axis=-2)


def _dense_states(H, psi0, times):
    return _grid_states(H, psi0, np.asarray(times, dtype=float), PropagatorConfig("dense_eig"))


def test_dense_identity_at_t0():
    basis = product_basis(4, 1, 1)
    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=3.0, V=np.zeros(4)), basis)
    psi = named_state(basis, "doublon", 2)
    out = _dense_states(H, psi, [0.0])
    assert np.allclose(out[0], psi, atol=1e-15)


def test_two_site_rabi_oscillation():
    basis = product_basis(2, 1, 0)
    H = build_hamiltonian(HubbardParams(L=2, J=1.0, U=0.0, V=np.zeros(2)), basis)
    psi0 = named_state(basis, "single_particle", 1)
    times = np.linspace(0, 7, 29)
    (_, n_2), = observable_functions(["n_2"], basis).items()
    density = n_2(_dense_states(H, psi0, times))[:, 0]
    assert np.all(np.abs(density - np.sin(times) ** 2) <= 1e-12)


def test_two_site_doublon_oscillation_closed_form():
    # doublon return probability on two sites: 1 - (8 J^2/W^2) sin^2(W t / 2),
    # W = sqrt(U^2 + 16 J^2); cross-checked against a hand-built 4x4 exponential
    U = 4.0
    basis = product_basis(2, 1, 1)
    H = build_hamiltonian(HubbardParams(L=2, J=1.0, U=U, V=np.zeros(2)), basis)
    psi0 = named_state(basis, "doublon", 1)
    omega = np.sqrt(U**2 + 16.0)
    assert omega == np.sqrt(32.0)

    hand = np.array([
        [U, -1, -1, 0],
        [-1, 0, 0, -1],
        [-1, 0, 0, -1],
        [0, -1, -1, U],
    ], dtype=float)
    evals, evecs = np.linalg.eigh(hand)
    e0 = np.zeros(4)
    e0[0] = 1.0
    times = np.linspace(0, 12, 49)
    for t, psi in zip(times, _dense_states(H, psi0, times)):
        expected = evecs @ (np.exp(-1j * t * evals) * (evecs.T @ e0))
        assert np.linalg.norm(psi - expected) <= 1e-12
        p_doublon = abs(psi[0]) ** 2 + abs(psi[3]) ** 2
        closed = 1 - (8 / omega**2) * np.sin(omega * t / 2) ** 2
        assert abs(p_doublon - closed) <= 1e-12


@pytest.mark.parametrize("method", ["krylov", "taylor"])
def test_step_matches_dense_oracle_random_100dim(method):
    H, rng = _random_sparse(100, seed=21)
    v = _random_vec(100, rng)
    config = PropagatorConfig(method=method)
    stepped = make_propagator(H, config).advance(v, config.dt)
    oracle = DensePropagator(H).advance(v, config.dt)
    assert np.linalg.norm(stepped - oracle) <= 1e-10


@pytest.mark.parametrize("method", ["krylov", "taylor"])
def test_step_composition(method):
    H, rng = _random_sparse(60, seed=8)
    v = _random_vec(60, rng)
    config = PropagatorConfig(method=method)
    prop = (KrylovPropagator if method == "krylov" else TaylorPropagator)(H, config)
    once = prop.advance(v, 0.05)
    twice = prop.advance(prop.advance(v, 0.025), 0.025)
    assert np.linalg.norm(once - twice) <= 2 * config.tolerance * 0.05 + 1e-13


@pytest.mark.parametrize("method", ["krylov", "taylor"])
def test_zero_hamiltonian_is_identity(method):
    H = csr_from_dense(np.zeros((12, 12)))
    rng = np.random.default_rng(2)
    v = _random_vec(12, rng)
    prop = (KrylovPropagator if method == "krylov" else TaylorPropagator)(
        H, PropagatorConfig(method=method))
    assert np.linalg.norm(prop.advance(v, 0.7) - v) <= 1e-14


@pytest.mark.parametrize("method", ["krylov", "taylor"])
def test_time_reversal(method):
    H, rng = _random_sparse(80, seed=13)
    v = _random_vec(80, rng)
    config = PropagatorConfig(method=method)
    prop = (KrylovPropagator if method == "krylov" else TaylorPropagator)(H, config)
    cur = v
    for _ in range(20):
        cur = prop.advance(cur, config.dt)
    for _ in range(20):
        cur = prop.advance(cur, -config.dt)
    assert np.linalg.norm(cur - v) <= 2 * config.tolerance * 20 * config.dt + 1e-12


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("L, sector", [(4, (1, 1)), (6, (2, 1))])
def test_advance_is_the_last_state_of_blocks(method, L, sector):
    basis = product_basis(L, *sector)
    V = barrier_potential(L, 20.0, "a")
    H = build_hamiltonian(HubbardParams(L=L, J=1.0, U=3.0, V=V), basis)
    v = _random_vec(basis.dim, np.random.default_rng(L))
    prop = _propagator(H, PropagatorConfig(method))
    for dt in (0.05, 0.03, -0.05, 0.7):
        *_, last = prop.blocks(v, np.array([0.0, dt]))
        assert np.array_equal(prop.advance(v, dt), last[-1])
    same = prop.advance(v, 0.0)
    assert np.array_equal(same, v) and not np.shares_memory(same, v)


def test_taylor_covers_each_interval_with_one_substep_rule(monkeypatch):
    from fermichain import evolution

    # ||H|| dt / theta = 3.8: dt-long steps, each split again by ||H||, would take
    # 16, 24 and 40 substeps for the three intervals longer than dt
    H, rng = _random_sparse(40, seed=3, scale=50.0)
    v = _random_vec(40, rng)
    taus = []
    substep = TaylorPropagator._substep

    def counting(self, psi, tau):
        taus.append(tau)
        return substep(self, psi, tau)

    monkeypatch.setattr(TaylorPropagator, "_substep", counting)
    config = PropagatorConfig("taylor")
    times = np.array([0.0, 0.03, 0.2, 0.5, 1.0])
    states = np.concatenate(list(TaylorPropagator(H, config).blocks(v, times)))
    deltas = np.diff(times)
    counts = [max(math.ceil(d / config.dt), math.ceil(H.inf_norm * d / evolution._TAYLOR_THETA))
              for d in deltas]
    assert counts == [3, 13, 23, 38]
    assert taus == [d / n for d, n in zip(deltas, counts) for _ in range(n)]
    oracle = DensePropagator(H)
    exact = np.array([oracle.advance(v, t) for t in times])
    assert np.all(np.linalg.norm(states - exact, axis=1) <= config.tolerance * times + 1e-13)


def test_long_run_unitarity_and_energy():
    basis = product_basis(6, 2, 1)
    V = np.array([0.0, 0.0, 20.0, 10.0, 0.0, 0.0])
    H = build_hamiltonian(HubbardParams(L=6, J=1.0, U=10.0, V=V), basis)
    rng = np.random.default_rng(17)
    v = _random_vec(basis.dim, rng)
    e0 = float(np.vdot(v, H.matvec(v)).real)
    prop = KrylovPropagator(H, PropagatorConfig())
    cur = v
    for _ in range(2000):  # t = 100/J
        cur = prop.advance(cur, 0.05)
    assert abs(np.linalg.norm(cur) - 1.0) <= 1e-10
    assert abs(float(np.vdot(cur, H.matvec(cur)).real) - e0) <= 1e-9


def test_trajectory_conserved_columns():
    basis = product_basis(6, 1, 1)
    V = np.array([0.0, 0.0, 10.0, 5.0, 0.0, 0.0])
    H = build_hamiltonian(HubbardParams(L=6, J=1.0, U=0.5, V=V), basis)
    psi0 = named_state(basis, "triplet", 1, 2)
    observables = observable_functions(["norm", "energy", "s_squared"], basis, H=H)
    times = np.arange(0.0, 10.0 + 1e-9, 0.1)
    traj = evolve_trajectory(H, psi0, times, PropagatorConfig(), observables)
    assert np.max(np.abs(traj.columns["norm"] - 1.0)) <= 1e-10
    assert np.max(np.abs(traj.columns["energy"] - traj.columns["energy"][0])) <= 1e-10
    assert np.max(np.abs(traj.columns["s_squared"] - 2.0)) <= 1e-10


def test_trajectory_grid_validation():
    basis = product_basis(2, 1, 0)
    H = build_hamiltonian(HubbardParams(L=2, J=1.0, U=0.0, V=np.zeros(2)), basis)
    psi0 = named_state(basis, "single_particle", 1)
    config = PropagatorConfig()
    with pytest.raises(ParameterError):
        evolve_trajectory(H, psi0, [1.0, 2.0], config, {})
    with pytest.raises(ParameterError):
        evolve_trajectory(H, psi0, [0.0, 2.0, 1.0], config, {})
    with pytest.raises(ParameterError):
        evolve_trajectory(H, psi0, [], config, {})


@pytest.mark.parametrize("method", ["dense_eig", "krylov", "taylor"])
def test_blocks_start_at_psi0(method):
    basis = product_basis(2, 1, 0)
    H = build_hamiltonian(HubbardParams(L=2, J=1.0, U=0.0, V=np.zeros(2)), basis)
    psi0 = named_state(basis, "single_particle", 1)
    states = _grid_states(H, psi0, np.array([0.0, 0.5, 1.0]), PropagatorConfig(method))
    assert states.shape == (3, basis.dim)
    assert np.allclose(states[0], psi0)


def test_dense_capacity_error(monkeypatch):
    # checked from the shape alone: neither matrix is ever made dense
    dim = DENSE_CAP + 1
    diagonal = SparseHamiltonian(indptr=np.arange(dim + 1), indices=np.arange(dim),
                                 data=np.zeros(dim))
    monkeypatch.setattr(SparseHamiltonian, "to_dense", lambda self: pytest.fail("made dense"))
    with pytest.raises(CapacityError):
        DensePropagator(diagonal)
    with pytest.raises(CapacityError):
        DensePropagator(np.broadcast_to(0.0, (dim, dim)))  # a view: no dim^2 array
    with pytest.raises(ParameterError):
        DensePropagator(np.zeros((3, 4)))


def test_taylor_nonconvergence_raises_with_diagnostics(monkeypatch):
    from fermichain import evolution

    monkeypatch.setattr(evolution, "_MAX_TAYLOR_TERMS", 2)
    H, rng = _random_sparse(40, seed=3, scale=50.0)
    v = _random_vec(40, rng)
    prop = TaylorPropagator(H, PropagatorConfig(method="taylor"))
    with pytest.raises(NumericalError) as err:
        prop.advance(v, 0.05)
    assert "terms" in err.value.diagnostics


def test_taylor_run_of_too_many_steps_is_refused_before_stepping():
    from fermichain import evolution

    # in a fresh process with a timeout: a regression fails here instead of hanging
    code = (
        "import numpy as np\n"
        "from fermichain import (HubbardParams, PropagatorConfig, build_hamiltonian,\n"
        "                        evolve_trajectory, named_state, product_basis)\n"
        "basis = product_basis(4, 1, 1)\n"
        "H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=0.0, V=np.zeros(4)), basis)\n"
        "evolve_trajectory(H, named_state(basis, 'doublon', 1), [0.0, 0.05],\n"
        "                  PropagatorConfig(method='taylor', dt=1e-300), {})\n"
    )
    src = str(Path(evolution.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert ("ParameterError: a taylor run takes at most 1000000 steps, "
            "got t / dt = 5e+298") in done.stderr


def test_krylov_tolerance_failure_raises():
    H, rng = _random_sparse(50, seed=4, scale=30.0)
    v = _random_vec(50, rng)
    config = PropagatorConfig(method="krylov", krylov_dim=3, tolerance=1e-30)
    with pytest.raises(NumericalError) as err:
        KrylovPropagator(H, config).advance(v, 1.0)
    assert err.value.diagnostics["krylov_dim"] == 3


def test_config_validation():
    with pytest.raises(ParameterError):
        PropagatorConfig(method="magic")
    with pytest.raises(ParameterError):
        PropagatorConfig(dt=0.0)
    with pytest.raises(ParameterError):
        PropagatorConfig(tolerance=-1.0)
    with pytest.raises(ParameterError):
        PropagatorConfig(krylov_dim=1)


@pytest.mark.parametrize("fields, message", [
    ({"krylov_dim": 2.5}, "krylov_dim=2.5 must be an integer"),
    ({"krylov_dim": 30.0}, "krylov_dim=30.0 must be an integer"),
    ({"krylov_dim": True}, "krylov_dim=True must be an integer"),
    ({"krylov_dim": "30"}, "krylov_dim='30' must be an integer"),
    ({"dt": "0.1"}, "dt='0.1' must be a real number"),
    ({"dt": None}, "dt=None must be a real number"),
    ({"tolerance": 1e-10j}, "tolerance=1e-10j must be a real number"),
    ({"tolerance": False}, "tolerance=False must be a real number"),
])
def test_config_refuses_values_the_run_cannot_use(fields, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        PropagatorConfig(**fields)


def test_config_takes_numpy_numbers():
    config = PropagatorConfig(dt=np.float32(0.1), tolerance=np.float64(1e-9),
                              krylov_dim=np.int64(12))
    assert config.krylov_dim == 12


@pytest.mark.parametrize("method", METHODS)
def test_one_sample_grid_is_the_initial_state(method):
    # krylov_dim 8 below the sector's 36 runs krylov, not dense_eig
    basis = product_basis(6, 1, 1)
    H = build_hamiltonian(HubbardParams(L=6, J=1.0, U=2.0, V=barrier_potential(6, 10.0, "a")),
                          basis)
    config = PropagatorConfig(method, krylov_dim=8)
    assert plan(basis.dim, 0, config)[0] == method
    fns = observable_functions(["n_1", "norm"], basis, H=H)
    traj = evolve_trajectory(H, named_state(basis, "doublon", 1), [0.0], config, fns)
    assert {name: col.shape for name, col in traj.columns.items()} == {"n_1": (1,), "norm": (1,)}
    assert abs(traj.columns["n_1"][0] - 2.0) <= 1e-12
    assert abs(traj.columns["norm"][0] - 1.0) <= 1e-12


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("times", [[math.nan], [0.0, math.inf], [0.0, 0.5, -math.inf]])
def test_time_grid_that_is_not_finite_is_refused(method, times):
    # a NaN first time passed the start-at-0 check, an inf last time the increasing one
    basis = product_basis(4, 1, 1)
    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=0.0, V=np.zeros(4)), basis)
    config = PropagatorConfig(method, krylov_dim=8)
    assert plan(basis.dim, 0, config)[0] == method
    fns = observable_functions(["n_1"], basis)
    with pytest.raises(ParameterError, match="time grid must be finite"):
        evolve_trajectory(H, named_state(basis, "doublon", 4), times, config, fns)
    # a state of another sector, (2, 0) with dim 6, against H's dim 16
    other = from_entries(product_basis(4, 2, 0), [((1, 2), (), 1.0)])
    with pytest.raises(ParameterError, match=re.escape("psi0 has shape (6,), expected (16,)")):
        evolve_trajectory(H, other, [0.0, 0.5], config, fns)


@pytest.mark.parametrize("amplitudes, norm", [
    (np.ones(16), "4"), (np.full(16, math.nan), "nan"), (np.full(16, math.inf), "inf"),
    (np.sqrt(np.full(16, 1.01 / 16)), "1.00498756211208"),
])
def test_state_that_is_not_normalized_is_refused(amplitudes, norm):
    # on an L = 4 (1, 1) H, np.ones(16) ran and wrote a norm column of 4, NaNs NaN columns
    basis = product_basis(4, 1, 1)
    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=0.0, V=np.zeros(4)), basis)
    with pytest.raises(ParameterError, match=re.escape(f"psi0 has norm {norm}")) as refused:
        evolve_trajectory(H, amplitudes, [0.0, 0.5], PropagatorConfig(),
                          observable_functions(["norm"], basis))
    assert type(refused.value) is ParameterError


@pytest.mark.parametrize("psi0, message", [
    ([[1.0], [0.0, 0.0]], "got a ragged sequence"),
    (["a"] * 16, "got dtype <U1"),
    ([None] * 16, "got dtype object"),
    ([True] + [False] * 15, "got dtype bool"),
])
def test_state_that_is_not_an_array_of_numbers_is_refused(psi0, message):
    # a ragged or str psi0 raised a bare ValueError from np.shape or np.vdot
    basis = product_basis(4, 1, 1)
    H = build_hamiltonian(HubbardParams(L=4, J=1.0, U=0.0, V=np.zeros(4)), basis)
    with pytest.raises(ParameterError, match=re.escape(f"psi0 must be an array of numbers, "
                                                       f"{message}")) as refused:
        evolve_trajectory(H, psi0, [0.0, 0.5], PropagatorConfig(), {})
    assert type(refused.value) is ParameterError


@pytest.mark.parametrize("method", [np.array(["krylov"]), np.array(["krylov", "taylor"])])
def test_method_that_is_not_a_string_is_refused(method):
    # a one-name array was accepted, a longer one raised numpy's bare "truth value is ambiguous"
    with pytest.raises(ParameterError, match="method: must be one of"):
        PropagatorConfig(method=method)


@pytest.fixture
def count_matvecs(monkeypatch):
    """Counts SparseHamiltonian matvecs made while the test runs."""
    calls = [0]
    matvec = SparseHamiltonian.matvec

    def counting(self, x):
        calls[0] += 1
        return matvec(self, x)

    monkeypatch.setattr(SparseHamiltonian, "matvec", counting)
    return calls


def _barrier_sector(L, orientation):
    basis = product_basis(L, 1, 1)
    V = barrier_potential(L, 20.0, orientation)
    return basis, build_hamiltonian(HubbardParams(L=L, J=1.0, U=10.0, V=V), basis)


def _trajectory_error(H, psi0, times, method="krylov"):
    """Per-sample distance of the propagator's states from the dense oracle."""
    config = PropagatorConfig(method=method)
    states = _grid_states(H, psi0, times, config)
    oracle = DensePropagator(H)
    exact = np.array([oracle.advance(psi0, t) for t in times])
    return np.linalg.norm(states - exact, axis=1), config.tolerance


@pytest.mark.parametrize("method", ["dense_eig", "krylov", "taylor"])
def test_trajectory_blocks_cover_the_grid(method, monkeypatch):
    from fermichain import evolution

    basis, H = _barrier_sector(6, "b")
    monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", 3 * basis.dim)  # three states per block
    times = np.concatenate([[0.0], np.cumsum(np.linspace(0.02, 0.4, 16))])  # uneven grid
    err, tol = _trajectory_error(H, named_state(basis, "doublon", 2), times, method)
    assert np.all(err <= tol * times + 1e-13)


@pytest.mark.parametrize("orientation", ["a", "b"])
def test_krylov_trajectory_matches_dense_oracle_with_few_builds(orientation, count_matvecs):
    # the trapping sector: L=20 (1,1), U = h/2 = 10, sampled every 0.05 up to t=15;
    # stepping every sample with a 30-vector basis costs 300 builds (~9000 matvecs)
    basis, H = _barrier_sector(20, orientation)
    times = 0.05 * np.arange(301)
    count_matvecs[0] = 0
    err, tol = _trajectory_error(H, named_state(basis, "doublon", 3), times)
    assert count_matvecs[0] <= 1200
    assert np.all(err <= tol * times + 1e-13)


def test_krylov_exact_sector_needs_one_build(count_matvecs):
    basis, H = _barrier_sector(4, "a")  # dim 16 <= krylov_dim
    times = 0.05 * np.arange(101)
    err, tol = _trajectory_error(H, named_state(basis, "doublon", 1), times)
    assert count_matvecs[0] == basis.dim  # one Lanczos build, one matvec per basis vector
    assert np.all(err <= tol * times + 1e-13)


@pytest.mark.parametrize("krylov_dim", [16, 30])
def test_krylov_config_that_spans_its_sector_takes_the_exact_path(krylov_dim, count_matvecs):
    basis, H = _barrier_sector(4, "a")  # dim 16 <= krylov_dim
    psi0 = named_state(basis, "doublon", 1)
    times = 0.05 * np.arange(101)
    config = PropagatorConfig(krylov_dim=krylov_dim)
    prop = make_propagator(H, config)
    assert isinstance(prop, DensePropagator)
    states = np.concatenate(list(prop.blocks(psi0, times)))
    oracle = DensePropagator(H)
    exact = np.array([oracle.advance(psi0, t) for t in times])
    assert count_matvecs[0] == 0
    assert np.all(np.linalg.norm(states - exact, axis=1) <= config.tolerance * times + 1e-13)


def test_krylov_config_below_its_sector_builds_lanczos_bases(count_matvecs):
    basis, H = _barrier_sector(4, "a")
    config = PropagatorConfig(krylov_dim=basis.dim - 1)
    assert isinstance(make_propagator(H, config), KrylovPropagator)
    evolve_trajectory(H, named_state(basis, "doublon", 1), 0.05 * np.arange(101), config, {})
    assert count_matvecs[0] >= basis.dim - 1


@pytest.mark.parametrize("L", range(1, 7))
def test_plan_names_the_propagator_that_runs(L):
    classes = {"dense_eig": DensePropagator, "krylov": KrylovPropagator,
               "taylor": TaylorPropagator}
    for n_up in range(L + 1):
        for n_down in range(L + 1):
            basis = product_basis(L, n_up, n_down)
            H = build_hamiltonian(HubbardParams(L=L, J=1.0, U=1.0, V=np.arange(L) / L), basis)
            dim = basis.dim
            for method in METHODS:
                for krylov_dim in sorted({2, dim - 1, dim, 30} - {0, 1}):
                    config = PropagatorConfig(method, krylov_dim=krylov_dim)
                    # the documented routing: a Krylov space that spans the sector is the sector
                    spans = method == "krylov" and dim <= min(krylov_dim, DENSE_CAP)
                    expected = DensePropagator if spans else classes[method]
                    chosen = classes[plan(dim, 0, config)[0]]
                    assert type(make_propagator(H, config)) is chosen is expected


def test_dense_rejects_a_non_finite_spectrum():
    with pytest.raises(NumericalError):
        DensePropagator(np.diag([1.0, 2.0, np.nan, 3.0]))


def _direct_phases(evals, times):
    return np.exp(-1j * times[:, None] * evals[..., None, :])


@pytest.mark.parametrize("t_max", [5.0, 30.0, 50.0, 100.0, 7.33])  # 7.33: last sample clipped
def test_anchored_phases_match_direct_exps_on_preset_grids(t_max):
    from fermichain.evolution import _lattice, _phases
    from fermichain.scenarios import _time_grid

    times = _time_grid(t_max, 0.05)
    evals = np.random.default_rng(7).uniform(-60.0, 60.0, (3, 24))
    h, m = _lattice(times)
    assert h == 0.05 and m == len(times) - (t_max == 7.33)
    phases = _phases(evals, times, h, m)
    assert phases.shape == (3, len(times), 24)
    assert np.max(np.abs(phases - _direct_phases(evals, times))) <= 2e-12
    if m < len(times):  # the clipped sample is an exact exp
        assert np.array_equal(phases[:, -1], _direct_phases(evals, times[-1:])[:, 0])


def test_phases_off_a_lattice_are_direct_exps():
    from fermichain.evolution import _lattice, _phases

    evals = np.random.default_rng(8).uniform(-60.0, 60.0, 24)
    uneven = np.concatenate([[0.0], np.cumsum(np.linspace(0.02, 0.4, 16))])
    short = 0.05 * np.arange(10)
    for times in (uneven, short, np.array([0.3])):
        assert np.array_equal(_phases(evals, times, *_lattice(times)),
                              _direct_phases(evals, times))
    assert _lattice(uneven)[1] == 0


def test_dense_blocks_read_anchored_phases_at_their_own_grid_times(monkeypatch):
    from fermichain import evolution

    basis = product_basis(6, 1, 1)
    params = [HubbardParams(L=6, J=1.0, U=U, V=barrier_potential(6, 20.0, "a")) for U in (0, 10)]
    stack = build_hamiltonian(params, basis)
    monkeypatch.setattr(evolution, "_BLOCK_ELEMENTS", 2 * 37 * basis.dim)  # 37 samples a block
    times = 0.05 * np.arange(801)
    psi0 = np.broadcast_to(named_state(basis, "doublon", 1), (2, basis.dim))
    prop = DensePropagator(stack)
    blocks = list(prop.blocks(psi0, times))
    assert [b.shape[-2] for b in blocks[:2]] == [37, 37]
    coef = psi0[:, None, :] @ prop.evecs
    direct = (_direct_phases(prop.evals, times) * coef) @ np.swapaxes(prop.evecs, -1, -2)
    assert np.max(np.abs(np.concatenate(blocks, axis=-2) - direct)) <= 2e-12


def test_krylov_coarse_grid_bisects(monkeypatch):
    # no basis reaches 5/J at this tolerance: a new basis that fails its first
    # sample carries the state part of the way there, and the next basis starts
    # between grid times; covering each 5/J with equal sub-steps, restarted
    # from scratch with twice as many on failure, took 33 builds
    basis, H = _barrier_sector(20, "a")
    starts = []
    lanczos = KrylovPropagator._lanczos

    def building(self, amps):
        starts.append(amps[0].copy())
        return lanczos(self, amps)

    monkeypatch.setattr(KrylovPropagator, "_lanczos", building)
    times = np.array([0.0, 5.0, 10.0, 15.0])
    psi0 = named_state(basis, "doublon", 3)
    err, tol = _trajectory_error(H, psi0, times)
    assert np.all(err <= tol * times + 1e-13)
    assert len(starts) == 21
    oracle = DensePropagator(H)
    on_grid = np.array([oracle.advance(psi0, t) for t in times])
    assert any(np.min(np.linalg.norm(on_grid - v, axis=1)) > 1e-3 for v in starts)


def _trap_stack():
    """The trapping sector L=20 (1,1), U = h/2 = 10, both orientations as one stack."""
    basis = product_basis(20, 1, 1)
    params = [HubbardParams(L=20, J=1.0, U=10.0, V=barrier_potential(20, 20.0, o)) for o in "ab"]
    return basis, params, build_hamiltonian(params, basis)


@pytest.fixture
def krylov_bases(monkeypatch):
    """Per Lanczos build made while the test runs, whether each read of that
    basis kept its first sample within the estimate's budget."""
    bases = []
    lanczos, read = KrylovPropagator._lanczos, KrylovPropagator._read

    def building(self, amps):
        bases.append([])
        return lanczos(self, amps)

    def reading(self, basis, s):
        Y, err = read(self, basis, s)
        bases[-1].append(bool(np.all(err[:, 0] <= self.tolerance * s[0])))
        return Y, err

    monkeypatch.setattr(KrylovPropagator, "_lanczos", building)
    monkeypatch.setattr(KrylovPropagator, "_read", reading)
    return bases


@pytest.mark.parametrize("site, builds", [(1, 14), (4, 16), (9, 20)])
def test_krylov_trap_stack_build_count_and_oracle(site, builds, krylov_bases):
    # the trap_L20 benchmark shape (t_max 15, default settings); a basis serves
    # samples until one fails its estimate: 18, 20 and 23 builds when each basis
    # served a single window
    basis, params, stack = _trap_stack()
    psi0 = named_state(basis, "doublon", site)
    times = 0.05 * np.arange(301)
    config = PropagatorConfig()
    states = _grid_states(stack, psi0, times, config)
    assert len(krylov_bases) == builds
    for r, p in enumerate(params):
        oracle = DensePropagator(build_hamiltonian(p, basis))
        exact = np.array([oracle.advance(psi0, t) for t in times])
        assert np.all(np.linalg.norm(states[r] - exact, axis=1)
                      <= config.tolerance * times + 1e-13)


def test_krylov_reused_basis_that_fails_is_rebuilt_not_bisected(krylov_bases):
    # on a 0.6 grid a fresh basis reaches its first sample but not always the
    # next one: the reused basis then fails its first new sample, and the step
    # restarts from the last state with a new basis instead of bisecting
    basis, H = _barrier_sector(20, "a")
    times = 0.6 * np.arange(11)
    err, tol = _trajectory_error(H, named_state(basis, "doublon", 3), times)
    assert all(reads[0] for reads in krylov_bases)  # every fresh basis reached its first sample
    assert sum(not ok for reads in krylov_bases for ok in reads[1:]) >= 1
    assert np.all(err <= tol * times + 1e-13)


def test_energy_and_s_squared_columns_match_the_fock_oracle():
    # the trapping shape on L=4 (U = h/2 = 10, both orientations as one stack):
    # each sample's columns against <psi|A|psi> with the full-Fock H and S^2
    # restricted to the sector; then the L=20 trap stack, whose doublon starts
    # away from the barrier: energy U, and a doublon is a singlet
    basis = product_basis(4, 1, 1)
    Vs = [barrier_potential(4, 20.0, o) for o in "ab"]
    stack = build_hamiltonian([HubbardParams(L=4, J=1.0, U=10.0, V=V) for V in Vs], basis)
    psi0 = from_entries(basis, [((1,), (1,), 0.8), ((2,), (1,), 0.6j)])
    times = 0.05 * np.arange(41)
    config = PropagatorConfig(method="taylor")
    fns = observable_functions(["energy", "s_squared"], basis, H=stack)
    traj = evolve_trajectory(stack, psi0, times, config, fns)
    states = _grid_states(stack, psi0, times, config)
    E = fock_oracle.sector_embedding(4, basis)
    s2 = E.T @ fock_oracle.full_spin_squared(4) @ E
    for r, V in enumerate(Vs):
        h = fock_oracle.restricted_hamiltonian(4, 1.0, 1.0, 10.0, V, basis)
        for name, op in (("energy", h), ("s_squared", s2)):
            want = np.einsum("ti,ij,tj->t", states[r].conj(), op, states[r]).real
            assert np.max(np.abs(traj.columns[name][r] - want)) <= 1e-12

    basis, params, stack = _trap_stack()
    fns = observable_functions(["energy", "s_squared"], basis, H=stack)
    traj = evolve_trajectory(stack, named_state(basis, "doublon", 4), 0.05 * np.arange(61),
                             PropagatorConfig(), fns)
    assert np.allclose(traj.columns["s_squared"], 0.0, rtol=0, atol=1e-12)  # a doublon is a singlet
    assert np.allclose(traj.columns["energy"], 10.0, rtol=0, atol=1e-9)


def test_krylov_rejects_non_finite_operator():
    H = csr_from_dense(np.diag([1.0, 2.0, np.nan, 3.0]))
    v = np.full(4, 0.5, dtype=complex)
    with pytest.raises(NumericalError):
        KrylovPropagator(H, PropagatorConfig()).advance(v, 0.05)
    with pytest.raises(NumericalError):
        evolve_trajectory(H, v, [0.0, 0.05, 0.1], PropagatorConfig(), {})


# ---------------------------------------------------------------------------
# stacks: runs over one sector propagated together
# ---------------------------------------------------------------------------

_STACK_ROWS = [(U, o) for U in (0.0, 3.5, 10.0) for o in "ab"]


@pytest.mark.parametrize("L", [4, 8])
@pytest.mark.parametrize("method", ["dense_eig", "krylov", "taylor"])
def test_stack_rows_match_single_runs_and_the_oracle(method, L):
    basis = product_basis(L, 1, 1)
    params = [HubbardParams(L=L, J=1.0, U=U, V=barrier_potential(L, 20.0, o))
              for U, o in _STACK_ROWS]
    stack = build_hamiltonian(params, basis)
    assert stack.shape == (len(params), basis.dim, basis.dim)
    psi0 = named_state(basis, "doublon", 1)
    times = np.concatenate([[0.0], np.cumsum(np.linspace(0.05, 0.3, 12))])
    config = PropagatorConfig(method=method)
    jstars = [jstar_site(L, 20.0, o) for _, o in _STACK_ROWS]
    fns = observable_functions(["n_h2", "energy"], basis, H=stack, jstar=jstars)
    traj = evolve_trajectory(stack, psi0, times, config, fns)
    states = _grid_states(stack, psi0, times, config)
    assert states.shape == (len(params), len(times), basis.dim)
    bound = config.tolerance * times + 1e-13
    for r, p in enumerate(params):
        H = build_hamiltonian(p, basis)
        assert np.array_equal(stack.data[r], H.data)
        fns = observable_functions(["n_h2", "energy"], basis, H=H, jstar=jstars[r])
        single = evolve_trajectory(H, psi0, times, config, fns)
        oracle = DensePropagator(H)
        exact = np.array([oracle.advance(psi0, t) for t in times])
        assert np.all(np.linalg.norm(states[r] - exact, axis=1) <= bound)
        assert np.all(np.linalg.norm(states[r] - _grid_states(H, psi0, times, config), axis=1)
                      <= bound)
        for name in ("n_h2", "energy"):
            assert np.allclose(traj.columns[name][r], single.columns[name], rtol=0, atol=1e-9)


def test_stack_row_in_an_invariant_space_stays_exact(count_matvecs):
    # without hopping the doublon is an eigenstate: its row stops after one
    # basis vector while the other row needs steps bounded by its estimate
    L = 8
    basis = product_basis(L, 1, 1)
    V = barrier_potential(L, 20.0, "a")
    params = [HubbardParams(L=L, J=1.0, U=10.0, V=V, j_up=0.0, j_down=0.0),
              HubbardParams(L=L, J=1.0, U=10.0, V=V)]
    stack = build_hamiltonian(params, basis)
    psi0 = named_state(basis, "doublon", 3)
    times = 0.05 * np.arange(101)
    config = PropagatorConfig(krylov_dim=12)  # below dim 64: the moving row has beta > 0
    count_matvecs[0] = 0
    states = _grid_states(stack, psi0, times, config)
    assert count_matvecs[0] > 12  # the moving row needed several bases
    energy = build_hamiltonian(params[0], basis).expectations(psi0[None])[0]
    exact = np.exp(-1j * energy * times)[:, None] * psi0
    assert np.max(np.abs(states[0] - exact)) <= 1e-13
    H = build_hamiltonian(params[1], basis)
    oracle = DensePropagator(H)
    moving = np.array([oracle.advance(psi0, t) for t in times])
    assert np.all(np.linalg.norm(states[1] - moving, axis=1)
                  <= config.tolerance * times + 1e-13)
