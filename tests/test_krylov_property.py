"""Property: the Krylov stepper keeps its error promise across sectors,
couplings, orientations, sample grids and basis sizes.

Two checks on every drawn run, each against DensePropagator:
- every time whose bound KrylovPropagator._accept passes (the integral of the
  error estimate, plus the rounding of the estimate) is within that bound of
  the exact evolution of the state its basis was built from, up to the
  rounding of the two reads, 4 (dim + ||H|| s) eps;
- every sample of the trajectory is within tolerance * t of the exact
  evolution, plus the rounding of the read once per basis.

The horizon is capped per basis size: a 4-vector basis reaches about 1e-4 at
U = h = 30, so it runs only a few hundred bases."""

import numpy as np
import pytest

from fermichain.basis import product_basis
from fermichain.evolution import DensePropagator, KrylovPropagator, PropagatorConfig
from fermichain.hamiltonian import HubbardParams, barrier_potential, build_hamiltonian
from fermichain.scenarios import _time_grid
from fermichain.states import ENTRIES, named_state

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SECTORS = {"doublon": (1, 1), "singlet": (1, 1), "triplet": (1, 1),
           "doublon_plus_up": (2, 1), "single_particle": (1, 0)}
HORIZON = {4: 0.02, 10: 1.0, 30: 5.0}  # longest t_max per krylov_dim
MAX_DIM = 400  # the trap sector's; (2, 1) at L = 10 and 12 (dim 450, 792) costs seconds a run
COUPLING = st.sampled_from([0.0, 30.0]) | st.floats(0.0, 30.0)
GRIDS = st.sampled_from([0.05, 0.6, 5.0]) | st.floats(0.05, 5.0)  # sample_dt


class _Checked(KrylovPropagator):
    """A KrylovPropagator that checks every accepted time against the exact
    evolution of its basis's start, and keeps each basis's rounding."""

    def __init__(self, H, config):
        super().__init__(H, config)
        self.exact = DensePropagator(H)
        self.hnorm = H.inf_norm
        self.starts, self.roundings = [], []

    def _lanczos(self, amps):
        self.starts.append(amps.copy())  # every read is of the latest basis
        basis = super()._lanczos(amps)
        self.roundings.append(basis.rounding)
        return basis

    def _accept(self, basis, s, err, *since):
        ok, area = super()._accept(basis, s, err, *since)
        states = self._states(basis, self._read(basis, s)[0])
        want = np.concatenate(list(self.exact.blocks(self.starts[-1], s)), axis=-2)
        gap = np.linalg.norm(states - want, axis=-1)
        reads = 4 * (self.dim + self.hnorm * s) * np.finfo(np.float64).eps
        bound = area + basis.rounding[:, None] + reads
        assert np.all((gap <= bound)[:, ok]), (
            f"accepted s = {s[ok.nonzero()[0]]} with gap/bound "
            f"{np.max((gap / bound)[:, ok]):.3g}")
        return ok, area


@st.composite
def runs(draw):
    kind = draw(st.sampled_from(sorted(ENTRIES)))
    n_up, n_down = SECTORS[kind]
    krylov_dim = draw(st.sampled_from(sorted(HORIZON)))
    L = draw(st.sampled_from([4, 6, 8, 10, 12]))
    basis = product_basis(L, n_up, n_down)
    hypothesis.assume(krylov_dim < basis.dim <= MAX_DIM)
    n_sites = ENTRIES[kind].__code__.co_argcount
    sites = draw(st.lists(st.integers(1, L), min_size=n_sites, max_size=n_sites, unique=True))
    U, h = draw(COUPLING), draw(COUPLING)
    orientations = draw(st.sampled_from(["a", "b", "ab"]))
    sample_dt = draw(GRIDS)
    t_max = draw(st.just(1.0) | st.floats(0.1, 1.0)) * HORIZON[krylov_dim]
    params = [HubbardParams(L=L, J=1.0, U=U, V=barrier_potential(L, h, o)) for o in orientations]
    H = build_hamiltonian(params if len(params) > 1 else params[0], basis)
    psi0 = named_state(basis, kind, *sites)
    return H, psi0, _time_grid(t_max, sample_dt), PropagatorConfig(krylov_dim=krylov_dim)


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(runs())
def test_krylov_samples_keep_their_bound_and_the_trajectory_its_promise(run):
    H, psi0, times, config = run
    prop = _Checked(H, config)
    amps = np.broadcast_to(psi0, H.shape[:-1])
    states = np.concatenate(list(prop.blocks(amps, times)), axis=-2)
    exact = np.concatenate(list(prop.exact.blocks(amps, times)), axis=-2)
    err = np.linalg.norm(states - exact, axis=-1)
    rounding = len(prop.roundings) * np.max(prop.roundings, initial=0.0)
    assert np.all(err <= config.tolerance * times + rounding + 1e-13)
