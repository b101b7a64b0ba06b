"""Every shipped preset, and the benchmark's gated workloads at fixed seeds,
against the committed regression set in tests/data/.

The propagators promise a state within tolerance * t of the exact one, so a
density or the norm may move by 2 tolerance t (+ 1e-12 for rounding), energy
and S^2 by that bound times their operator's inf-norm; a time average keeps
the bound of its column at the end of its window.  Trap times are grid times
and swept values are inputs, so both must be equal.
"""

import numpy as np
import pytest
from make_preset_data import DATA, EVERY, load, names, preset_csv

from fermichain.basis import product_basis
from fermichain.hamiltonian import (
    HubbardParams,
    barrier_potential,
    build_hamiltonian,
    total_spin_squared,
)
from fermichain.observables import columns
from fermichain.scenarios import SweepConfig

MOVED = ("differs from tests/data/{}.csv; if the physics output moved on purpose, "
         "say why and rerun tests/make_preset_data.py")


def _read(path):
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _operator_norm(run, kind) -> float:
    """The inf-norm of the operator a column of this kind reads; 1 bounds a
    density and the norm."""
    if kind not in ("energy", "s_squared"):
        return 1.0
    basis = product_basis(run.L, *run.initial_state.sector())
    if kind == "s_squared":
        return total_spin_squared(basis).inf_norm
    return build_hamiltonian([HubbardParams(L=run.L, J=run.J, U=run.U,
                                            V=barrier_potential(run.L, run.h, o))
                              for o in ("a", "b")], basis).inf_norm


def _scales(run, names) -> np.ndarray:
    """The operator norm of each named trajectory column of a run."""
    kinds = {name: kind for name, (kind, _, _) in columns(run.observables, run.L).items()}
    if run.orientation == "both":
        kinds = {f"{name}_{o}": kind for name, kind in kinds.items() for o in "ab"}
    norms = {kind: _operator_norm(run, kind) for kind in set(kinds.values())}
    return np.array([norms[kinds[name]] for name in names])


def _limits(config, header, rows) -> np.ndarray:
    """The largest difference each cell of a table may show; 0 where it must be equal."""
    limits = np.zeros(rows.shape)
    if not isinstance(config, SweepConfig):
        tolerance = config.propagator.tolerance
        limits[:, 1:] = (2 * tolerance * rows[:, :1] + 1e-12) * _scales(config, header[1:])
        return limits
    averages = [j for j, name in enumerate(header) if name.startswith("avg_")]
    T = config.reduction.T or config.base.t_max
    for row, run in zip(limits, config.configs):
        scales = _scales(run, [header[j][len("avg_"):] for j in averages])
        row[averages] = (2 * run.propagator.tolerance * T + 1e-12) * scales
    return limits


@pytest.mark.parametrize("name", names())
def test_preset_matches_its_reference(tmp_path, name):
    config = load(name)
    path = preset_csv(config, tmp_path / "first")
    header, got = _read(path)
    want_header, want = _read(DATA / f"{name}.csv")
    assert header == want_header, MOVED.format(name)
    if isinstance(config, SweepConfig):
        second = preset_csv(config, tmp_path / "second")
        assert second.read_bytes() == path.read_bytes()
    else:
        got = got[::EVERY]
    assert got.shape == want.shape, MOVED.format(name)
    limits = _limits(config, header, want)
    close = (np.abs(got - want) <= limits) | (np.isnan(got) & np.isnan(want))
    worst = np.nanmax(np.abs(got - want) - limits)
    assert close.all(), MOVED.format(name) + f" (worst excess over its bound {worst:.3g})"
