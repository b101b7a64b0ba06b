import dataclasses
import json

import numpy as np
import pytest
import yaml

from fermichain import evolution, scenarios
from fermichain.errors import ConfigError, ParameterError
from fermichain.hamiltonian import DENSE_CAP
from fermichain.observables import columns, time_average
from fermichain.scenarios import (
    Reduction,
    ScenarioConfig,
    SweepConfig,
    load_config,
    load_preset,
    preset_names,
    resolve_config,
    run_scenario,
    run_sweep,
    scenario_from_dict,
    write_rows_csv,
)

# time-averaged half-height-site density of the fig5a run over [0, 40/J],
# measured once with the dense oracle and frozen (regression constants)
FIG5A_AVG_N_H2 = {"a": 0.3776754749734487, "b": 0.4972104830963266}


def _scenario_doc(**overrides):
    doc = {
        "L": 4,
        "U": 0.0,
        "h": 10.0,
        "orientation": "both",
        "initial_state": {"kind": "doublon", "site": 1},
        "t_max": 2.0,
        "sample_dt": 0.05,
        "observables": ["n_L"],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# observable tokens
# ---------------------------------------------------------------------------

def test_token_expansion():
    assert list(columns(["n_all"], 4)) == ["n_1", "n_2", "n_3", "n_4"]
    assert columns(["n_down_L", "n_up_2", "norm"], 6) == {
        "n_down_L": ("n_site", 6, "down"), "n_up_2": ("n_site", 2, "up"),
        "norm": ("norm", None, None)}


def test_token_errors():
    with pytest.raises(ParameterError):
        columns(["n_9"], 4)
    with pytest.raises(ParameterError):
        columns(["wibble"], 4)
    with pytest.raises(ParameterError):
        columns(["n_4", "n_4"], 4)  # same column twice
    with pytest.raises(ParameterError):
        columns(["n_after"], 5)  # no barrier midpoint on an odd chain


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_scenario_from_dict_roundtrip():
    config = scenario_from_dict(_scenario_doc(), name="demo")
    assert config.L == 4 and config.orientation == "both"
    assert config.initial_state.sector() == (1, 1)


def test_config_errors_list_fields():
    doc = _scenario_doc()
    del doc["L"]
    doc["orientation"] = "sideways"
    doc["initial_state"] = {"kind": "singlet", "i": 1}
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    message = str(err.value)
    assert "L: missing" in message
    assert "orientation" in message
    assert "initial_state.j" in message


def test_config_rejects_odd_chain_with_barrier():
    with pytest.raises(ConfigError):
        scenario_from_dict(_scenario_doc(L=5))


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(_scenario_doc(tmax=3.0))
    assert "tmax" in str(err.value)


def test_config_rejects_n_h2_without_barrier():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(_scenario_doc(h=0.0, observables=["n_h2"]))
    assert "n_h2" in str(err.value)


def test_load_config_requires_scenario_section(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: x\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_all_presets_load():
    names = preset_names()
    assert {"fig2", "fig3_singlet", "fig3_triplet", "fig4", "fig5a", "fig5b", "fig6",
            "supp3"} <= set(names)
    for name in names:
        config = load_preset(name)
        assert config.name == name


# scalars that YAML resolves by their form, as configs write them
_YAML_SCALARS = ["U: 1e-10", "dt: 1.0e-300", "t: .inf", "x: .nan", "name: 2024", "d: null",
                 "b: true", "s: '1e-10'", "n: 0x10", "o: 0o17", "e: ''", "f: [1, 2.5, -3]",
                 "m: {kind: doublon, site: 1}", "r: {start: 0, stop: 20, step: 0.5}"]


def test_config_reader_parses_as_the_pure_python_reader(tmp_path):
    files = [scenarios._preset_dir() / f"{name}.yaml" for name in preset_names()]
    for k, text in enumerate(_YAML_SCALARS):
        files.append(tmp_path / f"{k}.yaml")
        files[-1].write_text(text + "\n")
    for file in files:
        got, want = scenarios._read_yaml(file), yaml.safe_load(file.read_text())
        assert repr(got) == repr(want), file  # repr: NaN is not equal to itself


def test_deep_config_is_refused_without_libyaml(tmp_path, monkeypatch):
    # the pure-Python parser recurses per level and fails while it reads
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "deep.yaml"
    path.write_text("name: deep\nscenario:\n  U: " + "[" * 1000 + "]" * 1000 + "\n")
    with pytest.raises(ConfigError, match="deep.yaml' nests too deeply to read"):
        load_config(path)


def test_resolve_config_prefers_files(tmp_path):
    path = tmp_path / "mine.yaml"
    path.write_text(
        "name: mine\nscenario:\n  L: 4\n  U: 0.0\n  h: 10.0\n  orientation: a\n"
        "  initial_state: {kind: doublon, site: 1}\n  t_max: 1.0\n  observables: [n_L]\n"
    )
    config = resolve_config(path)
    assert config.name == "mine"
    with pytest.raises(ConfigError):
        resolve_config("no_such_preset")


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------

def test_run_scenario_merges_orientations(tmp_path):
    config = scenario_from_dict(_scenario_doc(), name="demo")
    traj, path = run_scenario(config, output_dir=tmp_path)
    assert list(traj.columns) == ["n_L_a", "n_L_b"]
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header == "t,n_L_a,n_L_b"


def test_csv_determinism_byte_identical(tmp_path):
    config = scenario_from_dict(_scenario_doc(), name="demo")
    _, p1 = run_scenario(config, output_dir=tmp_path / "one")
    _, p2 = run_scenario(config, output_dir=tmp_path / "two")
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_floats_have_17_significant_digits(tmp_path):
    config = scenario_from_dict(_scenario_doc(), name="demo")
    _, path = run_scenario(config, output_dir=tmp_path)
    row = path.read_text().splitlines()[2].split(",")
    assert row[0] == "0.050000000000000003"  # 0.05 at 17 significant digits


def test_csv_columns_format_like_their_first_row(tmp_path):
    floats = [0.1, -0.0, float("nan"), float("inf"), -float("inf"), np.float64(1 / 3),
              5e-324, 1.7976931348623157e308, 123456789012345678.0, 2.0]
    rows = [[np.int64(k), k, "x", v] for k, v in enumerate(floats)]
    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["i", "k", "s", "v"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,k,s,v"
    assert lines[1:] == [f"{k},{k},x,{float(v):.17g}" for k, v in enumerate(floats)]


def test_csv_write_that_fails_is_config_error(tmp_path):
    # a path that turns unwritable after the output directory was checked
    with pytest.raises(ConfigError, match=f"cannot write {str(tmp_path)!r}: Is a directory"):
        write_rows_csv(tmp_path, ["t"], [[0.0]])


def test_single_orientation_has_no_suffix(tmp_path):
    config = scenario_from_dict(_scenario_doc(orientation="a"), name="demo")
    traj, _ = run_scenario(config, output_dir=tmp_path)
    assert list(traj.columns) == ["n_L"]


def test_custom_initial_state_matches_builtin(tmp_path):
    # the singlet written out as an explicit amplitude file
    inv = 1.0 / np.sqrt(2.0)
    payload = {"entries": [
        {"up": [1], "down": [2], "re": inv, "im": 0.0},
        {"up": [2], "down": [1], "re": inv, "im": 0.0},
    ]}
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(payload))
    base = _scenario_doc(L=6, U=0.5, t_max=5.0, observables=["n_after"])
    custom = scenario_from_dict({**base, "initial_state": {"kind": "custom", "path": str(state_path)}},
                                name="custom")
    builtin = scenario_from_dict({**base, "initial_state": {"kind": "singlet", "i": 1, "j": 2}},
                                 name="builtin")
    traj_custom, _ = run_scenario(custom)
    traj_builtin, _ = run_scenario(builtin)
    for col in traj_custom.columns:
        assert np.allclose(traj_custom.columns[col], traj_builtin.columns[col], atol=1e-12)


def test_fig5a_regression_against_frozen_oracle_values():
    config = dataclasses.replace(load_preset("fig5a"), t_max=40.0)
    traj, _ = run_scenario(config)
    for orientation, frozen in FIG5A_AVG_N_H2.items():
        avg = time_average(traj.times, traj.columns[f"n_h2_{orientation}"], 40.0)
        assert abs(avg - frozen) <= 1e-6
        assert avg > 0.2  # sustained elevation at the half-height site


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _mini_sweep(values=(0.0, 1.0, 2.0), reduction=None, t_max=5.0):
    base = scenario_from_dict(_scenario_doc(h=20.0, t_max=t_max, observables=["n_h2", "n_L"]),
                              name="mini")
    return SweepConfig(
        name="mini",
        parameter="U",
        values=tuple(values),
        reduction=reduction or Reduction(kind="time_average", T=t_max),
        base=base,
    )


def test_degenerate_sweep_equals_scenario_reduction():
    sweep = _mini_sweep(values=(1.5,))
    header, rows, _ = run_sweep(sweep)
    config = dataclasses.replace(sweep.base, U=1.5)
    traj, _ = run_scenario(config)
    expected = {f"avg_{name}": time_average(traj.times, col, 5.0)
                for name, col in traj.columns.items()}
    assert header == ["U", *expected]
    assert rows[0][0] == 1.5
    for got, want in zip(rows[0][1:], expected.values()):
        assert got == want


def test_sweep_over_l_with_trap_time():
    base = scenario_from_dict(
        _scenario_doc(h=20.0, U=10.0, t_max=10.0, observables=["n_h2"], orientation="a"),
        name="traps")
    sweep = SweepConfig(name="traps", parameter="L", values=(4, 6),
                        reduction=Reduction(kind="trap_time", threshold=0.01, column="n_h2"),
                        base=base)
    header, rows, _ = run_sweep(sweep)
    assert header == ["L", "t_tr_n_h2"]
    assert rows[0][1] < rows[1][1]  # longer chain traps later


def test_sweep_trap_time_without_crossing_gives_nan():
    base = scenario_from_dict(
        _scenario_doc(h=20.0, U=10.0, t_max=0.3, observables=["n_h2"], orientation="a"),
        name="short")
    sweep = SweepConfig(name="short", parameter="L", values=(6,),
                        reduction=Reduction(kind="trap_time", threshold=0.01, column="n_h2"),
                        base=base)
    _, rows, _ = run_sweep(sweep)
    assert np.isnan(rows[0][1])


def test_sweep_trajectory_reduction_writes_files(tmp_path):
    sweep = _mini_sweep(values=(0.0, 2.0), reduction=Reduction(kind="trajectory"), t_max=1.0)
    header, rows, _ = run_sweep(sweep, output_dir=tmp_path)
    assert header == ["U", "trajectory"]
    for _, rel in rows:
        assert (tmp_path / rel).exists() or (tmp_path / rel).name in rel


@pytest.mark.parametrize("kind", ["time_average", "trajectory"])
def test_sweep_writes_only_its_outputs(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    sweep = _mini_sweep(values=(0.0, 1.0, 2.0), reduction=Reduction(kind=kind), t_max=1.0)
    run_sweep(sweep, output_dir=tmp_path / "out")
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv"))
    expected = [f"out/{sweep.name}.csv"]
    if kind == "trajectory":
        expected += [f"out/{sweep.name}_U={u:g}.csv" for u in sweep.values]
    assert written == sorted(expected)


def test_sweep_reduction_column_must_exist():
    with pytest.raises(ConfigError):
        sweep = _mini_sweep(values=(1.0,), reduction=Reduction(kind="trap_time", column="n_missing"))
        run_sweep(sweep)


def test_fig4_orientations_agree_at_zero_interaction():
    fig4 = load_preset("fig4")
    base = dataclasses.replace(fig4.base, t_max=20.0)
    sweep = dataclasses.replace(fig4, base=base, values=(0.0,),
                                reduction=Reduction(kind="time_average", T=20.0))
    header, rows, _ = run_sweep(sweep)
    row = dict(zip(header, rows[0]))
    assert abs(row["avg_n_L_a"] - row["avg_n_L_b"]) <= 1e-9
    # the half-height site differs per orientation, so its density need not agree
    assert abs(row["avg_n_h2_a"] - row["avg_n_h2_b"]) > 1e-3


# ---------------------------------------------------------------------------
# stacks: which runs propagate together
# ---------------------------------------------------------------------------

def _runs(sweep):
    configs = [dataclasses.replace(sweep.base, **{sweep.parameter: v}) for v in sweep.values]
    return [(c, o) for c in configs for o in ("a", "b")]


def _sizes(stacks):
    return [len(stack) for _, stack in stacks]


def test_small_sector_sweep_is_one_stack():
    sweep = _mini_sweep(values=(0.0, 1.0, 2.0, 3.0))
    stacks = list(scenarios._stacks(_runs(sweep)))
    assert _sizes(stacks) == [8]
    assert [(c.U, o) for c, o in stacks[0][1]] == [(u, o) for u in sweep.values for o in "ab"]


def test_l_sweep_stacks_each_chain_length():
    base = scenario_from_dict(_scenario_doc(h=20.0, U=10.0), name="traps")
    sweep = SweepConfig(name="traps", parameter="L", values=(4, 6, 8), base=base)
    stacks = list(scenarios._stacks(_runs(sweep)))
    assert [basis.L for basis, _ in stacks] == [4, 6, 8]
    assert [[(c.L, o) for c, o in stack] for _, stack in stacks] == [
        [(L, "a"), (L, "b")] for L in (4, 6, 8)]


def test_sector_above_the_dense_cap_runs_alone():
    state = {"kind": "doublon_plus_up", "doublon_site": 13, "up_site": 18}
    base = scenario_from_dict(_scenario_doc(L=30, h=20.0, initial_state=state), name="big")
    sweep = SweepConfig(name="big", parameter="U", values=(0.0, 10.0), base=base)
    assert 30 * 29 // 2 * 30 > DENSE_CAP  # sector (2, 1): dim 13 050
    assert _sizes(scenarios._stacks(_runs(sweep))) == [1, 1, 1, 1]


def test_long_many_value_sweep_splits_into_bounded_stacks():
    observables = ["n_h2", "n_L", "norm", "energy", "n_total"]
    base = scenario_from_dict(_scenario_doc(h=20.0, t_max=100.0, observables=observables),
                              name="long")
    sweep = SweepConfig(name="long", parameter="U", values=tuple(range(2000)), base=base)
    runs = _runs(sweep)
    stacks = list(scenarios._stacks(runs))
    # samples x columns, and the exact path's dim-16 matrix and eigenvectors
    per_run = 2001 * 5 + 2 * 16 * 16
    assert _sizes(stacks) == [99] * 40 + [40]
    assert 99 * per_run <= evolution._BLOCK_ELEMENTS < 100 * per_run
    assert [run for _, stack in stacks for run in stack] == runs


@pytest.mark.parametrize("method, sizes", [("dense_eig", [3, 3, 2]), ("krylov", [8])])
def test_dense_stacks_count_their_matrices(method, sizes):
    # dim 400: a dense_eig run holds two 400 x 400 arrays, a krylov run 30 vectors
    base = scenario_from_dict(_scenario_doc(L=20, h=20.0, propagator={"method": method}),
                              name="trap")
    sweep = SweepConfig(name="trap", parameter="U", values=(0.0, 1.0, 2.0, 3.0), base=base)
    assert _sizes(scenarios._stacks(_runs(sweep))) == sizes


def test_split_sweep_reduces_each_stack_before_later_stacks_run(monkeypatch):
    # stacks of 3 runs split some values' two orientations across stacks
    sweep = _mini_sweep(values=(0.0, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0))
    _, whole, _ = run_sweep(sweep)
    started, at_reduce = [], []
    run_stack, reduce, plan = scenarios._run_stack, scenarios._reduce, scenarios.plan

    def logged_stack(basis, stack):
        started.append(stack)
        return run_stack(basis, stack)

    def logged_reduce(sweep, traj):
        at_reduce.append(len(started))
        return reduce(sweep, traj)

    def three_rows(*args, **kwargs):
        method, _, need = plan(*args, **kwargs)
        return method, 3, need

    monkeypatch.setattr(scenarios, "_run_stack", logged_stack)
    monkeypatch.setattr(scenarios, "_reduce", logged_reduce)
    monkeypatch.setattr(scenarios, "plan", three_rows)
    _, split, _ = run_sweep(sweep)
    assert len(started) == 5
    needed = [(2 * i + 1) // 3 + 1 for i in range(len(sweep.values))]  # the stack of value i's run b
    assert at_reduce == needed
    assert np.allclose(np.array(split), np.array(whole), rtol=0, atol=1e-9)


@pytest.mark.parametrize("parameter, values", [("U", (0.0, 1.0, 2.0)), ("L", (4, 6, 8))])
def test_each_stack_builds_its_basis_when_it_is_reached(monkeypatch, parameter, values):
    # a U sweep is one stack, an L sweep one stack per value
    sweep = dataclasses.replace(_mini_sweep(values=values, t_max=1.0), parameter=parameter)
    events = []
    product_basis, run_stack = scenarios.product_basis, scenarios._run_stack

    def logged_basis(*args):
        events.append("basis")
        return product_basis(*args)

    def logged_stack(basis, stack):
        events.append("stack")
        return run_stack(basis, stack)

    monkeypatch.setattr(scenarios, "product_basis", logged_basis)
    monkeypatch.setattr(scenarios, "_run_stack", logged_stack)
    run_sweep(sweep)
    assert events == ["basis", "stack"] * (1 if parameter == "U" else len(values))


def test_empty_sweep_values_are_config_error():
    with pytest.raises(ConfigError, match="sweep.values: must hold at least one value"):
        sweep = dataclasses.replace(load_preset("fig4"), values=())
        run_sweep(sweep)


# ---------------------------------------------------------------------------
# a config that exists has been checked
# ---------------------------------------------------------------------------

def _unreachable(*args, **kwargs):
    pytest.fail("a refused config reached the sector build")


@pytest.mark.parametrize("changes, message", [
    ({"t_max": -5.0}, "t_max: must be positive, got -5.0"),
    ({"t_max": 1.0, "sample_dt": 1e-7}, "t_max / sample_dt: must be at most 1000000, got 1e+07"),
    ({"L": 7}, "L: barrier runs need even L >= 4, got 7"),
    ({"observables": ("bogus",)}, "observables: unknown observable token 'bogus'"),
    ({"description": ["x"]}, "description: must be text, got ['x']"),
])
def test_replaced_scenario_is_checked(monkeypatch, changes, message):
    monkeypatch.setattr(scenarios, "product_basis", _unreachable)
    config = load_preset("fig2")  # a barrier run
    with pytest.raises(ConfigError) as refused:
        run_scenario(dataclasses.replace(config, **changes))
    assert str(refused.value) == message


@pytest.mark.parametrize("name", ["../escaped", "a/b", "", ".."])
def test_made_config_name_must_be_a_plain_file_name(tmp_path, monkeypatch, name):
    # the name is the stem of every file a run writes, a trajectory sweep's per-value files too
    monkeypatch.setattr(scenarios, "product_basis", _unreachable)
    sweep = _mini_sweep()
    runs = [(run_scenario, load_preset("fig2")), (run_sweep, sweep),
            (run_sweep, dataclasses.replace(sweep, reduction=Reduction("trajectory")))]
    for run, config in runs:
        with pytest.raises(ConfigError, match="name: must be a plain file name"):
            run(dataclasses.replace(config, name=name), output_dir=tmp_path / "n")
    assert list(tmp_path.rglob("*")) == []


def test_replaced_field_stores_its_checked_value():
    config = dataclasses.replace(load_preset("fig2"), L="6", t_max="1e-1")
    assert (config.L, config.t_max) == (6, 0.1)


@pytest.mark.parametrize("changes, message", [
    ({"reduction": Reduction("bogus")}, "sweep.reduction.kind: must be one of"),
    ({"parameter": "J"}, "sweep.parameter: must be one of"),
])
def test_replaced_sweep_is_checked(monkeypatch, changes, message):
    monkeypatch.setattr(scenarios, "product_basis", _unreachable)
    with pytest.raises(ConfigError, match=message):
        run_sweep(dataclasses.replace(_mini_sweep(), **changes))


def test_sweep_checks_each_scenario_once_when_made(monkeypatch):
    calls = []
    check = scenarios.check_config
    monkeypatch.setattr(scenarios, "check_config", lambda config: calls.append(1) or check(config))
    sweep = load_preset("fig4")
    assert len(calls) == 1 + len(sweep.values) == 42
    assert [c.U for c in sweep.configs] == list(sweep.values)
    run_sweep(sweep)
    assert len(calls) == 42


def _sweep_doc(T, t_max):
    return {"name": "window", "scenario": _scenario_doc(t_max=t_max),
            "sweep": {"parameter": "U", "values": [0, 1],
                      "reduction": {"kind": "time_average", "T": T}}}


def test_time_average_window_off_the_sample_grid_is_config_error(monkeypatch):
    # the grid of t_max 1 and sample_dt 0.05 has no time 0.07: time_average cannot read [0, 0.07]
    monkeypatch.setattr(scenarios, "product_basis", _unreachable)
    with pytest.raises(ConfigError, match=r"sweep\.reduction\.T: must be a sample time "
                                          r"\(a multiple of sample_dt = 0\.05, or t_max\), got 0\.07"):
        load_config(_sweep_doc(T=0.07, t_max=1.0))


@pytest.mark.parametrize("T, t_max", [(0.15, 1.0), (1.03, 1.03)])
def test_time_average_window_on_the_sample_grid_runs(T, t_max):
    # 3 * 0.05 rounds above 0.15; a t_max off the sample_dt lattice ends the grid itself
    header, rows, _ = run_sweep(load_config(_sweep_doc(T=T, t_max=t_max)))
    assert header == ["U", "avg_n_L_a", "avg_n_L_b"] and len(rows) == 2


def test_time_average_over_columns_that_change_with_the_value_is_config_error(monkeypatch):
    # n_all has one column per site: a table over L = 4 and 6 would have rows of 9 and 13 values
    monkeypatch.setattr(scenarios, "product_basis", _unreachable)
    doc = {"name": "lengths", "scenario": _scenario_doc(observables=["n_all"]),
           "sweep": {"parameter": "L", "values": [4, 6, 8]}}
    with pytest.raises(ConfigError) as refused:
        load_config(doc)
    assert str(refused.value).splitlines()[1:] == [
        "  sweep.values: a time_average table needs the same columns for every value; "
        f"L=4 has {[f'n_{j}_{o}' for o in 'ab' for j in range(1, 5)]}, "
        f"L=6 has {[f'n_{j}_{o}' for o in 'ab' for j in range(1, 7)]}"]


@pytest.mark.parametrize("cls, table", [
    (ScenarioConfig, {}), (SweepConfig, {}), (Reduction, {}),
    (evolution.PropagatorConfig, scenarios._PROPAGATOR),
])
def test_every_config_field_has_a_rule(cls, table):
    # a config field names its check where it is declared; the propagator's fields, which
    # evolution declares, are read by the propagator section's table
    read = {name: check for name, (check, _) in table.items()}
    assert [f.name for f in dataclasses.fields(cls)
            if f.init and not callable(f.metadata.get("rule", read.get(f.name)))] == []
