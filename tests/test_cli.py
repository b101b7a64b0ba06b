import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermichain
from fermichain import evolution, scenarios
from fermichain.cli import main


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "supp3" in out


def test_simulate_preset(tmp_path, capsys):
    assert main(["simulate", "fig2", "--output", str(tmp_path), "--t-max", "1.0"]) == 0
    csv = (tmp_path / "fig2.csv").read_text().splitlines()
    assert csv[0].startswith("t,n_L_a")
    assert len(csv) == 22  # 21 samples + header


def test_simulate_method_override(tmp_path):
    assert main(["simulate", "fig2", "--output", str(tmp_path), "--t-max", "0.5",
                 "--method", "taylor"]) == 0


def test_simulate_rejects_sweep_preset(tmp_path, capsys):
    assert main(["simulate", "fig4", "--output", str(tmp_path)]) == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_with_value_override(tmp_path):
    assert main(["sweep", "supp3", "--output", str(tmp_path), "--t-max", "10",
                 "--values", "4,6", "--threads", "2"]) == 0
    rows = (tmp_path / "supp3.csv").read_text().splitlines()
    assert rows[0] == "L,t_tr_n_h2_a,t_tr_n_h2_b"
    assert len(rows) == 3
    # the preset names dense_eig; the Lanczos stepper (L = 6, dim 36 > krylov_dim) agrees
    assert main(["sweep", "supp3", "--output", str(tmp_path / "krylov"), "--t-max", "10",
                 "--values", "4,6", "--threads", "2", "--method", "krylov"]) == 0
    assert (tmp_path / "krylov" / "supp3.csv").read_text().splitlines() == rows


def test_sweep_range_override(tmp_path):
    assert main(["sweep", "fig4", "--output", str(tmp_path), "--t-max", "2.0",
                 "--values", "0:2:1"]) == 0
    rows = (tmp_path / "fig4.csv").read_text().splitlines()
    assert len(rows) == 4  # header + U in {0, 1, 2}


@pytest.mark.parametrize("argv", [["simulate", "fig2"], ["sweep", "supp3", "--values", "4,6,8"]])
def test_threads_flag_changes_no_output(tmp_path, argv):
    written = []
    for threads in ([], ["--threads", "2"]):
        out = tmp_path / f"run{len(written)}"
        assert main([*argv, "--output", str(out), *threads]) == 0
        written.append((out / f"{argv[1]}.csv").read_bytes())
    assert written[0] == written[1]


def test_sweep_rejects_scenario_preset(capsys):
    assert main(["sweep", "fig2"]) == 1


def test_sweep_rejects_malformed_values(capsys):
    assert main(["sweep", "fig4", "--values", "a,b"]) == 1
    assert main(["sweep", "fig4", "--values", "0:1:0.5:9"]) == 1


def test_unknown_preset_is_config_error(capsys):
    assert main(["simulate", "nonexistent"]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario:\n  L: 4\n")
    assert main(["simulate", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


_VALID_SCENARIO = {
    "L": "4", "U": "0.0", "h": "10.0", "orientation": "a",
    "initial_state": "{kind: doublon, site: 1}", "t_max": "1.0", "observables": "[n_L]",
}


@pytest.mark.parametrize("override, field", [
    ({"initial_state": "{kind: doublon, site: one}"}, "initial_state.site:"),
    ({"L": ".inf"}, "L:"),
    ({"U": ".nan"}, "U:"),
    ({"h": ".inf"}, "h:"),
    ({"h": ".nan"}, "h:"),
    ({"J": "-.inf"}, "J:"),
    ({"t_max": ".nan"}, "t_max:"),
    ({"sample_dt": ".inf"}, "sample_dt:"),
    ({"propagator": "{tolerance: .inf}"}, "tolerance"),
    ({"propagator": "{krylov_dim: 2.5}"}, "krylov_dim"),
    ({"propagator": "{dt: x}"}, "propagator:"),
    ({"sweep": "{parameter: U, values: {start: a, stop: 2, step: 1}}"}, "sweep.values.start:"),
    ({"sweep": "{parameter: U, values: [0, .nan]}"}, "sweep.values:"),
    ({"sweep": "{parameter: U, values: [0, 1], reduction: {kind: time_average, T: x}}"},
     "sweep.reduction.T:"),
    ({"sweep": "{parameter: U, values: [0, 1], reduction: {kind: trap_time, threshold: x}}"},
     "sweep.reduction.threshold:"),
    ({"sweep": "[U]"}, "'sweep'"),
    ({"L": "4.7"}, "L:"),
    ({"initial_state": "{kind: doublon, site: 1.9}"}, "initial_state.site:"),
    ({"U": "true"}, "U:"),
    ({"sweep": "{parameter: U, values: [true, false]}"}, "sweep.values: U:"),
    ({"propagator": "{dense_cap: x}"}, "dense_cap"),
    ({"t_max": "1e300"}, "t_max / sample_dt:"),
    ({"sample_dt": "1e-300"}, "t_max / sample_dt:"),
    ({"sweep": "{parameter: U, values: {start: 0, stop: 1e12, step: 1e-3}}"}, "sweep.values:"),
    ({"initial_state": '{kind: custom, path: "a\\0b"}'}, "initial_state.path:"),
    ({"h": "20.0", "observables": "[n_h2]", "sweep": "{parameter: h, values: [20, -1]}"},
     "sweep.values: h: must be non-negative"),
    ({"L": "5", "h": "0", "observables": "[n_after]"},
     "observables: n_after needs an even chain, got L=5"),
    ({"h": "0", "observables": "[n_after]",
      "sweep": "{parameter: L, values: [4, 5, 6], reduction: {kind: trajectory}}"},
     "sweep.values: observables: n_after needs an even chain, got L=5"),
    ({"t_max": "10", "sweep": "{parameter: U, values: [0, 1], "
                              "reduction: {kind: time_average, T: 20}}"},
     "sweep.reduction.T: must be at most t_max = 10, got 20"),
    ({"sweep": "{parameter: U, values: [0, 1], reduction: {kind: trap_time}}"},
     "sweep.reduction.column: 'n_h2' matches no trajectory column"),
    ({"sweep": "{parameter: U, values: [1.0000001, 1.0000002], reduction: {kind: trajectory}}"},
     "sweep.values: several values write each of ['bad_U=1.csv']"),
    ({"J": "0"}, "J: must be positive"),
    ({"sweep": "{parameter: U, values: {start: 1e12, stop: 1e12, step: 1e-3}}"},
     "sweep.values: a range must hold 1 to"),
    ({"t_max": "0.05", "propagator": "{method: taylor, dt: 1.0e-300}"},
     "propagator.dt: a taylor run takes at most 1000000 steps, got t_max / dt = 5e+298"),
    ({"L": "62", "initial_state": "{kind: doublon_plus_up, doublon_site: 1, up_site: 2}",
      "propagator": "{method: dense_eig}"},
     "propagator.method: dense_eig is capped at dimension 4096, "
     "the (2, 1) sector of L=62 has 117242"),
    ({"initial_state": "{kind: doublon_plus_up, doublon_site: 1, up_site: 2}",
      "propagator": "{method: dense_eig}", "sweep": "{parameter: L, values: [4, 30]}"},
     "sweep.values: propagator.method: dense_eig is capped at dimension 4096, "
     "the (2, 1) sector of L=30 has 13050"),
    ({"name": "null"}, "name: must be text, got None"),
    ({"name": "true"}, "name: must be text, got True"),
    ({"name": "[a, b]"}, "name: must be text, got ['a', 'b']"),
    ({"name": "{a: 1}"}, "name: must be text, got {'a': 1}"),
    ({"description": "null"}, "description: must be text, got None"),
    ({"description": "false"}, "description: must be text, got False"),
    ({"description": "[x]"}, "description: must be text, got ['x']"),
    ({"description": "{a: 1}"}, "description: must be text, got {'a': 1}"),
    ({"propagator": "{method: taylor, max_taylor_terms: 2}"},
     "propagator: unexpected keys ['max_taylor_terms']"),
    ({"L": "30", "initial_state": "{kind: doublon_plus_up, doublon_site: 1, up_site: 2}",
      "propagator": "{method: dense_eig}", "t_max": "1.0e5", "sample_dt": "0.05"},
     "propagator.method: dense_eig is capped at dimension 4096, the (2, 1) sector of L=30 has "
     "13050; t_max / sample_dt: must be at most 1000000, got 2e+06"),
    ({"L": "1", "h": "0.0",
      "initial_state": "{kind: doublon_plus_up, doublon_site: 1, up_site: 1}"},
     "initial_state: doublon_site and up_site must differ, got 1 for both"),  # an empty sector
    ({"description": "caf\udce9"}, "cannot read config"),  # a byte that is not UTF-8
    ({"U": "[" * 3000 + "]" * 3000}, "nests too deeply to read"),
    ({"sweep": "{parameter: U, values: [" + "[" * 3000 + "]" * 3000 + "]}"},
     "nests too deeply to read"),
    ({"observables": "[n_up_all]",
      "sweep": "{parameter: U, values: [0, 1], reduction: {kind: trap_time, column: n_up}}"},
     "sweep.reduction.column: 'n_up' matches no trajectory column"),  # n_up_1 is not n_up's
])
def test_malformed_config_value_is_config_error(tmp_path, capsys, monkeypatch, override, field):
    def unreachable(*args, **kwargs):
        pytest.fail("a malformed config reached the sector build")

    monkeypatch.setattr(scenarios, "product_basis", unreachable)
    monkeypatch.setattr(scenarios, "build_hamiltonian", unreachable)
    top = {"name": "bad", **{k: v for k, v in override.items() if k in ("name", "description")}}
    fields = dict(_VALID_SCENARIO, **{k: v for k, v in override.items()
                                      if k not in ("sweep", *top)})
    text = "".join(f"{k}: {v}\n" for k, v in top.items()) + "scenario:\n"
    text += "".join(f"  {k}: {v}\n" for k, v in fields.items())
    command = "simulate"
    if "sweep" in override:
        text += f"sweep: {override['sweep']}\n"
        command = "sweep"
    config = tmp_path / "bad.yaml"
    config.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main([command, str(config), "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("payload, field", [
    ('[{"up": [1], "down": [2], "re": 1.0}]', "'entries' list"),
    ('{"entries": [1]}', "entries[0] must be a mapping"),
    ('{"entries": [{"down": [2], "re": 1.0}]}', "entries[0].up"),
    ('{"entries": [{"up": ["x"], "down": [2], "re": 1.0}]}', "entries[0].up"),
    ('{"entries": [{"up": [1, 1], "down": [], "re": 1.0}]}', "repeats a site"),
    ('{"entries": [{"up": [1], "down": [5], "re": 1.0}]}', "outside chain"),
    ('{"entries": [{"up": [0], "down": [2], "re": 1.0}]}', "outside chain"),
    ('{"entries": [{"up": [1], "down": [2], "re": NaN}]}', "finite numbers"),
    ('{"entries": [{"up": [1], "down": [2], "re": "1"}]}', "finite numbers"),
    pytest.param('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 "initial_state.path: ", id="nested"),
])
def test_malformed_custom_state_is_config_error(tmp_path, capsys, payload, field):
    state = tmp_path / "state.json"
    state.write_text(payload)
    fields = dict(_VALID_SCENARIO, initial_state=f"{{kind: custom, path: '{state}'}}")
    config = tmp_path / "bad.yaml"
    config.write_text("name: bad\nscenario:\n" + "".join(f"  {k}: {v}\n" for k, v in fields.items()))
    assert main(["simulate", str(config), "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def _write_config(path, text_fields, name="bad", sweep=None):
    text = f"name: {name}\nscenario:\n" + "".join(f"  {k}: {v}\n" for k, v in text_fields.items())
    if sweep is not None:
        text += f"sweep: {sweep}\n"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("name", ["../escaped", "{tmp}/absolute", "sub/dir", "..", "''"])
def test_output_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    name = name.format(tmp=tmp_path)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "bad.yaml", _VALID_SCENARIO, name=name)
    assert main(["simulate", config, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: name:" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("state, message", [
    ("{kind: singlet, i: 2, j: 2}", "i and j must differ"),
    ("{kind: triplet, i: 3, j: 3}", "i and j must differ"),
    ("{kind: doublon_plus_up, doublon_site: 2, up_site: 2}", "doublon_site and up_site must differ"),
    ("custom", "the custom amplitudes have norm 0.70710678118654757"),
])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unbuildable_initial_state_is_config_error(tmp_path, capsys, monkeypatch, state, message,
                                                  command):
    def unreachable(*args, **kwargs):
        pytest.fail("an unbuildable initial state reached the sector build")

    monkeypatch.setattr(scenarios, "product_basis", unreachable)
    if state == "custom":
        path = tmp_path / "state.json"
        path.write_text('{"entries": [{"up": [1], "down": [2], "re": 0.5},'
                        ' {"up": [2], "down": [1], "re": 0.5}]}')
        state = f"{{kind: custom, path: '{path}'}}"
    fields = dict(_VALID_SCENARIO, initial_state=state)
    sweep = "{parameter: U, values: [0, 1]}" if command == "sweep" else None
    config = _write_config(tmp_path / "bad.yaml", fields, sweep=sweep)
    assert main([command, config, "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: initial_state: {message}" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, preset", [("simulate", "fig2"), ("sweep", "fig4")])
@pytest.mark.parametrize("inside", [False, True])
def test_output_directory_that_cannot_be_made_is_config_error(tmp_path, capsys, monkeypatch,
                                                              command, preset, inside):
    def unreachable(*args, **kwargs):
        pytest.fail("a run without its output directory reached the sector build")

    monkeypatch.setattr(scenarios, "product_basis", unreachable)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if inside else blocker
    assert main([command, preset, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {str(out)!r} cannot be created")
    assert len(err.splitlines()) == 1 and not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("argv, blocked", [
    (["simulate", "fig2", "--t-max", "0.5"], "fig2.csv"),
    (["sweep", "fig4", "--values", "0,1", "--t-max", "1"], "fig4.csv"),
    (["sweep", "{config}"], "traj_U=1.csv"),  # the second value's trajectory file
], ids=["simulate", "sweep", "trajectory-sweep"])
def test_csv_that_cannot_be_written_is_config_error(tmp_path, capsys, monkeypatch, argv, blocked):
    def unreachable(*args, **kwargs):
        pytest.fail("a run with an unwritable output reached the Hamiltonian build")

    config = _write_config(tmp_path / "traj.yaml", _VALID_SCENARIO, name="traj",
                           sweep="{parameter: U, values: [0, 1], reduction: {kind: trajectory}}")
    monkeypatch.setattr(scenarios, "build_hamiltonian", unreachable)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the CSV goes
    argv = [arg.format(config=config) for arg in argv]
    assert main([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {str(out / blocked)!r}: Is a directory\n"
    assert not [path for path in out.rglob("*") if path.is_file()]


@pytest.mark.parametrize("fields, tolerance", [
    ({"sample_dt": "1.0e-7", "t_max": "0.001"}, 1e-10),
    ({"sample_dt": "1.0e-5", "t_max": "0.01", "propagator": "{tolerance: 1.0e-12}"}, 1e-12),
])
def test_krylov_runs_grids_finer_than_the_rounding_of_its_estimate(tmp_path, monkeypatch, fields,
                                                                   tolerance):
    # tolerance * sample_dt is 1e-17 here, below the estimate's rounding (about 5e-17)
    builds = []
    lanczos = evolution.KrylovPropagator._lanczos
    monkeypatch.setattr(evolution.KrylovPropagator, "_lanczos",
                        lambda self, amps: builds.append(1) or lanczos(self, amps))
    fields = dict(_VALID_SCENARIO, L="20", U="10.0", h="20.0", observables="[n_all]", **fields)
    config = _write_config(tmp_path / "fine.yaml", fields, name="fine")
    assert main(["simulate", config, "--output", str(tmp_path / "krylov")]) == 0
    assert main(["simulate", config, "--output", str(tmp_path / "dense"), "--method", "dense"]) == 0
    krylov, dense = (np.loadtxt(tmp_path / d / "fine.csv", delimiter=",", skiprows=1)
                     for d in ("krylov", "dense"))
    # the documented bound on the state: tolerance * t, plus n eps beta ||v|| per basis, with
    # beta <= ||H||_inf = 4 hops + U + h; a site density moves by at most 4 times that
    state = tolerance * krylov[-1, 0] + len(builds) * 30 * np.finfo(float).eps * 34.0
    assert builds and np.max(np.abs(krylov - dense)) <= 4 * state


@pytest.mark.parametrize("argv, field", [
    (["simulate", "fig2", "--t-max", "nan"], "t_max:"),
    (["simulate", "fig2", "--t-max", "inf"], "t_max:"),
    (["simulate", "fig2", "--t-max", "-5"], "t_max: must be positive"),
    (["sweep", "fig4", "--values", "0:1e12:1e-3"], "sweep.values:"),
    (["sweep", "supp3", "--values", "5,7"], "sweep.values: L:"),
])
def test_malformed_override_is_config_error(tmp_path, capsys, argv, field):
    assert main([*argv, "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_dense_override_above_the_cap_is_config_error(tmp_path, capsys, monkeypatch, command):
    def unreachable(*args, **kwargs):
        pytest.fail("an over-cap dense_eig run reached the sector build")

    monkeypatch.setattr(scenarios, "product_basis", unreachable)
    fields = dict(_VALID_SCENARIO, L="30",
                  initial_state="{kind: doublon_plus_up, doublon_site: 1, up_site: 2}")
    sweep = "{parameter: U, values: [0, 1]}" if command == "sweep" else None
    config = _write_config(tmp_path / "big.yaml", fields, sweep=sweep)
    assert main([command, config, "--output", str(tmp_path), "--method", "dense"]) == 1
    err = capsys.readouterr().err
    assert ("config error: propagator.method: dense_eig is capped at dimension 4096, "
            "the (2, 1) sector of L=30 has 13050") in err
    assert "Traceback" not in err and not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("L, sweep, message", [
    ("30", None, "L: the (4, 4) sector of L=30 has dimension 751034025"),
    ("40", None, "L: the (4, 4) sector of L=40 has dimension 8352132100"),
    ("4", "{parameter: L, values: [4, 40]}",
     "sweep.values: L: the (4, 4) sector of L=40 has dimension 8352132100"),
])
def test_sector_above_the_memory_budget_is_config_error(tmp_path, capsys, monkeypatch, L, sweep,
                                                        message):
    # the basis arrays alone of these sectors take 5.6 and 62 GiB: refused before any is built
    def unreachable(*args, **kwargs):
        pytest.fail("an oversized sector reached the sector build")

    monkeypatch.setattr(scenarios, "product_basis", unreachable)
    state = tmp_path / "state.json"
    state.write_text('{"entries": [{"up": [1, 2, 3, 4], "down": [1, 2, 3, 4], "re": 1.0}]}')
    fields = dict(_VALID_SCENARIO, L=L, initial_state=f"{{kind: custom, path: '{state}'}}")
    config = _write_config(tmp_path / "big.yaml", fields, sweep=sweep)
    assert main(["sweep" if sweep else "simulate", config, "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("config error:") == 1 and message in err and "Traceback" not in err
    assert "GiB, more than the budget of 4 GiB" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("fields, code, message", [
    ({"t_max": "0.05", "propagator": "{method: taylor, dt: 1.0e-300}"},
     1, "config error: propagator.dt:"),
    ({"U": "1.0e300", "propagator": "{method: taylor}"},
     2, "numerical failure: taylor step needs more than 4096 substeps"),
])
def test_taylor_run_without_end_is_refused(tmp_path, fields, code, message):
    # in a fresh process with a timeout: a regression fails here instead of hanging
    config = _write_config(tmp_path / "taylor.yaml", dict(_VALID_SCENARIO, **fields))
    src = str(Path(fermichain.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "fermichain.cli", "simulate", config, "--output", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == code
    assert message in done.stderr and "Traceback" not in done.stderr
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
def test_overflowing_hamiltonian_is_a_numerical_failure(tmp_path, method):
    # U + V = 2e308 on the doublon's site: dense_eig wrote an all-NaN CSV with exit 0
    fields = dict(_VALID_SCENARIO, U="1.0e308", h="1.0e308", propagator=f"{{method: {method}}}")
    config = _write_config(tmp_path / "overflow.yaml", fields)
    src = str(Path(fermichain.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "fermichain.cli", "simulate", config, "--output", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "numerical failure: hamiltonian entries are not finite (dimension=16)"]
    assert not list(tmp_path.glob("*.csv"))


def test_values_override_is_checked_with_the_reduction(tmp_path, capsys):
    sweep = "{parameter: U, values: [1, 2], reduction: {kind: trajectory}}"
    config = _write_config(tmp_path / "bad.yaml", _VALID_SCENARIO, sweep=sweep)
    argv = ["sweep", config, "--output", str(tmp_path), "--values", "1.0000001,1.0000002"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "sweep.values: several values write each of" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("option", [
    ["--t-max", "abc"], ["--method", "bogus"], ["--threads", "x"], ["--threads", "-3"],
    ["--threads", "0"],
])
def test_usage_error_exits_1(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "fig2", "--output", str(tmp_path), *option])
    assert exit_.value.code == 1
    assert option[0] in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--help"])
    assert exit_.value.code == 0


def test_tolerance_written_without_a_dot_is_a_number(tmp_path):
    # PyYAML reads 1e-10 as a string and 1.0e-10 as a float; both mean the same
    for tag, tolerance in (("plain", "1e-10"), ("dotted", "1.0e-10")):
        fields = dict(_VALID_SCENARIO, propagator=f"{{method: krylov, tolerance: {tolerance}}}")
        config = tmp_path / f"{tag}.yaml"
        config.write_text(f"name: {tag}\nscenario:\n"
                          + "".join(f"  {k}: {v}\n" for k, v in fields.items()))
        assert main(["simulate", str(config), "--output", str(tmp_path)]) == 0
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "dotted.csv").read_bytes()


def test_linalg_failure_is_numerical_exit_code(monkeypatch, capsys):
    from fermichain import cli

    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "run_scenario", diverge)
    assert main(["simulate", "fig2"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [("simulate", "fig2"), ("sweep", "fig4")])
@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 62.0 GiB")])
def test_out_of_memory_is_numerical_exit_code(monkeypatch, capsys, tmp_path, command, config,
                                              error):
    # a stage that runs out of memory; nothing is allocated for real
    from fermichain import scenarios

    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(scenarios, "build_hamiltonian", exhausted)
    assert main([command, config, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_numerical_failure_exit_code(tmp_path, capsys):
    config = tmp_path / "impossible.yaml"
    config.write_text(
        "name: impossible\n"
        "scenario:\n"
        "  L: 4\n  U: 0.0\n  h: 10.0\n  orientation: a\n"
        "  initial_state: {kind: doublon, site: 1}\n"
        "  t_max: 1.0\n"
        "  propagator: {method: krylov, krylov_dim: 3, tolerance: 1.0e-30}\n"
        "  observables: [n_L]\n"
    )
    assert main(["simulate", str(config), "--output", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_verify_fk_suite(capsys):
    assert main(["verify", "--suite", "fk"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_verify_symmetry_suite(capsys):
    assert main(["verify", "--suite", "symmetry"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("[PASS]")] == [
        "[PASS] propagator mirror identity (100 random barriers)",
        "[PASS] noninteracting symmetry (single particles, superpositions, doublons)",
        "[PASS] triplet symmetry (U in {0.5, 2, 10} J)",
        "[PASS] singlet asymmetry (U=0.5J)",
    ]


def test_verify_failure_exit_code(monkeypatch, capsys):
    from fermichain import cli
    from fermichain.verification import CheckResult

    monkeypatch.setattr(
        cli, "run_suites",
        lambda which: [CheckResult(name="forced failure", passed=False, detail="x")])
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "1/1 checks failed" in captured.err
