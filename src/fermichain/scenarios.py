"""Config-driven experiment runner: scenarios, parameter sweeps, presets, CSV output.

Configs are YAML documents (see presets/ for the shipped ones).  A scenario
evolves one initial state for one or both barrier orientations and samples
observables on a fixed grid; a sweep repeats a base scenario over a list of
U, h or L values and reduces each run to one row.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import inspect
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import groupby
from pathlib import Path

import numpy as np
import yaml

from .basis import MAX_SITES, ProductBasis, product_basis
from .errors import CapacityError, ConfigError, ParameterError
from .evolution import (
    MAX_TAYLOR_STEPS,
    PropagatorConfig,
    Trajectory,
    evolve_trajectory,
    plan,
)
from .hamiltonian import (
    BARRIER_ORIENTATIONS,
    HubbardParams,
    barrier_potential,
    build_hamiltonian,
    jstar_site,
)
from .observables import (
    TRAP_COLUMN,
    columns,
    observable_functions,
    time_average,
    trap_time,
)
from .states import ENTRIES, check_entries, from_entries

ORIENTATIONS = (*BARRIER_ORIENTATIONS, "both")
SWEEP_PARAMETERS = ("U", "h", "L")
REDUCTIONS = ("time_average", "trap_time", "trajectory")
MAX_POINTS = 1_000_000  # samples of one time grid, values of one range sweep
MEMORY_BUDGET = 4 << 30  # bytes one stack may need; a sector that needs more is refused


# ---------------------------------------------------------------------------
# configuration: each config field names its rule, run whenever a config is made
#
# A rule turns a value, as YAML or code gives it, into the field's value or
# raises ValueError; a section's rule takes the object the section builds, or
# reads a mapping into one and raises ConfigError naming the section's fields.
# ---------------------------------------------------------------------------

def _real(value) -> float:
    """A finite number; numeric strings count, because YAML reads 1e-10 as one."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"must be finite, got {value!r}")
    return out


def _integer(value) -> int:
    out = _real(value)
    if not out.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(out)


def _positive(value) -> float:
    out = _real(value)
    if out <= 0:
        raise ValueError(f"must be positive, got {value!r}")
    return out


def _text(value) -> str:
    """Text; a number counts, as YAML reads an unquoted 2024 as one."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"must be text, got {value!r}")
    return str(value)


def _file_name(value) -> str:
    name = _text(value)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValueError(f"must be a plain file name (no path separator, "
                         f"not '.' or '..'), got {name!r}")
    return name


def _one_of(*choices):
    def check(value):
        if value not in choices:
            raise ValueError(f"must be one of {list(choices)}, got {value!r}")
        return value
    return check


def _tokens(value) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"must be a non-empty list, got {value!r}")
    return tuple(str(token) for token in value)


_TOP_LEVEL = ("name", "description", "scenario", "sweep")  # a field so named is labelled alone


def _fields(doc, table: dict, label: str, errors: list) -> dict:
    """The checked values of the keys of doc read with table; problems are appended to errors."""
    at = f"{label}: " if label else ""
    if not isinstance(doc, dict):
        errors.append(f"{at}must be a mapping, got {doc!r}")
        return {}
    unknown = sorted(str(key) for key in doc if key not in table)
    if unknown:
        errors.append(f"{at}unexpected keys {unknown}")
    out = {}
    for key, (check, required) in table.items():
        name = f"{label}.{key}" if label and key not in _TOP_LEVEL else key
        if key not in doc:
            if required:
                errors.append(f"{name}: missing")
            continue
        try:
            out[key] = check(doc[key])
        except ConfigError as exc:
            errors.append(str(exc))
        except ValueError as exc:
            errors.append(f"{name}: {exc}")
        except RecursionError:  # libyaml reads any depth; a check, or its repr, recurses
            errors.append(f"{name}: nests too deeply to read")
    return out


def _read(doc, table: dict, label: str, build, header: str = "", error=ConfigError):
    """build(**fields) of the mapping doc read with table; its problems raise one error,
    a line each under header if one is given."""
    errors: list[str] = []
    fields = _fields(doc, table, label, errors)
    if errors:
        raise error(f"{header}:\n  " + "\n  ".join(errors) if header else "; ".join(errors))
    return build(**fields)


def _rule(check, default=dataclasses.MISSING):
    """A config field read by check; a field without a default is required."""
    return field(default=default, metadata={"rule": check})


@functools.cache
def _rules(cls) -> dict:
    """The table of a config class: key -> (check, required) of each init field."""
    return {f.name: (f.metadata["rule"], f.default is dataclasses.MISSING)
            for f in dataclasses.fields(cls) if f.init}


def _load(cls, doc, label: str, header: str = "", **given):
    """A cls made from the given fields and the mapping doc, whose keys are the other fields."""
    table = {key: rule for key, rule in _rules(cls).items() if key not in given}
    return _read(doc, table, label, functools.partial(cls, **given), header)


def _check_fields(config, label: str = "", header: str = "") -> None:
    """Store in config what the rule of each of its fields returns, or raise ConfigError."""
    table = _rules(type(config))
    for key, value in _read({key: getattr(config, key) for key in table}, table, label, dict,
                            header).items():
        object.__setattr__(config, key, value)


@dataclass(frozen=True)
class InitialState:
    """A kind of INITIAL_STATES with the fields the user wrote and its entries
    (up sites, down sites, amplitude), as states.from_entries builds them;
    site labels are 1-based."""

    kind: str
    fields: dict
    entries: tuple

    def sector(self) -> tuple[int, int]:
        up, down, _ = self.entries[0]
        return len(up), len(down)


def _custom_entry(k: int, e) -> tuple:
    """One entry of a custom initial-state file, (up, down, amplitude), as check_config reads it."""
    label = f"entries[{k}]"
    if not isinstance(e, dict):
        raise ValueError(f"{label} must be a mapping with 'up', 'down', 're', 'im'")
    parts = [e.get(key, 0.0) for key in ("re", "im")]
    try:
        if any(isinstance(v, str) for v in parts):  # JSON, unlike YAML, has no numbers as text
            raise ValueError
        amp = complex(*map(_real, parts))
    except ValueError:
        raise ValueError(f"{label}: re and im must be finite numbers, got {parts}") from None
    return e.get("up"), e.get("down"), amp


def _custom_entries(path) -> tuple[tuple, ...]:
    """The entries of a custom initial-state JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path!r} nests too deeply to read") from None
    except (OSError, TypeError, ValueError) as exc:  # also a NUL byte, undecodable text
        raise ValueError(f"cannot read {path!r}: {exc}") from None
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path!r} must hold a non-empty 'entries' list")
    return tuple(_custom_entry(k, e) for k, e in enumerate(entries))


# kind -> (fields, its entries from the field values): a named kind's fields are
# the sites its states.ENTRIES function takes; custom's path check reads the entries
INITIAL_STATES = {kind: ({name: (_integer, True) for name in inspect.signature(fn).parameters}, fn)
                  for kind, fn in ENTRIES.items()}
INITIAL_STATES["custom"] = ({"path": (_custom_entries, True)}, lambda entries: entries)


def _entries_problem(state: InitialState, L: int | None) -> str | None:
    """What check_entries refuses in a state's entries on L sites, in the words of its fields."""
    try:
        check_entries(state.entries, L)
    except ParameterError as exc:
        values = list(state.fields.values())
        same = [key for key, value in state.fields.items() if values.count(value) > 1]
        if same and "repeat" in str(exc):  # a named kind's entries repeat where two fields meet
            return f"{' and '.join(same)} must differ, got {state.fields[same[0]]} for both"
        return f"the {state.kind} {exc}"
    return None


def _initial_state(doc) -> InitialState:
    """An InitialState, or a mapping read into one; its entries are checked, on
    the scenario's chain, by check_config."""
    if isinstance(doc, InitialState):  # made in code
        if not isinstance(doc.fields, dict):
            raise ValueError(f"fields must be a mapping, got {doc.fields!r}")
        return doc
    if not isinstance(doc, dict):
        raise ValueError(f"must be a mapping with a 'kind' key, got {doc!r}")
    kind = _one_of(*INITIAL_STATES)(doc.get("kind"))
    rest = {key: value for key, value in doc.items() if key != "kind"}
    table, entries = INITIAL_STATES[kind]
    return _read(rest, table, "initial_state",
                 lambda **fields: InitialState(kind, fields, entries(*fields.values())))


# a propagator section as YAML gives it; PropagatorConfig states which values it takes
_PROPAGATOR = {
    "method": (lambda method: method, False),
    "dt": (_real, False),
    "tolerance": (_real, False),
    "krylov_dim": (_integer, False),
}


def _propagator(doc) -> PropagatorConfig:
    if isinstance(doc, PropagatorConfig):
        return doc
    # a ValueError, which the scenario's table names after the key: "propagator: dt: ..."
    return _read(doc, _PROPAGATOR, "", PropagatorConfig, error=ValueError)


def _arange(start: float, stop: float, step: float) -> list:
    values = []  # also when start + step rounds to start: np.arange is then empty
    if 0 <= (stop - start) / step < MAX_POINTS:
        values = np.arange(start, stop + step * 1e-9, step).tolist()
    if not values:
        raise ValueError(f"a range must hold 1 to {MAX_POINTS} values")
    return values


_RANGE = {"start": (_real, True), "stop": (_real, True), "step": (_positive, True)}


def _values(spec) -> list:
    """Swept values before each is checked as its scenario field."""
    if isinstance(spec, dict):
        return _read(spec, _RANGE, "sweep.values", _arange)
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ValueError(f"must hold at least one value (a list or a range), got {spec!r}")
    return spec


@dataclass(frozen=True)
class ScenarioConfig:
    """An evolution run (or an a/b orientation pair) with sampled observables, checked when made."""

    L: int = _rule(_integer)
    U: float = _rule(_real)
    h: float = _rule(_real)
    initial_state: InitialState = _rule(_initial_state)
    t_max: float = _rule(_positive)
    observables: tuple[str, ...] = _rule(_tokens)
    name: str = _rule(_file_name, "scenario")
    orientation: str = _rule(_one_of(*ORIENTATIONS), "both")
    J: float = _rule(_positive, 1.0)
    sample_dt: float = _rule(_positive, 0.05)
    propagator: PropagatorConfig = _rule(_propagator, PropagatorConfig())
    description: str = _rule(_text, "")

    def __post_init__(self):
        _check_fields(self)
        check_config(self)


@dataclass(frozen=True)
class Reduction:
    kind: str = _rule(_one_of(*REDUCTIONS))
    T: float | None = _rule(_positive, None)  # None: over the whole run
    threshold: float = _rule(_positive, 0.01)
    column: str = _rule(str, TRAP_COLUMN)


def _reduction(value) -> Reduction:
    """A Reduction, unchecked until a sweep reads it, read as its fields (T None is unset),
    or a mapping read into one."""
    if isinstance(value, Reduction):
        value = {key: v for key, v in vars(value).items() if v is not None}
    return _load(Reduction, value, "sweep.reduction")


def _scenario(value) -> ScenarioConfig:
    if not isinstance(value, ScenarioConfig):
        raise ValueError(f"must be a ScenarioConfig, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepConfig:
    """A base scenario repeated over values of one parameter, checked when made by the
    rules of its fields and by _swept_configs, which makes configs: each value's scenario."""

    name: str = _rule(_file_name)
    parameter: str = _rule(_one_of(*SWEEP_PARAMETERS))
    values: tuple = _rule(_values)
    base: ScenarioConfig = _rule(_scenario)
    reduction: Reduction = _rule(_reduction, Reduction("time_average"))
    description: str = _rule(_text, "")
    configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_fields(self, "sweep", "invalid sweep config")
        object.__setattr__(self, "configs", tuple(_swept_configs(self)))
        object.__setattr__(self, "values", tuple(getattr(c, self.parameter) for c in self.configs))


def check_config(config: ScenarioConfig) -> None:
    """The cross-field checks of a scenario, run by ScenarioConfig on every
    config it makes; raises ConfigError naming each offending field."""
    errors = []
    L, h, prop = config.L, config.h, config.propagator
    if h < 0:
        errors.append(f"h: must be non-negative, got {h}")
    chain = 1 <= L <= MAX_SITES
    if not chain:
        errors.append(f"L: must lie in [1, {MAX_SITES}], got {L}")
    else:
        if h > 0 and (L % 2 or L < 4):
            errors.append(f"L: barrier runs need even L >= 4, got {L}")
        try:
            columns(config.observables, L, barrier=h > 0)
        except ParameterError as exc:
            errors.append(f"observables: {exc}")
    if problem := _entries_problem(config.initial_state, L if chain else None):
        errors.append(f"initial_state: {problem}")
    elif chain:  # sector() reads the checked entries
        sector = config.initial_state.sector()
        dim = math.comb(L, sector[0]) * math.comb(L, sector[1])
        try:  # each particle hops to at most two sites: nnz <= dim (1 + 2 N)
            _, _, need = plan(dim, 0, prop, nnz=dim * (1 + 2 * sum(sector)))
        except CapacityError as exc:  # plan's message, naming the sector
            errors.append(f"propagator.method: {exc}".replace("sector", f"{sector} sector of L={L}"))
        else:
            if need > MEMORY_BUDGET:
                errors.append(f"L: the {sector} sector of L={L} has dimension {dim}; a stack "
                              f"of it needs {need / 2**30:.1f} GiB, more than the budget of "
                              f"{MEMORY_BUDGET / 2**30:g} GiB")
    if (points := config.t_max / config.sample_dt) > MAX_POINTS:
        errors.append(f"t_max / sample_dt: must be at most {MAX_POINTS}, got {points:g}")
    if prop.method == "taylor" and (steps := config.t_max / prop.dt) > MAX_TAYLOR_STEPS:
        errors.append(f"propagator.dt: a taylor run takes at most {MAX_TAYLOR_STEPS} steps, "
                      f"got t_max / dt = {steps:g}")
    if errors:
        raise ConfigError("; ".join(errors))


def scenario_from_dict(doc: dict, name: str = "scenario", description: str = "") -> ScenarioConfig:
    return _load(ScenarioConfig, doc, "", "invalid scenario config", name=name,
                 description=description)


def _trajectory_columns(config: ScenarioConfig) -> list[str]:
    """The columns of a scenario's trajectory: its observables' columns, or with
    orientation 'both' each of them once with suffix _a and once with _b."""
    names = list(columns(config.observables, config.L))
    if config.orientation != "both":
        return names
    return [f"{name}_{o}" for o in _orientations(config) for name in names]


def _matches(name: str, column: str) -> bool:
    """Whether a trap-time reduction of `column` reads `name`: itself or its _a/_b column."""
    return name in (column, f"{column}_a", f"{column}_b")


def _trajectory_file(sweep: str, parameter: str, value) -> str:
    """The file a trajectory sweep writes for one value."""
    tag = f"{parameter}={value:g}" if parameter != "L" else f"L={value}"
    return f"{sweep}_{tag}.csv"


def _swept_configs(sweep: SweepConfig) -> list[ScenarioConfig]:
    """The scenario of each swept value, checked with the reduction that reads
    it; raises ConfigError naming each offending field."""
    errors, configs = [], []
    red, base = sweep.reduction, sweep.base
    if red.kind == "time_average" and red.T is not None:
        try:  # time_average reads [0, T] only if T is a time of the sample grid
            times = _time_grid(base.t_max, base.sample_dt)
            time_average(times, times, red.T)
        except ParameterError:
            rule = (f"at most t_max = {base.t_max:g}" if red.T > base.t_max else
                    f"a sample time (a multiple of sample_dt = {base.sample_dt:g}, or t_max)")
            errors.append(f"sweep.reduction.T: must be {rule}, got {red.T:g}")
    tables = {}  # each set of trajectory columns -> the first value that has it
    for value in sweep.values:
        try:
            config = dataclasses.replace(base, **{sweep.parameter: value})
        except ConfigError as exc:
            errors.append(f"sweep.values: {exc}")
            continue
        configs.append(config)
        names = _trajectory_columns(config)
        tables.setdefault(tuple(names), getattr(config, sweep.parameter))
        if red.kind == "trap_time":
            unread = (f"sweep.reduction.column: {red.column!r} matches no trajectory "
                      f"column at L={config.L} (have {names})")
            if unread not in errors and not any(_matches(n, red.column) for n in names):
                errors.append(unread)
    if red.kind == "time_average" and len(tables) > 1:
        (a, at), (b, bt) = list(tables.items())[:2]
        errors.append(f"sweep.values: a time_average table needs the same columns for every "
                      f"value; {sweep.parameter}={at} has {list(a)}, {sweep.parameter}={bt} "
                      f"has {list(b)}")
    values = [getattr(config, sweep.parameter) for config in configs]
    if len(set(values)) < len(values):
        errors.append("sweep.values: values must be distinct")
    elif red.kind == "trajectory":
        files = Counter(_trajectory_file(sweep.name, sweep.parameter, v) for v in values)
        if twice := sorted(path for path, n in files.items() if n > 1):
            errors.append(f"sweep.values: several values write each of {twice}; "
                          f"their file names must differ")
    if errors:
        raise ConfigError("invalid sweep config:\n  " + "\n  ".join(errors))
    return configs


def _read_yaml(file):
    """The document of a YAML file (a Path or a package resource), parsed by
    libyaml where PyYAML was built with it."""
    try:
        return yaml.load(file.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {str(file)!r}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {str(file)!r} is not valid YAML: {exc}") from None
    except RecursionError:  # the pure-Python parser recurses per level
        raise ConfigError(f"config {str(file)!r} nests too deeply to read") from None


def load_config(source) -> ScenarioConfig | SweepConfig:
    """Parse a YAML document (path or mapping) into a scenario or sweep config."""
    doc = _read_yaml(Path(source)) if isinstance(source, (str, Path)) else source
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ConfigError("config must be a mapping with a 'scenario' section")
    for section in ("scenario", "sweep"):
        if section in doc and not isinstance(doc[section], dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
    if unknown := sorted(str(key) for key in doc if key not in _TOP_LEVEL):
        raise ConfigError(f"unexpected keys {unknown}")
    base = scenario_from_dict(doc["scenario"], doc.get("name", "run"), doc.get("description", ""))
    if "sweep" not in doc:
        return base
    return _load(SweepConfig, doc["sweep"], "sweep", "invalid sweep config",
                 name=base.name, description=base.description, base=base)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _time_grid(t_max: float, sample_dt: float) -> np.ndarray:
    n = max(1, int(np.ceil(t_max / sample_dt - 1e-9)))
    times = sample_dt * np.arange(n + 1)
    if times[-1] > t_max:
        times[-1] = t_max
    return times


def _orientations(config: ScenarioConfig) -> list[str]:
    return list(BARRIER_ORIENTATIONS) if config.orientation == "both" else [config.orientation]


def _stacks(runs: list[tuple[ScenarioConfig, str]]):
    """Split (config, orientation) runs, in order, into stacks that propagate
    together; yields (basis, stack) pairs.

    A stack holds consecutive runs that differ at most in U, h and
    orientation, so they share one sector and one Hamiltonian pattern, and
    at most the rows of the sector's evolution.plan, so a stack's samples and
    propagator arrays stay bounded however many values a sweep has.
    """
    for _, group in groupby(runs, key=lambda run: tuple(
            value for key, value in vars(run[0]).items() if key not in ("U", "h", "orientation"))):
        group = list(group)
        config = group[0][0]
        basis = product_basis(config.L, *config.initial_state.sector())
        sampled = (len(_time_grid(config.t_max, config.sample_dt))
                   * len(columns(config.observables, config.L)))
        size = plan(basis.dim, sampled, config.propagator)[1]
        for lo in range(0, len(group), size):
            yield basis, group[lo:lo + size]


def _run_stack(basis: ProductBasis, stack: list[tuple[ScenarioConfig, str]]) -> Trajectory:
    """Propagate the runs of one stack together; run r is row r of each column."""
    config = stack[0][0]
    params, jstars = [], []
    for run, orientation in stack:
        barrier = run.h > 0
        V = barrier_potential(run.L, run.h, orientation) if barrier else np.zeros(run.L)
        params.append(HubbardParams(L=run.L, J=run.J, U=run.U, V=V))
        jstars.append(jstar_site(run.L, run.h, orientation) if barrier else None)
    H = build_hamiltonian(params, basis)
    psi0 = from_entries(basis, config.initial_state.entries)

    fns = observable_functions(config.observables, basis, H=H,
                               jstar=None if None in jstars else jstars)
    times = _time_grid(config.t_max, config.sample_dt)
    return evolve_trajectory(H, psi0, times, config.propagator, fns)


def _run_configs(configs: list[ScenarioConfig]):
    """Yield one trajectory per config, in order, its orientations merged as
    in run_scenario.  The runs (one per orientation) propagate in stacks, one
    after another, and a stack's basis is built when the stack is reached."""
    runs = [(config, o) for config in configs for o in _orientations(config)]
    done = ((traj, r) for basis, stack in _stacks(runs)
            for traj in [_run_stack(basis, stack)] for r in range(len(stack)))
    for config in configs:
        rows = [next(done) for _ in _orientations(config)]
        cols = (col[r] for traj, r in rows for col in traj.columns.values())
        yield Trajectory(rows[0][0].times, dict(zip(_trajectory_columns(config), cols, strict=True)))


def _output_dir(output_dir, files) -> Path | None:
    """output_dir, created before anything runs, with each of the files the run
    will write there checked; a directory that cannot be made or a file that
    cannot be written is a ConfigError, as write_rows_csv words it, and an
    output_dir that is not a path a ParameterError."""
    if output_dir is None:
        return None
    try:
        out = Path(output_dir)
    except TypeError:
        raise ParameterError(f"output_dir must be a path, got {output_dir!r}") from None
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {str(output_dir)!r} cannot be created: "
                          f"{exc.strerror or exc}") from None
    for path in (out / name for name in files):
        if path.is_dir() or not os.access(path if path.exists() else out, os.W_OK):
            reason = os.strerror(errno.EISDIR if path.is_dir() else errno.EACCES)
            raise ConfigError(f"cannot write {str(path)!r}: {reason}")
    return out


def run_scenario(config: ScenarioConfig, output_dir=None):
    """Run one scenario; returns (Trajectory, csv_path or None).

    With orientation 'both' the a and b runs are merged into one trajectory
    whose columns carry _a/_b suffixes.  A CSV named after the config is
    written when the caller gives an output directory.
    """
    out = _output_dir(output_dir, [f"{config.name}.csv"])
    (traj,) = _run_configs([config])
    path = None
    if out is not None:
        path = out / f"{config.name}.csv"
        write_trajectory_csv(traj, path)
    return traj, path


def _reduce(sweep: SweepConfig, traj: Trajectory) -> dict[str, float]:
    """The sweep's reduction of one trajectory: one call over all the columns it reads."""
    red = sweep.reduction
    if red.kind == "time_average":
        T = red.T if red.T is not None else sweep.base.t_max
        names = list(traj.columns)
        values = time_average(traj.times, [traj.columns[n] for n in names], T)
        return {f"avg_{name}": value for name, value in zip(names, values.tolist())}
    names = [name for name in traj.columns if _matches(name, red.column)]
    values = trap_time(traj.times, [traj.columns[n] for n in names], red.threshold)
    return {f"t_tr_{name}": value for name, value in zip(names, values.tolist())}


def run_sweep(sweep: SweepConfig, output_dir=None):
    """Run a sweep; returns (header, rows, csv_path or None), rows in values order.

    The sweep's scenarios were made and checked with it (sweep.configs).
    Each value's trajectory is reduced, or written, as soon as its stack has
    run, so one stack is alive at a time.
    """
    trajectory = sweep.reduction.kind == "trajectory"
    out = _output_dir(output_dir, [f"{sweep.name}.csv"] + [
        _trajectory_file(sweep.name, sweep.parameter, v) for v in sweep.values if trajectory])
    results = []
    for value, traj in zip(sweep.values, _run_configs(sweep.configs)):
        if not trajectory:
            results.append(_reduce(sweep, traj))
            continue
        path = None
        if out is not None:
            path = out / _trajectory_file(sweep.name, sweep.parameter, value)
            write_trajectory_csv(traj, path)
        results.append({"trajectory": str(path) if path else ""})
    header = [sweep.parameter] + list(results[0])
    rows = [[value, *res.values()] for value, res in zip(sweep.values, results)]

    path = None
    if out is not None:
        path = out / f"{sweep.name}.csv"
        write_rows_csv(path, header, rows)
    return header, rows, path


# ---------------------------------------------------------------------------
# CSV output (17 significant digits, byte-stable for identical configs)
# ---------------------------------------------------------------------------

def _format(value) -> str:
    """The %-format of a column, picked from its first value."""
    if isinstance(value, str):
        return "%s"
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%.17g"


def write_rows_csv(path, header, rows) -> None:
    """Write a CSV table; a path that cannot be written is a ConfigError naming it."""
    lines = [",".join(header)]
    if rows:
        line = ",".join(_format(x) for x in rows[0])
        lines.extend(line % tuple(row) for row in rows)
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def write_trajectory_csv(traj: Trajectory, path) -> None:
    header = ["t", *traj.columns]
    rows = np.column_stack([traj.times, *traj.columns.values()]).tolist()
    write_rows_csv(path, header, rows)


# ---------------------------------------------------------------------------
# shipped presets
# ---------------------------------------------------------------------------

def _preset_dir():
    return resources.files("fermichain") / "presets"


def preset_names() -> list[str]:
    return sorted(p.name[:-5] for p in _preset_dir().iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> ScenarioConfig | SweepConfig:
    candidate = _preset_dir() / f"{name}.yaml"
    if not candidate.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    return load_config(_read_yaml(candidate))


def resolve_config(name_or_path) -> ScenarioConfig | SweepConfig:
    """A preset name, or a path to a YAML config file."""
    path = Path(str(name_or_path))
    if path.suffix in (".yaml", ".yml") or path.is_file():
        return load_config(path)
    return load_preset(str(name_or_path))
