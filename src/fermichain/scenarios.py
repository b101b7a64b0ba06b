"""Config-driven experiment runner: scenarios, parameter sweeps, presets, CSV output.

Configs are YAML documents (see presets/ for the shipped ones).  A scenario
evolves one initial state for one or both barrier orientations and samples
observables on a fixed grid; a sweep repeats a base scenario over a list of
U, h or L values and reduces each run to one row.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from itertools import groupby
from pathlib import Path

import numpy as np
import yaml

from .basis import MAX_SITES, ProductBasis, product_basis, site_bit
from .errors import CapacityError, ConfigError, ParameterError
from .evolution import (
    MAX_TAYLOR_STEPS,
    METHODS,
    PropagatorConfig,
    Trajectory,
    evolve_trajectory,
    plan,
)
from .hamiltonian import (
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
from .states import (
    NORM_TOLERANCE,
    StateVector,
    doublon_at,
    doublon_plus_up,
    from_amplitudes,
    singlet_pair,
    single_particle_at,
    triplet_pair,
)

ORIENTATIONS = ("a", "b", "both")
SWEEP_PARAMETERS = ("U", "h", "L")
REDUCTIONS = ("time_average", "trap_time", "trajectory")
MAX_POINTS = 1_000_000  # samples of one time grid, values of one range sweep
MEMORY_BUDGET = 4 << 30  # bytes one stack may need; a sector that needs more is refused


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialState:
    """A kind of INITIAL_STATES with its checked fields; site labels are 1-based."""

    kind: str
    fields: dict

    def sector(self) -> tuple[int, int]:
        if self.kind == "custom":  # the sector of the file's entries
            return len(self.fields["path"][0]["up"]), len(self.fields["path"][0]["down"])
        return INITIAL_STATES[self.kind][1]

    def build(self, basis: ProductBasis) -> StateVector:
        return INITIAL_STATES[self.kind][2](basis, *self.fields.values())

    def sites(self) -> list[int]:
        if self.kind == "custom":
            return [s for e in self.fields["path"] for s in e["up"] + e["down"]]
        return list(self.fields.values())


@dataclass(frozen=True)
class ScenarioConfig:
    """One evolution run (or an a/b orientation pair) with sampled observables."""

    L: int
    U: float
    h: float
    initial_state: InitialState
    t_max: float
    observables: tuple[str, ...]
    name: str = "scenario"
    orientation: str = "both"
    J: float = 1.0
    sample_dt: float = 0.05
    propagator: PropagatorConfig = PropagatorConfig()
    description: str = ""


@dataclass(frozen=True)
class Reduction:
    kind: str
    T: float | None = None
    threshold: float = 0.01
    column: str = TRAP_COLUMN


@dataclass(frozen=True)
class SweepConfig:
    """A base scenario repeated over values of one parameter."""

    name: str
    parameter: str
    values: tuple
    base: ScenarioConfig
    reduction: Reduction = Reduction("time_average")
    description: str = ""


# ---------------------------------------------------------------------------
# config parsing: one field table per section
#
# A table maps key -> (check, required).  A check turns a raw YAML value into
# the field's value or raises ValueError; a check that reads a nested section
# raises ConfigError with lines that already name their fields.  An absent
# optional key keeps the dataclass default.
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


def _fields(doc, table: dict, label: str, errors: list) -> dict:
    """The checked values of the keys of doc; problems are appended to errors."""
    at = f"{label}: " if label else ""
    if not isinstance(doc, dict):
        errors.append(f"{at}must be a mapping, got {doc!r}")
        return {}
    unknown = sorted(str(key) for key in doc if key not in table)
    if unknown:
        errors.append(f"{at}unexpected keys {unknown}")
    dot = f"{label}." if label else ""
    out = {}
    for key, (check, required) in table.items():
        if key not in doc:
            if required:
                errors.append(f"{dot}{key}: missing")
            continue
        try:
            out[key] = check(doc[key])
        except ConfigError as exc:
            errors.append(str(exc))
        except ValueError as exc:
            errors.append(f"{dot}{key}: {exc}")
    return out


def _section(table: dict, label: str, build):
    """A check that reads a nested mapping with its own table into build(**fields).

    Its errors name their fields as label.key; without a label the enclosing
    table names them after the section's key ("propagator: dt: ...").
    """
    def check(doc):
        errors: list[str] = []
        fields = _fields(doc, table, label, errors)
        if errors:
            raise (ConfigError if label else ValueError)("; ".join(errors))
        return build(**fields)
    return check


def _custom_entry(k: int, e) -> dict:
    """One checked amplitude entry of a custom initial-state file."""
    label = f"entries[{k}]"
    if not isinstance(e, dict):
        raise ValueError(f"{label} must be a mapping with 'up', 'down', 're', 'im'")
    out = {}
    for key in ("up", "down"):
        sites = e.get(key)
        if not isinstance(sites, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in sites):
            raise ValueError(f"{label}.{key} must be a list of integer sites, got {sites!r}")
        if len(set(sites)) != len(sites):
            raise ValueError(f"{label}.{key} repeats a site: {sites}")
        out[key] = tuple(sites)
    parts = [e.get(key, 0.0) for key in ("re", "im")]
    try:
        if any(isinstance(v, str) for v in parts):  # JSON, unlike YAML, has no numbers as text
            raise ValueError
        out["amp"] = complex(*map(_real, parts))
    except ValueError:
        raise ValueError(f"{label}: re and im must be finite numbers, got {parts}") from None
    return out


def _custom_entries(path) -> tuple[dict, ...]:
    """The checked entries of a custom initial-state JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON: {exc}") from None
    except (OSError, TypeError, ValueError) as exc:  # also a NUL byte, undecodable text
        raise ValueError(f"cannot read {path!r}: {exc}") from None
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path!r} must hold a non-empty 'entries' list")
    entries = tuple(_custom_entry(k, e) for k, e in enumerate(entries))
    if len({(len(e["up"]), len(e["down"])) for e in entries}) > 1:
        raise ValueError("entries mix particle-number sectors")
    if len({(frozenset(e["up"]), frozenset(e["down"])) for e in entries}) < len(entries):
        raise ValueError("entries repeat a configuration")
    return entries


def _custom_state(basis: ProductBasis, entries) -> StateVector:
    amps = np.zeros(basis.dim, dtype=np.complex128)
    for e in entries:
        mu = sum(site_bit(s) for s in e["up"])
        md = sum(site_bit(s) for s in e["down"])
        amps[basis.index(mu, md)] = e["amp"]
    return from_amplitudes(basis, amps)


_SITE = (_integer, True)

# kind -> (fields, sector, constructor(basis, *field values)); custom's path holds its entries
INITIAL_STATES = {
    "doublon": ({"site": _SITE}, (1, 1), doublon_at),
    "singlet": ({"i": _SITE, "j": _SITE}, (1, 1), singlet_pair),
    "triplet": ({"i": _SITE, "j": _SITE}, (1, 1), triplet_pair),
    "doublon_plus_up": ({"doublon_site": _SITE, "up_site": _SITE}, (2, 1), doublon_plus_up),
    "single_particle": ({"site": _SITE}, (1, 0), single_particle_at),
    "custom": ({"path": (_custom_entries, True)}, None, _custom_state),
}


def _initial_state(doc) -> InitialState:
    if not isinstance(doc, dict):
        raise ValueError(f"must be a mapping with a 'kind' key, got {doc!r}")
    kind = _one_of(*INITIAL_STATES)(doc.get("kind"))
    rest = {key: value for key, value in doc.items() if key != "kind"}
    return _section(INITIAL_STATES[kind][0], "initial_state",
                    lambda **fields: InitialState(kind, fields))(rest)


_PROPAGATOR = {
    "method": (_one_of(*METHODS), False),
    "dt": (_positive, False),
    "tolerance": (_positive, False),
    "krylov_dim": (_integer, False),
}


_SCENARIO = {
    "L": (_integer, True),
    "U": (_real, True),
    "h": (_real, True),
    "J": (_positive, False),
    "orientation": (_one_of(*ORIENTATIONS), False),
    "initial_state": (_initial_state, True),
    "t_max": (_positive, True),
    "sample_dt": (_positive, False),
    "propagator": (_section(_PROPAGATOR, "", PropagatorConfig), False),
    "observables": (_tokens, True),
}


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
        return _section(_RANGE, "sweep.values", _arange)(spec)
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ValueError(f"must be a non-empty list or {{start, stop, step}}, got {spec!r}")
    return spec


_REDUCTION = {
    "kind": (_one_of(*REDUCTIONS), True),
    "T": (_positive, False),
    "threshold": (_positive, False),
    "column": (str, False),
}

_SWEEP = {
    "parameter": (_one_of(*SWEEP_PARAMETERS), True),
    "values": (_values, True),
    "reduction": (_section(_REDUCTION, "sweep.reduction", Reduction), False),
}

# the top level of a config document; its sections are read by their own tables
_DOCUMENT = {
    "name": (_file_name, False),
    "description": (_text, False),
    "scenario": (dict, True),
    "sweep": (dict, False),
}


# kind -> the site fields that must name different sites
_DISTINCT_SITES = {"singlet": ("i", "j"), "triplet": ("i", "j"),
                   "doublon_plus_up": ("doublon_site", "up_site")}


def _initial_state_errors(state: InitialState) -> list[str]:
    """What makes an initial state unbuildable on any chain: two particles of
    one pair on one site, or custom amplitudes that are not normalized."""
    if state.kind in _DISTINCT_SITES:
        a, b = _DISTINCT_SITES[state.kind]
        if state.fields[a] == state.fields[b]:
            return [f"initial_state: {a} and {b} must differ, got {state.fields[a]} for both"]
    if state.kind == "custom":
        norm = float(np.linalg.norm([e["amp"] for e in state.fields["path"]]))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            return [f"initial_state: the custom amplitudes have norm {norm:.17g}, "
                    f"expected 1 within {NORM_TOLERANCE:g}"]
    return []


def check_config(config: ScenarioConfig) -> None:
    """The cross-field checks of a scenario, run on every parsed, swept or
    overridden config; raises ConfigError naming each offending field."""
    errors = []
    L, h, prop = config.L, config.h, config.propagator
    if h < 0:
        errors.append(f"h: must be non-negative, got {h}")
    if not 1 <= L <= MAX_SITES:
        errors.append(f"L: must lie in [1, {MAX_SITES}], got {L}")
    else:
        if h > 0 and (L % 2 or L < 4):
            errors.append(f"L: barrier runs need even L >= 4, got {L}")
        try:
            columns(config.observables, L, barrier=h > 0)
        except ParameterError as exc:
            errors.append(f"observables: {exc}")
        errors += [f"initial_state: site {s} outside chain [1, {L}]"
                   for s in config.initial_state.sites() if not 1 <= s <= L]
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
    errors += _initial_state_errors(config.initial_state)
    if (points := config.t_max / config.sample_dt) > MAX_POINTS:
        errors.append(f"t_max / sample_dt: must be at most {MAX_POINTS}, got {points:g}")
    if prop.method == "taylor" and (steps := config.t_max / prop.dt) > MAX_TAYLOR_STEPS:
        errors.append(f"propagator.dt: a taylor run takes at most {MAX_TAYLOR_STEPS} steps, "
                      f"got t_max / dt = {steps:g}")
    if errors:
        raise ConfigError("; ".join(errors))


def replace_fields(config: ScenarioConfig, **values) -> ScenarioConfig:
    """config with some fields replaced (a swept value, a command-line override),
    each checked as in a config file, then check_config."""
    errors: list[str] = []
    fields = _fields(values, {key: _SCENARIO[key] for key in values}, "", errors)
    if errors:
        raise ConfigError("; ".join(errors))
    config = dataclasses.replace(config, **fields)
    check_config(config)
    return config


def scenario_from_dict(doc: dict, name: str = "scenario", description: str = "") -> ScenarioConfig:
    errors: list[str] = []
    fields = _fields(doc, _SCENARIO, "", errors)
    if errors:
        raise ConfigError("invalid scenario config:\n  " + "\n  ".join(errors))
    config = ScenarioConfig(name=name, description=description, **fields)
    check_config(config)
    return config


def _matches(name: str, column: str) -> bool:
    """Whether a trap-time reduction of `column` reads trajectory column `name`."""
    return name == column or name.startswith(column + "_")


def _trajectory_file(sweep: str, parameter: str, value) -> str:
    """The file a trajectory sweep writes for one value."""
    tag = f"{parameter}={value:g}" if parameter != "L" else f"L={value}"
    return f"{sweep}_{tag}.csv"


def _swept_configs(sweep: SweepConfig) -> list[ScenarioConfig]:
    """The scenario of each swept value, checked with the reduction that reads
    it; raises ConfigError naming each offending field."""
    errors, configs = [], []
    if not sweep.values:
        errors.append("sweep.values: must hold at least one value")
    red = sweep.reduction
    if red.kind == "time_average" and red.T is not None and red.T > sweep.base.t_max:
        errors.append(f"sweep.reduction.T: must be at most t_max = {sweep.base.t_max:g}, "
                      f"got {red.T:g}")
    for value in sweep.values:
        try:
            config = replace_fields(sweep.base, **{sweep.parameter: value})
        except ConfigError as exc:
            errors.append(f"sweep.values: {exc}")
            continue
        configs.append(config)
        if red.kind == "trap_time":
            names = list(columns(config.observables, config.L))
            if config.orientation == "both":  # run_scenario's names for the a and b runs
                names = [f"{name}_{o}" for o in _orientations(config) for name in names]
            unread = (f"sweep.reduction.column: {red.column!r} matches no trajectory "
                      f"column at L={config.L} (have {names})")
            if unread not in errors and not any(_matches(n, red.column) for n in names):
                errors.append(unread)
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


def sweep_from_dict(doc: dict, base: ScenarioConfig, name: str = "sweep",
                    description: str = "") -> SweepConfig:
    errors: list[str] = []
    fields = _fields(doc, _SWEEP, "sweep", errors)
    if errors:
        raise ConfigError("invalid sweep config:\n  " + "\n  ".join(errors))
    sweep = SweepConfig(name=name, base=base, description=description, **fields)
    values = tuple(getattr(config, sweep.parameter) for config in _swept_configs(sweep))
    return dataclasses.replace(sweep, values=values)


def load_config(source) -> ScenarioConfig | SweepConfig:
    """Parse a YAML document (path or mapping) into a scenario or sweep config."""
    if isinstance(source, (str, Path)):
        try:
            doc = yaml.safe_load(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {source!r}: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {source!r} is not valid YAML: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ConfigError("config must be a mapping with a 'scenario' section")
    for section in ("scenario", "sweep"):
        if section in doc and not isinstance(doc[section], dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
    errors: list[str] = []
    fields = _fields(doc, _DOCUMENT, "", errors)
    if errors:
        raise ConfigError("; ".join(errors))
    name, description = fields.get("name", "run"), fields.get("description", "")
    base = scenario_from_dict(fields["scenario"], name=name, description=description)
    if "sweep" in fields:
        return sweep_from_dict(fields["sweep"], base, name=name, description=description)
    return base


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
    return ["a", "b"] if config.orientation == "both" else [config.orientation]


def _stacks(runs: list[tuple[ScenarioConfig, str]]):
    """Split (config, orientation) runs, in order, into stacks that propagate
    together; yields (basis, stack) pairs.

    A stack holds consecutive runs that differ at most in U, h and
    orientation, so they share one sector and one Hamiltonian pattern, and
    at most the rows of the sector's evolution.plan, so a stack's samples and
    propagator arrays stay bounded however many values a sweep has.
    """
    for _, group in groupby(runs, key=lambda run: dataclasses.replace(
            run[0], U=0.0, h=0.0, orientation="both")):
        group = list(group)
        config = group[0][0]
        basis = product_basis(config.L, *config.initial_state.sector())
        sampled = (len(_time_grid(config.t_max, config.sample_dt))
                   * len(columns(config.observables, config.L)))
        size = plan(basis.dim, sampled, config.propagator)[1]
        for lo in range(0, len(group), size):
            yield basis, group[lo:lo + size]


def _run_stack(basis: ProductBasis, stack: list[tuple[ScenarioConfig, str]]) -> list[Trajectory]:
    """Propagate the runs of one stack together; one trajectory per run."""
    config = stack[0][0]
    params, jstars = [], []
    for run, orientation in stack:
        barrier = run.h > 0
        V = barrier_potential(run.L, run.h, orientation) if barrier else np.zeros(run.L)
        params.append(HubbardParams(L=run.L, J=run.J, U=run.U, V=V))
        jstars.append(jstar_site(run.L, run.h, orientation) if barrier else None)
    H = build_hamiltonian(params, basis)
    psi0 = config.initial_state.build(basis)

    fns = observable_functions(config.observables, basis, H=H,
                               jstar=None if None in jstars else jstars)
    times = _time_grid(config.t_max, config.sample_dt)
    traj = evolve_trajectory(H, psi0, times, config.propagator, fns)
    return [traj.row(r) for r in range(len(stack))]


def _trajectories(stacks: list, threads: int):
    """Yield the trajectories of the stacks' runs, in order.

    With threads > 1 and several stacks, a thread pool runs up to `threads`
    stacks at once, and a stack is submitted only when the one `threads`
    places before it has been handed out, so a caller that drops each
    trajectory holds at most threads + 1 stacks.
    """
    if threads <= 1 or len(stacks) <= 1:
        for basis, stack in stacks:
            yield from _run_stack(basis, stack)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for basis, stack in stacks:
            pending.append(pool.submit(_run_stack, basis, stack))
            if len(pending) == threads:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()


def _run_configs(configs: list[ScenarioConfig], threads: int):
    """Yield one trajectory per config, in order, its orientations merged as
    in run_scenario.  The runs (one per orientation) propagate in stacks."""
    runs = [(config, o) for config in configs for o in _orientations(config)]
    done = _trajectories(list(_stacks(runs)), threads)
    for config in configs:
        orientations = _orientations(config)
        trajs = [next(done) for _ in orientations]
        if len(trajs) == 1:
            yield trajs[0]
            continue
        columns = {f"{name}_{o}": col for o, traj in zip(orientations, trajs)
                   for name, col in traj.columns.items()}
        yield Trajectory(times=trajs[0].times, columns=columns)


def run_scenario(config: ScenarioConfig, output_dir=None, threads: int = 1):
    """Run one scenario; returns (Trajectory, csv_path or None).

    With orientation 'both' the a and b runs are merged into one trajectory
    whose columns carry _a/_b suffixes.  A CSV named after the config is
    written when the caller gives an output directory.
    """
    (traj,) = _run_configs([config], threads)
    path = None
    if output_dir is not None:
        path = Path(output_dir) / f"{config.name}.csv"
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


def run_sweep(sweep: SweepConfig, output_dir=None, threads: int = 1):
    """Run a sweep; returns (header, rows, csv_path or None), rows in values order.

    The sweep is checked as a config file's is before anything runs.  Each
    value's trajectory is reduced, or written, as soon as its stack has run,
    so only a few stacks are alive at a time.
    """
    configs = _swept_configs(sweep)
    results = []
    for value, traj in zip(sweep.values, _run_configs(configs, threads)):
        if sweep.reduction.kind != "trajectory":
            results.append(_reduce(sweep, traj))
            continue
        path = None
        if output_dir is not None:
            path = Path(output_dir) / _trajectory_file(sweep.name, sweep.parameter, value)
            write_trajectory_csv(traj, path)
        results.append({"trajectory": str(path) if path else ""})
    header = [sweep.parameter] + list(results[0])
    rows = [[value, *res.values()] for value, res in zip(sweep.values, results)]

    path = None
    if output_dir is not None:
        path = Path(output_dir) / f"{sweep.name}.csv"
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    if rows:
        line = ",".join(_format(x) for x in rows[0])
        lines.extend(line % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


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
    return load_config(yaml.safe_load(candidate.read_text()))


def resolve_config(name_or_path) -> ScenarioConfig | SweepConfig:
    """A preset name, or a path to a YAML config file."""
    path = Path(str(name_or_path))
    if path.suffix in (".yaml", ".yml") or path.is_file():
        return load_config(path)
    return load_preset(str(name_or_path))
