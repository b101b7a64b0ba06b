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
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .basis import ProductBasis, product_basis, site_bit
from .errors import ConfigError, ParameterError
from .evolution import PropagatorConfig, Trajectory, evolve_trajectory
from .hamiltonian import HubbardParams, barrier_potential, build_hamiltonian, jstar_site
from .observables import (
    ObservableSpec,
    observable_functions,
    time_average,
    trap_time,
)
from .states import (
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

_SITE_TOKEN = re.compile(r"^n(_up|_down)?_(\d+|L)$")
_SIMPLE_TOKENS = ("norm", "energy", "s_squared", "doublon_count", "n_after", "n_h2", "n_total")


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialState:
    """Tagged choice of initial state; site labels are 1-based."""

    kind: str
    site: int | None = None
    i: int | None = None
    j: int | None = None
    doublon_site: int | None = None
    up_site: int | None = None
    path: str | None = None

    def sector(self) -> tuple[int, int]:
        if self.kind in ("doublon", "singlet", "triplet"):
            return 1, 1
        if self.kind == "doublon_plus_up":
            return 2, 1
        if self.kind == "single_particle":
            return 1, 0
        entries = _load_custom(self.path)
        return len(entries[0]["up"]), len(entries[0]["down"])

    def build(self, basis: ProductBasis) -> StateVector:
        if self.kind == "doublon":
            return doublon_at(basis, self.site)
        if self.kind == "singlet":
            return singlet_pair(basis, self.i, self.j)
        if self.kind == "triplet":
            return triplet_pair(basis, self.i, self.j)
        if self.kind == "doublon_plus_up":
            return doublon_plus_up(basis, self.doublon_site, self.up_site)
        if self.kind == "single_particle":
            return single_particle_at(basis, self.site)
        return _build_custom(basis, self.path)

    def describe(self) -> str:
        fields = {k: v for k, v in dataclasses.asdict(self).items() if v is not None and k != "kind"}
        return f"{self.kind}({', '.join(f'{k}={v}' for k, v in fields.items())})"


def _is_finite_number(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _custom_entry(k: int, e) -> dict:
    """One validated amplitude entry of a custom initial-state file."""
    label = f"initial_state.path: entries[{k}]"
    if not isinstance(e, dict):
        raise ConfigError(f"{label} must be a mapping with 'up', 'down', 're', 'im'")
    out = {}
    for key in ("up", "down"):
        sites = e.get(key)
        if not isinstance(sites, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in sites):
            raise ConfigError(f"{label}.{key} must be a list of integer sites, got {sites!r}")
        if len(set(sites)) != len(sites):
            raise ConfigError(f"{label}.{key} repeats a site: {sites}")
        out[key] = tuple(sites)
    parts = [e.get(key, 0.0) for key in ("re", "im")]
    if not all(_is_finite_number(v) for v in parts):
        raise ConfigError(f"{label}: re and im must be finite numbers, got {parts}")
    out["amp"] = complex(*parts)
    return out


@lru_cache(maxsize=32)
def _load_custom(path: str):
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"initial_state.path: cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"initial_state.path: {path!r} is not valid JSON: {exc}") from None
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"initial_state.path: {path!r} must hold a non-empty 'entries' list")
    entries = tuple(_custom_entry(k, e) for k, e in enumerate(entries))
    sector = (len(entries[0]["up"]), len(entries[0]["down"]))
    if any((len(e["up"]), len(e["down"])) != sector for e in entries):
        raise ConfigError("initial_state.path: entries mix particle-number sectors")
    return entries


def _build_custom(basis: ProductBasis, path: str) -> StateVector:
    amps = np.zeros(basis.dim, dtype=np.complex128)
    for e in _load_custom(path):
        sites = e["up"] + e["down"]
        if not all(1 <= s <= basis.L for s in sites):
            raise ConfigError(f"initial_state.path: sites {list(sites)} outside chain [1, {basis.L}]")
        mu = sum(site_bit(s) for s in e["up"])
        md = sum(site_bit(s) for s in e["down"])
        g = basis.index(mu, md)
        if amps[g] != 0:
            raise ConfigError(f"initial_state.path: duplicate configuration {e['up']}/{e['down']}")
        amps[g] = e["amp"]
    return from_amplitudes(basis, amps)


@dataclass(frozen=True)
class ScenarioConfig:
    """One evolution run (or an a/b orientation pair) with sampled observables."""

    name: str
    L: int
    U: float
    h: float
    orientation: str
    initial_state: InitialState
    t_max: float
    sample_dt: float
    propagator: PropagatorConfig
    observables: tuple[str, ...]
    J: float = 1.0
    output_path: str | None = None
    description: str = ""


@dataclass(frozen=True)
class Reduction:
    kind: str
    T: float | None = None
    threshold: float = 0.01
    column: str = "n_h2"


@dataclass(frozen=True)
class SweepConfig:
    """A base scenario repeated over values of one parameter."""

    name: str
    parameter: str
    values: tuple
    reduction: Reduction
    base: ScenarioConfig
    description: str = ""


# ---------------------------------------------------------------------------
# config parsing with field-level error collection
# ---------------------------------------------------------------------------

def _cast(value, cast, label: str, errors: list, default=None):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(f"{label}: {exc}")
        return default


def _take(d: dict, key: str, errors: list, cast, required: bool = True, default=None):
    if key not in d:
        if required:
            errors.append(f"{key}: missing")
        return default
    return _cast(d[key], cast, key, errors, default)


def _finite(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"must be finite, got {out}")
    return out


def _initial_state_from(d, errors) -> InitialState | None:
    if not isinstance(d, dict):
        errors.append("initial_state: must be a mapping with a 'kind' key")
        return None
    kind = d.get("kind")
    required = {
        "doublon": ("site",),
        "singlet": ("i", "j"),
        "triplet": ("i", "j"),
        "doublon_plus_up": ("doublon_site", "up_site"),
        "single_particle": ("site",),
        "custom": ("path",),
    }
    if kind not in required:
        errors.append(f"initial_state.kind: must be one of {sorted(required)}, got {kind!r}")
        return None
    fields = {}
    for key in required[kind]:
        if key not in d:
            errors.append(f"initial_state.{key}: missing for kind {kind!r}")
            return None
        fields[key] = _cast(d[key], str if key == "path" else int, f"initial_state.{key}", errors)
        if fields[key] is None:
            return None
    extras = set(d) - {"kind", *required[kind]}
    if extras:
        errors.append(f"initial_state: unexpected keys {sorted(extras)}")
    return InitialState(kind=kind, **fields)


def _propagator_from(d, errors) -> PropagatorConfig:
    if d is None:
        return PropagatorConfig()
    if not isinstance(d, dict):
        errors.append("propagator: must be a mapping")
        return PropagatorConfig()
    known = {"method", "dt", "tolerance", "krylov_dim", "max_taylor_terms", "dense_cap"}
    extras = set(d) - known
    if extras:
        errors.append(f"propagator: unexpected keys {sorted(extras)}")
    try:
        return PropagatorConfig(**{k: d[k] for k in known & set(d)})
    except (ParameterError, TypeError) as exc:
        errors.append(f"propagator: {exc}")
        return PropagatorConfig()


def scenario_from_dict(doc: dict, name: str = "", description: str = "") -> ScenarioConfig:
    errors: list[str] = []
    L = _take(doc, "L", errors, int)
    U = _take(doc, "U", errors, _finite)
    h = _take(doc, "h", errors, _finite)
    J = _take(doc, "J", errors, _finite, required=False, default=1.0)
    orientation = str(doc.get("orientation", "both")).strip().lower()
    if orientation not in ORIENTATIONS:
        errors.append(f"orientation: must be one of {ORIENTATIONS}, got {orientation!r}")
    initial = _initial_state_from(doc.get("initial_state"), errors)
    t_max = _take(doc, "t_max", errors, _finite)
    sample_dt = _take(doc, "sample_dt", errors, _finite, required=False, default=0.05)
    propagator = _propagator_from(doc.get("propagator"), errors)
    tokens = doc.get("observables")
    if not isinstance(tokens, (list, tuple)) or not tokens:
        errors.append("observables: must be a non-empty list")
        tokens = ()
    known = {
        "name", "L", "U", "h", "J", "orientation", "initial_state",
        "t_max", "sample_dt", "propagator", "observables", "output_path",
    }
    extras = set(doc) - known
    if extras:
        errors.append(f"unexpected keys {sorted(extras)}")

    if not errors:
        if t_max <= 0:
            errors.append(f"t_max: must be positive, got {t_max}")
        if sample_dt <= 0:
            errors.append(f"sample_dt: must be positive, got {sample_dt}")
        if h > 0 and (L % 2 or L < 4):
            errors.append(f"L: barrier runs need even L >= 4, got {L}")
        if h < 0:
            errors.append(f"h: must be non-negative, got {h}")
        if L < 1:
            errors.append(f"L: must be positive, got {L}")
        for token in tokens:
            try:
                _parse_token(str(token), L if isinstance(L, int) else 4)
            except ParameterError as exc:
                errors.append(f"observables: {exc}")
        if h == 0 and "n_h2" in [str(t) for t in tokens]:
            errors.append("observables: n_h2 needs a barrier (h > 0)")
        if initial is not None:
            try:
                _check_initial_sites(initial, L)
            except ParameterError as exc:
                errors.append(f"initial_state: {exc}")
    if errors:
        raise ConfigError("invalid scenario config:\n  " + "\n  ".join(errors))
    return ScenarioConfig(
        name=name or str(doc.get("name", "scenario")),
        L=L, U=U, h=h, J=J,
        orientation=orientation,
        initial_state=initial,
        t_max=t_max,
        sample_dt=sample_dt,
        propagator=propagator,
        observables=tuple(str(t) for t in tokens),
        output_path=doc.get("output_path"),
        description=description,
    )


def _check_initial_sites(initial: InitialState, L: int) -> None:
    sites = [v for v in (initial.site, initial.i, initial.j,
                         initial.doublon_site, initial.up_site) if v is not None]
    for s in sites:
        if not 1 <= s <= L:
            raise ParameterError(f"site {s} outside chain [1, {L}]")


def _values_from(spec, parameter, errors) -> tuple:
    if isinstance(spec, dict):
        missing = {"start", "stop", "step"} - set(spec)
        if missing:
            errors.append(f"sweep.values: range form needs start/stop/step, missing {sorted(missing)}")
            return ()
        start, stop, step = (_cast(spec[k], _finite, f"sweep.values.{k}", errors)
                             for k in ("start", "stop", "step"))
        if None in (start, stop, step):
            return ()
        if step <= 0:
            errors.append("sweep.values: step must be positive")
            return ()
        vals = np.arange(start, stop + step * 1e-9, step)
    elif isinstance(spec, (list, tuple)) and spec:
        vals = _cast(spec, lambda v: np.asarray(v, dtype=np.float64), "sweep.values", errors)
        if vals is None:
            return ()
        if vals.ndim != 1 or not np.all(np.isfinite(vals)):
            errors.append("sweep.values: must be a flat list of finite numbers")
            return ()
    else:
        errors.append("sweep.values: must be a non-empty list or {start, stop, step}")
        return ()
    if len(set(vals.tolist())) != len(vals):
        errors.append("sweep.values: values must be distinct")
    if parameter == "L":
        ivals = vals.astype(int)
        if np.any(ivals != vals):
            errors.append("sweep.values: L values must be integers")
        return tuple(int(v) for v in ivals)
    return tuple(float(v) for v in vals)


def sweep_from_dict(doc: dict, base: ScenarioConfig, name: str = "", description: str = "") -> SweepConfig:
    errors: list[str] = []
    parameter = doc.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        errors.append(f"sweep.parameter: must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
        parameter = "U"
    values = _values_from(doc.get("values"), parameter, errors)
    rdoc = doc.get("reduction", {"kind": "time_average"})
    kind = rdoc.get("kind") if isinstance(rdoc, dict) else None
    if kind not in REDUCTIONS:
        errors.append(f"sweep.reduction.kind: must be one of {REDUCTIONS}, got {kind!r}")
        kind = "time_average"
    if not isinstance(rdoc, dict):
        rdoc = {}
    reduction = Reduction(
        kind=kind,
        T=_cast(rdoc["T"], _finite, "sweep.reduction.T", errors) if "T" in rdoc else None,
        threshold=_cast(rdoc.get("threshold", 0.01), _finite, "sweep.reduction.threshold",
                        errors, 0.01),
        column=str(rdoc.get("column", "n_h2")),
    )
    if errors:
        raise ConfigError("invalid sweep config:\n  " + "\n  ".join(errors))
    return SweepConfig(
        name=name or str(doc.get("name", "sweep")),
        parameter=parameter,
        values=values,
        reduction=reduction,
        base=base,
        description=description,
    )


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
    name = str(doc.get("name", "run"))
    description = str(doc.get("description", ""))
    base = scenario_from_dict(doc["scenario"], name=name, description=description)
    if "sweep" in doc:
        return sweep_from_dict(doc["sweep"], base, name=name, description=description)
    return base


# ---------------------------------------------------------------------------
# observable token mini-language
# ---------------------------------------------------------------------------

def _parse_token(token: str, L: int):
    """One token -> list of (column name, ObservableSpec)."""
    if token in _SIMPLE_TOKENS:
        return [(token, ObservableSpec(kind=token))]
    if token in ("n_all", "n_up_all", "n_down_all"):
        spin = None if token == "n_all" else token[2:-4].strip("_")
        prefix = "n" if spin is None else f"n_{spin}"
        kind = "n_site" if spin is None else "n_site_spin"
        return [
            (f"{prefix}_{j}", ObservableSpec(kind=kind, site=j, spin=spin))
            for j in range(1, L + 1)
        ]
    m = _SITE_TOKEN.match(token)
    if m:
        spin = m.group(1).lstrip("_") if m.group(1) else None
        site = L if m.group(2) == "L" else int(m.group(2))
        if not 1 <= site <= L:
            raise ParameterError(f"token {token!r}: site {site} outside chain [1, {L}]")
        kind = "n_site" if spin is None else "n_site_spin"
        return [(token, ObservableSpec(kind=kind, site=site, spin=spin))]
    raise ParameterError(f"unknown observable token {token!r}")


def resolve_observables(tokens, L: int):
    out = []
    seen = set()
    for token in tokens:
        for name, spec in _parse_token(str(token), L):
            if name in seen:
                raise ParameterError(f"duplicate observable column {name!r}")
            seen.add(name)
            out.append((name, spec))
    return out


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _time_grid(t_max: float, sample_dt: float) -> np.ndarray:
    n = max(1, int(np.ceil(t_max / sample_dt - 1e-9)))
    times = sample_dt * np.arange(n + 1)
    if times[-1] > t_max:
        times[-1] = t_max
    return times


def _single_run(config: ScenarioConfig, orientation: str) -> Trajectory:
    if config.h > 0:
        V = barrier_potential(config.L, config.h, orientation)
        jstar = jstar_site(config.L, config.h, orientation)
    else:
        V = np.zeros(config.L)
        jstar = None
    n_up, n_down = config.initial_state.sector()
    basis = product_basis(config.L, n_up, n_down)
    params = HubbardParams(L=config.L, J=config.J, U=config.U, V=V)
    H = build_hamiltonian(params, basis)
    psi0 = config.initial_state.build(basis)

    specs = resolve_observables(config.observables, config.L)
    fns = observable_functions(specs, basis, H=H, jstar=jstar)
    times = _time_grid(config.t_max, config.sample_dt)
    return evolve_trajectory(H, psi0, times, config.propagator, fns)


def run_scenario(config: ScenarioConfig, output_dir=None, threads: int = 1):
    """Run one scenario; returns (Trajectory, csv_path or None).

    With orientation 'both' the a and b runs are merged into one trajectory
    whose columns carry _a/_b suffixes.  A CSV is written when the config or
    the caller provides an output location.
    """
    orientations = ["a", "b"] if config.orientation == "both" else [config.orientation]
    runs = _map_ordered(lambda o: _single_run(config, o), orientations, threads)
    if len(runs) == 1:
        traj = runs[0]
    else:
        columns = {}
        for orientation, run in zip(orientations, runs):
            for name, col in run.columns.items():
                columns[f"{name}_{orientation}"] = col
        traj = Trajectory(times=runs[0].times, columns=columns)

    path = _output_path(config, output_dir)
    if path is not None:
        write_trajectory_csv(traj, path)
    return traj, path


def _reduce(sweep: SweepConfig, traj: Trajectory) -> dict[str, float]:
    red = sweep.reduction
    if red.kind == "time_average":
        T = red.T if red.T is not None else sweep.base.t_max
        return {f"avg_{name}": time_average(traj.times, col, T)
                for name, col in traj.columns.items()}
    matching = [name for name in traj.columns
                if name == red.column or name.startswith(red.column + "_")]
    if not matching:
        raise ConfigError(
            f"sweep.reduction.column: {red.column!r} matches no trajectory column "
            f"(have {sorted(traj.columns)})"
        )
    out = {}
    for name in matching:
        t_tr = trap_time(traj.times, traj.columns[name], red.threshold)
        out[f"t_tr_{name}"] = float("nan") if t_tr is None else t_tr
    return out


def _with_value(base: ScenarioConfig, parameter: str, value) -> ScenarioConfig:
    if parameter == "L":
        return dataclasses.replace(base, L=int(value))
    return dataclasses.replace(base, **{parameter: float(value)})


def run_sweep(sweep: SweepConfig, output_dir=None, threads: int = 1):
    """Run a sweep; returns (header, rows, csv_path or None), rows in values order."""
    def one(value):
        # the base scenario's output_path names the sweep table, not each value's run
        config = dataclasses.replace(_with_value(sweep.base, sweep.parameter, value),
                                     output_path=None)
        traj, _ = run_scenario(config)
        if sweep.reduction.kind == "trajectory":
            path = None
            if output_dir is not None:
                tag = f"{sweep.parameter}={value:g}" if sweep.parameter != "L" else f"L={value}"
                path = Path(output_dir) / f"{sweep.name}_{tag}.csv"
                write_trajectory_csv(traj, path)
            return {"trajectory": str(path) if path else ""}
        return _reduce(sweep, traj)

    results = _map_ordered(one, list(sweep.values), threads)
    header = [sweep.parameter] + list(results[0])
    rows = [[value, *res.values()] for value, res in zip(sweep.values, results)]

    path = None
    if output_dir is not None or sweep.base.output_path:
        path = _output_path(sweep.base, output_dir, name=sweep.name)
        write_rows_csv(path, header, rows)
    return header, rows, path


# ---------------------------------------------------------------------------
# CSV output (17 significant digits, byte-stable for identical configs)
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _output_path(config: ScenarioConfig, output_dir, name: str | None = None) -> Path | None:
    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        return directory / f"{name or config.name}.csv"
    if config.output_path:
        return Path(config.output_path)
    return None


def write_rows_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    header = ["t", *traj.columns]
    rows = [[t, *(col[k] for col in traj.columns.values())]
            for k, t in enumerate(traj.times)]
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
