"""Properties: any config mapping parses to a config or raises ConfigError, never
any other exception, and builds no basis while it does; a config that parses
has a run plan; and a config that parses runs without a ParameterError."""

import math
from unittest import mock

import pytest

from fermichain import basis, scenarios
from fermichain.basis import MAX_SITES
from fermichain.errors import ConfigError, NumericalError
from fermichain.evolution import METHODS, plan
from fermichain.scenarios import ScenarioConfig, SweepConfig, load_config, run_scenario, run_sweep

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

VALID_SCENARIO = {
    "L": 4, "U": 0.0, "h": 10.0, "orientation": "a",
    "initial_state": {"kind": "doublon", "site": 1},
    "t_max": 0.2, "observables": ["n_L"],
}
SCENARIO_KEYS = [*VALID_SCENARIO, "J", "sample_dt", "propagator"]
KNOWN_KEYS = [
    *SCENARIO_KEYS, "kind", "site", "i", "j", "doublon_site", "up_site", "path",
    "method", "dt", "tolerance", "krylov_dim",
    "parameter", "values", "reduction", "start", "stop", "step", "T", "threshold", "column",
]
UNKNOWN_KEYS = ["dense_cap", "max_taylor_terms", "output_path", "tmax", "", 0, None, True]

# strings stay short and free of '/', so a custom path names no existing file
words = st.sampled_from([
    "1e-10", "1e300", "nan", "-inf", "4", "4.7", "x", "a", "b", "both", "doublon", "singlet",
    "custom", "krylov", "dense_eig", "taylor", "n_L", "n_h2", "n_all", "n_9", "U", "h", "L",
    "time_average", "trap_time", "trajectory",
])
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 1e-300, 0.5, 2.0, 20.0]),
    words, st.text(alphabet="01n_Lae.-+ ", max_size=6),
)
keys = st.one_of(st.sampled_from(KNOWN_KEYS), st.sampled_from(UNKNOWN_KEYS))
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=10,
)
# observable tokens: each site, all sites (one column per site), and the whole-chain ones
tokens = st.sampled_from(["n_L", "n_1", "n_9", "n_h2", "n_all", "n_up_all", "n_down_all",
                          "n_after", "doublon_count", "energy", "s_squared"])
numbers = st.sampled_from([0, 1, 2, 4, 6, 0.5, 10.0, 20.0, -1.0, "1e-3", 1e12, 1e-3])


def rarely(draw, strategy, default):
    """strategy's value one time in five, else default: most documents get deep."""
    return draw(strategy) if draw(st.integers(0, 4)) == 3 else default


def mutated(draw, section: dict, section_keys) -> dict:
    """section with a few keys dropped or set to generated values."""
    section = dict(section)
    for key in rarely(draw, st.lists(st.sampled_from(section_keys), max_size=2), []):
        section.pop(key, None)
    if draw(st.booleans()):
        section.update(draw(st.dictionaries(st.sampled_from(section_keys),
                                            st.one_of(numbers, leaves, values), max_size=2)))
    section.update(rarely(draw, st.dictionaries(keys, values, max_size=1), {}))
    return section


@st.composite
def documents(draw, lengths=None):
    """A mutated scenario or sweep document; with `lengths`, half the scenarios
    and the swept value lists also draw L from it."""
    scenario = mutated(draw, VALID_SCENARIO, SCENARIO_KEYS)
    if draw(st.booleans()):
        scenario["observables"] = draw(st.lists(tokens, min_size=1, max_size=3))
    if lengths is not None and draw(st.booleans()):
        scenario["L"] = draw(lengths)
    doc = {"name": "prop", "scenario": rarely(draw, values, scenario)}
    if draw(st.booleans()):
        swept = draw(st.one_of(
            st.fixed_dictionaries({key: numbers for key in ("start", "stop", "step")}),
            st.lists(numbers if lengths is None else numbers | lengths, min_size=1, max_size=4)))
        if isinstance(swept, dict):
            swept = mutated(draw, swept, ["start", "stop", "step"])
        sweep = {"parameter": draw(st.sampled_from(["U", "h", "L"])), "values": swept,
                 "reduction": {"kind": draw(st.sampled_from(["time_average", "trap_time"]))}}
        doc["sweep"] = rarely(draw, values, mutated(
            draw, sweep, ["parameter", "values", "reduction", "T", "threshold"]))
    doc.update(rarely(draw, st.dictionaries(keys, values, max_size=1), {}))
    return doc


def _unreachable(*args, **kwargs):
    pytest.fail("loading a config built a basis")


@hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
@hypothesis.given(documents(lengths=st.integers(1, MAX_SITES)))
def test_load_config_gives_config_or_config_error(doc):
    with (mock.patch.object(scenarios, "product_basis", _unreachable),
          mock.patch.object(basis, "enumerate_sector", _unreachable)):
        try:
            config = load_config(doc)
        except ConfigError:
            return
        assert isinstance(config, (ScenarioConfig, SweepConfig))
        swept = config.configs if isinstance(config, SweepConfig) else [config]
    for c in swept:
        n_up, n_down = c.initial_state.sector()
        dim = math.comb(c.L, n_up) * math.comb(c.L, n_down)
        sampled = (len(scenarios._time_grid(c.t_max, c.sample_dt))
                   * len(scenarios.columns(c.observables, c.L)))
        method, rows, _ = plan(dim, sampled, c.propagator)
        assert rows >= 1 and method in METHODS


def _small(config) -> bool:
    """At most 200 samples, 8 swept values and 8 sites: a run of a moment."""
    if isinstance(config, ScenarioConfig):
        return config.t_max / config.sample_dt <= 200 and config.L <= 8
    lengths = config.values if config.parameter == "L" else [config.base.L]
    return len(config.values) <= 8 and max(lengths) <= 8 and _small(config.base)


@hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
@hypothesis.given(documents())
@hypothesis.example({  # n_all has L columns: a table over L = 4 and 6 cannot hold both
    "name": "prop",
    "scenario": dict(VALID_SCENARIO, U=1.0, h=0.0, t_max=1.0, observables=["n_all"]),
    "sweep": {"parameter": "L", "values": [4, 6], "reduction": {"kind": "time_average"}}})
def test_config_that_loads_also_runs(doc):
    try:
        config = load_config(doc)
    except ConfigError:
        return
    if not _small(config):
        return
    try:
        if isinstance(config, SweepConfig):
            header, rows, _ = run_sweep(config)
            assert all(len(row) == len(header) for row in rows)
        else:
            run_scenario(config)
    except NumericalError:  # a run may fail numerically (exit 2); a ParameterError may not
        pass
