"""Command-line interface: simulate, sweep, verify, list-presets."""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from .errors import NumericalError, ParameterError
from .scenarios import (
    ScenarioConfig,
    SweepConfig,
    preset_names,
    replace_fields,
    resolve_config,
    run_scenario,
    run_sweep,
    sweep_from_dict,
)
from .verification import run_suites

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

_METHODS = {"dense": "dense_eig", "krylov": "krylov", "taylor": "taylor"}


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if args.t_max is not None:
        config = replace_fields(config, t_max=args.t_max)
    if args.method is not None:
        propagator = dataclasses.asdict(config.propagator) | {"method": _METHODS[args.method]}
        config = replace_fields(config, propagator=propagator)
    return config


def cmd_simulate(args) -> int:
    config = resolve_config(args.config)
    if isinstance(config, SweepConfig):
        print(f"{config.name!r} is a sweep config; use the 'sweep' command", file=sys.stderr)
        return EXIT_CONFIG
    config = _apply_overrides(config, args)
    started = time.perf_counter()
    traj, path = run_scenario(config, output_dir=args.output, threads=args.threads)
    elapsed = time.perf_counter() - started
    print(f"{config.name}: {len(traj.times)} samples, {len(traj.columns)} columns "
          f"in {elapsed:.2f} s -> {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = resolve_config(args.config)
    if isinstance(config, ScenarioConfig):
        print(f"{args.config!r} is a scenario config; use the 'simulate' command", file=sys.stderr)
        return EXIT_CONFIG
    base = _apply_overrides(config.base, args)
    config = dataclasses.replace(config, base=base)
    red = config.reduction
    if args.t_max is not None and red.kind == "time_average" and (
            red.T is None or red.T > args.t_max):
        config = dataclasses.replace(config, reduction=dataclasses.replace(red, T=args.t_max))
    if args.values is not None:
        spec = {"parameter": config.parameter, "values": _parse_values(args.values)}
        config = dataclasses.replace(config, values=sweep_from_dict(spec, base).values)
    started = time.perf_counter()
    header, rows, path = run_sweep(config, output_dir=args.output, threads=args.threads)
    elapsed = time.perf_counter() - started
    print(f"{config.name}: {len(rows)} x {len(header)} table in {elapsed:.2f} s -> {path}")
    return EXIT_OK


def _parse_values(text: str):
    """--values as a sweep's values entry; its numbers are checked as swept values."""
    if ":" not in text:
        return [part for part in text.split(",") if part.strip()]
    parts = text.split(":")
    return dict(zip(("start", "stop", "step"), parts)) if len(parts) == 3 else text


def cmd_verify(args) -> int:
    results = run_suites(args.suite)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        failed += not res.passed
    if failed:
        print(f"{failed}/{len(results)} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_list_presets(args) -> int:
    from .scenarios import load_preset

    for name in preset_names():
        config = load_preset(name)
        kind = "sweep" if isinstance(config, SweepConfig) else "scenario"
        print(f"{name:<14} {kind:<9} {config.description}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a config error; argparse's own code 2 means a numerical failure here
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _thread_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fermichain",
        description="Few-fermion tunneling dynamics on open Hubbard chains "
                    "with asymmetric barrier potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="preset name or path to a YAML config file")
    common.add_argument("--output", default=".", metavar="DIR", help="directory for CSV output")
    common.add_argument("--t-max", type=float, default=None, help="override run horizon (1/J)")
    common.add_argument("--method", choices=sorted(_METHODS), default=None,
                        help="override the propagator")
    common.add_argument("--threads", type=_thread_count, default=1, help="worker threads")

    p = sub.add_parser("simulate", parents=[common], help="run one scenario, write a trajectory CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common], help="run a parameter sweep, one CSV row per value")
    p.add_argument("--values", default=None, metavar="SPEC",
                   help="override swept values: comma list or start:stop:step")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.add_argument("--suite", choices=("symmetry", "fk", "all"), default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list-presets", help="list the shipped experiment presets")
    p.set_defaults(func=cmd_list_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:  # includes ConfigError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a backstop: numpy's allocation errors included
        print(f"numerical failure: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
