#!/usr/bin/env python3
"""fermichain benchmark: time to solution per workload, with an output check.

    python3 perfbench/run.py --workload sweep_U|trap_L20|spectator_L30
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it runs the sources under ``src/``.
With ``--trace 0`` it starts a fresh process per run that calls
``fermichain.cli.main`` on a config generated from the seed, repeats that
until ``--seconds`` have passed, checks every output against an independent
reference and reports the end-to-end metrics.  With ``--trace 1``
it runs the CLI in this process, alternating untraced runs with runs whose
layers are wrapped by ``tracer.Tracer``, and reports per-layer metrics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the input sizes and each metric with its spread.  Full results
and the span trace go to ``.perfbench_out/<workload>/``.
"""

import os

# BLAS runs single-threaded here and in every child, so a run never uses
# more threads than it asks for; this must precede the first numpy import.
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, make  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Run time is averaged over the measured window (total time / runs, and total
# samples / total time); the other metrics are medians.  On a host whose speed
# switches between regimes the median of a dozen runs jumps from one regime
# to the other while the mean follows their mix (numbers in README.md).
AGGREGATES = {"wall_s": statistics.fmean, "samples_per_s": statistics.harmonic_mean}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def prepare() -> dict:
    """Check that the checkout holds the program, make it importable, warm its bytecode."""
    if not (SRC / "fermichain" / "__init__.py").is_file():
        raise SetupError(f"no fermichain sources under {SRC}; run from the root of a checkout")
    env = child_env()
    probe = subprocess.run([sys.executable, "-c", "import fermichain.cli, yaml, numpy"],
                           env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0:
        raise SetupError(f"cannot import fermichain from {SRC}:\n{probe.stderr}")
    sys.path.insert(0, str(SRC))
    return env


def write_config(workload, workdir: Path) -> str:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{workload.name}.yaml"
    path.write_text(yaml.safe_dump(workload.doc, sort_keys=False))
    return str(path)


def run_child(workload, config: str, out_dir: Path, env: dict):
    """One fresh-process CLI run; returns its timing sample, or None if it failed."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *workload.argv(config, str(out_dir))],
                              env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    marks = json.loads(lines[-1])
    if marks["code"] != 0:
        sys.stderr.write(proc.stderr)
        return None
    return {"setup_s": marks["resolved"] - started,
            "wall_s": marks["end"] - marks["resolved"],
            "peak_rss_mb": marks["rss_kb"] / 1024}


def check_run(workload, ref, out_dir: Path, ok: bool, tally: dict) -> tuple[int, float]:
    """Add one run's items to the tally and return its failed items and largest error.

    A run that did not finish fails all of its items."""
    from check import check_output

    tally["attempted"] += workload.items
    if ok:
        verdict = check_output(workload, ref, out_dir / f"{workload.name}.csv")
        failed, err, reasons = verdict.failed, verdict.max_err, verdict.reasons
    else:
        failed, err, reasons = workload.items, float("inf"), ["run failed"]
    tally["failed"] += failed
    tally["max_err"] = max(tally["max_err"], err)
    tally["reasons"].extend(reasons[:5])
    return failed, err


def new_tally() -> dict:
    return {"attempted": 0, "failed": 0, "max_err": 0.0, "reasons": []}


def timed(workload, seconds: float, workdir: Path, env: dict, ref) -> tuple[dict, dict]:
    config = write_config(workload, workdir)
    tally, samples = new_tally(), []
    start = time.monotonic()
    while time.monotonic() - start < seconds or not (samples or tally["attempted"]):
        out_dir = workdir / "out"
        sample = run_child(workload, config, out_dir, env)
        check_run(workload, ref, out_dir, sample is not None, tally)
        shutil.rmtree(out_dir, ignore_errors=True)
        if sample is not None:
            sample["samples_per_s"] = workload.samples * workload.items / sample["wall_s"]
            samples.append(sample)
    return tally, {k: [s[k] for s in samples] for k in END_TO_END_UNITS}


PER_LAYER_UNITS = {
    "scenarios.config_s": "s", "basis.calls": "count", "basis.busy_s": "s",
    "hamiltonian.calls": "count", "hamiltonian.busy_s": "s", "hamiltonian.nnz": "count",
    "hamiltonian.s2_busy_s": "s",
    "kernels.matvec_calls": "count", "kernels.matvec_busy_s": "s", "kernels.matvec_bytes": "B",
    "evolution.advance_calls": "count", "evolution.self_s": "s", "evolution.loop_s": "s",
    "evolution.matvecs_per_t": "count/t",
    "observables.calls": "count", "observables.busy_s": "s", "observables.bind_s": "s",
    "scenarios.reduce_s": "s", "scenarios.write_s": "s", "scenarios.write_bytes": "B",
    "check.max_err": "abs", "check.norm_drift": "abs", "check.energy_drift": "J",
    "trace.wall_s": "s", "trace.other_s": "s", "trace.coverage": "ratio", "trace.overhead_s": "s",
}


def layer_metrics(tracer, max_err: float) -> dict:
    selfs, counts = tracer.layer_self(), tracer.counts()
    wall = tracer.wall()
    # computed, not measured: the compulsory CSR traffic of a complex matvec,
    # 8 B value + 8 B index + 16 B gathered x per nonzero, 8 B indptr + 16 B out per row
    matvec_bytes = 32 * counts.get("kernels.matvec_nnz", 0) + 24 * counts.get("kernels.matvec_rows", 0)
    return {
        "scenarios.config_s": selfs.get("scenarios.config", 0.0),
        "basis.calls": counts["basis.calls"],
        "basis.busy_s": selfs.get("basis", 0.0),
        "hamiltonian.calls": counts["hamiltonian.calls"],
        "hamiltonian.busy_s": selfs.get("hamiltonian", 0.0),
        "hamiltonian.nnz": max(tracer.nnz, default=0),
        "hamiltonian.s2_busy_s": selfs.get("hamiltonian.s2", 0.0),
        "kernels.matvec_calls": counts.get("kernels.matvec", 0),
        "kernels.matvec_busy_s": selfs.get("kernels.matvec", 0.0),
        "kernels.matvec_bytes": matvec_bytes,
        "evolution.advance_calls": counts.get("evolution.advance", 0),
        "evolution.self_s": selfs.get("evolution.advance", 0.0),
        "evolution.loop_s": selfs.get("evolution.loop", 0.0),
        "evolution.matvecs_per_t": counts.get("evolution.matvecs", 0) / max(tracer.simulated_t, 1e-300),
        "observables.calls": counts.get("observables", 0),
        "observables.busy_s": selfs.get("observables", 0.0),
        "observables.bind_s": selfs.get("observables.bind", 0.0),
        "scenarios.reduce_s": selfs.get("scenarios.reduce", 0.0),
        "scenarios.write_s": selfs.get("scenarios.write", 0.0),
        "scenarios.write_bytes": tracer.write_bytes,
        "check.max_err": max_err,
        "check.norm_drift": tracer.drift["norm"],
        "check.energy_drift": tracer.drift["energy"],
        "trace.wall_s": wall,
        "trace.other_s": selfs.get("trace.other", 0.0),
        "trace.coverage": 1.0 - selfs.get("trace.other", 0.0) / wall,
    }


def traced(workload, seconds: float, workdir: Path, ref) -> tuple[dict, dict]:
    """In-process runs: an untraced warm-up, then untraced and traced runs in turn."""
    from fermichain import cli
    from tracer import Tracer

    config = write_config(workload, workdir)
    out_dir = workdir / "out"
    argv = workload.argv(config, str(out_dir))
    tally, layers, overheads = new_tally(), [], []
    tracer = None

    def once(trace: bool):
        """One run; its wall time if it passed the check, else None."""
        nonlocal tracer
        shutil.rmtree(out_dir, ignore_errors=True)
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's own summary line
            if trace:
                tracer = Tracer()
                code = tracer.run(lambda: cli.main(argv))
            else:
                code = cli.main(argv)
        wall = time.perf_counter() - started
        failed, err = check_run(workload, ref, out_dir, code == 0, tally)
        if failed:
            return None
        if trace:
            layers.append(layer_metrics(tracer, err))
        return wall

    once(trace=False)  # warm-up: first-call costs that a CLI user pays once per process
    start = time.monotonic()
    order = (False, True)
    # Each untraced run is paired with the traced run next to it, so the
    # overhead is a difference of neighbours, not of two drifting medians.
    while time.monotonic() - start < seconds or not overheads:
        walls = dict(zip(order, (once(trace) for trace in order)))
        order = order[::-1]
        if None not in walls.values():
            overheads.append(walls[True] - walls[False])
        elif not overheads:
            break
    if tracer is not None and tracer.root is not None:
        tracer.dump(workdir / "trace.json")
    series = {k: [m[k] for m in layers] for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
    series["trace.overhead_s"] = overheads
    return tally, series


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(workload, seed: int, ref) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]), "cli_threads": workload.threads,
        "seed": seed, "workload": workload.name,
        "input": {"dims": ref.dims, "nnz": ref.nnz, "samples_per_trajectory": workload.samples,
                  "trajectories": workload.items, "swept_values": list(workload.values)},
        "reference": ref.method,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    from check import reference

    workload = make(name, seed)
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ref = reference(workload)
    info = environment(workload, seed, ref)
    print("env " + json.dumps(info))
    if trace:
        tally, series = traced(workload, seconds, workdir, ref)
        units = PER_LAYER_UNITS
    else:
        tally, series = timed(workload, seconds, workdir, env, ref)
        units = END_TO_END_UNITS
    metrics = {}
    for key, unit in units.items():
        values = series.get(key) or []
        if not values:
            continue
        aggregate = statistics.median if trace else AGGREGATES.get(key, statistics.median)
        metrics[key] = {"value": aggregate(values), "unit": unit}
        print(f"{name:14s} {key:26s} {metrics[key]['value']:.6g} {unit}  ({aggregate.__name__} of"
              f" {len(values)}; median {statistics.median(values):.6g},"
              f" min {min(values):.6g}, max {max(values):.6g})")
    error_rate = tally["failed"] / max(tally["attempted"], 1)
    print(f"{name:14s} {'error_rate':26s} {error_rate:.6g} ratio"
          f"  ({tally['failed']} of {tally['attempted']} trajectories failed the check;"
          f" max error {tally['max_err']:.3g})")
    for reason in tally["reasons"][:10]:
        print(f"{name:14s} check: {reason}")
    result = {"correct": tally["failed"] == 0 and len(metrics) == len(units),
              "attempted": tally["attempted"], "failed": tally["failed"], "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(
        {"env": info, "result": result, "error_rate": error_rate, "series": series}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = prepare()
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
