#!/usr/bin/env python3
"""Self-test of the output check: corrupted outputs must count as failed items.

    python3 perfbench/selftest.py

Runs the sweep_U and trap_L20 workloads once each through the CLI, on the
default seed, then feeds the check their correct outputs and deliberately
wrong ones: in the sweep table and in the trajectory CSV, the orientation-a
and orientation-b data columns swapped under unchanged labels; a table
computed with every U off by 0.5 but labelled with the requested values; a
NaN in one cell; and a run that exits non-zero.  Prints the error_rate of
each and exits 0 only if the correct outputs pass and every corruption is
counted in error_rate.
"""

import copy
import shutil
import sys

import yaml

from run import OUT, SetupError, check_run, new_tally, prepare, run_child, write_config
from workloads import DEFAULT_SEED, Workload, make


def _shifted(workload: Workload, delta: float) -> Workload:
    doc = copy.deepcopy(workload.doc)
    doc["sweep"]["values"] = [v + delta for v in workload.values]
    return Workload(workload.name, workload.command, workload.threads, doc,
                    tuple(doc["sweep"]["values"]))


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _swap_orientations(lines):
    """Swap each orientation-a data column with its orientation-b twin; keep the header."""
    header = lines[0].split(",")
    twin = {k: header.index(h[:-2] + "_b") for k, h in enumerate(header) if h.endswith("_a")}
    twin.update({b: a for a, b in twin.items()})
    rows = [line.split(",") for line in lines[1:]]
    return [lines[0], *(",".join(row[twin.get(k, k)] for k in range(len(row))) for row in rows)]


def _relabel(values):
    def edit(lines):
        rows = [line.split(",") for line in lines[1:]]
        return [lines[0], *(",".join([repr(float(v)), *row[1:]]) for v, row in zip(values, rows))]
    return edit


def _nan_cell(lines):
    row = lines[1].split(",")
    row[1] = "nan"
    return [lines[0], ",".join(row), *lines[2:]]


def main() -> int:
    try:
        env = prepare()
    except SetupError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    from check import reference

    workdir = OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)

    def run(wl, out_dir, config=None):
        """Run the CLI once; True if it finished."""
        return run_child(wl, config or write_config(wl, workdir / "cfg"), out_dir, env) is not None

    def corrupt(wl, good_dir, label, edit):
        target = workdir / f"{wl.name}_{label.replace(' ', '_')}"
        shutil.copytree(good_dir, target)
        _rewrite(target / f"{wl.name}.csv", edit)
        return (wl, label, target, True, True)

    sweep, trap = make("sweep_U", DEFAULT_SEED), make("trap_L20", DEFAULT_SEED)
    sweep_dir, trap_dir = workdir / "sweep_U_good", workdir / "trap_L20_good"
    # (workload, label, output directory, run finished, output is corrupt)
    cases = [(sweep, "correct output", sweep_dir, run(sweep, sweep_dir), False),
             (trap, "correct output", trap_dir, run(trap, trap_dir), False),
             corrupt(sweep, sweep_dir, "a and b data swapped", _swap_orientations),
             corrupt(trap, trap_dir, "a and b data swapped", _swap_orientations),
             corrupt(sweep, sweep_dir, "NaN in one cell", _nan_cell)]
    shifted_dir = workdir / "shifted"
    cases.append((sweep, "every U off by 0.5", shifted_dir,
                  run(_shifted(sweep, 0.5), shifted_dir), True))
    _rewrite(shifted_dir / f"{sweep.name}.csv", _relabel(sweep.values))
    broken = workdir / "broken.yaml"
    broken.write_text(yaml.safe_dump({**sweep.doc, "scenario": {**sweep.scenario, "t_max": -1.0}}))
    bad_dir = workdir / "bad"
    cases.append((sweep, "run exits non-zero", bad_dir, run(sweep, bad_dir, str(broken)), True))

    refs = {wl.name: reference(wl) for wl in (sweep, trap)}
    ok = True
    for wl, label, out_dir, finished, corrupted in cases:
        tally = new_tally()
        failed, _ = check_run(wl, refs[wl.name], out_dir, finished, tally)
        rate = failed / tally["attempted"]
        caught = rate > 0 if corrupted else rate == 0
        ok &= caught
        print(f"{wl.name:9s} {label:22s} error_rate {rate:.3f}"
              f" ({failed} of {tally['attempted']} trajectories)  {'as expected' if caught else 'WRONG'}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
