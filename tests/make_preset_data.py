"""Regenerate the regression set in tests/data/.

    PYTHONPATH=src python tests/make_preset_data.py

Runs every shipped preset, and the gated workloads of the benchmark in
perfbench/workloads.py at the seeds in WORKLOAD_SEEDS, and keeps what
test_preset_data.py compares: the table of each sweep in full, and every
EVERY-th row of each trajectory, each as the CSV the program writes.
Regenerate the set only in a change that says why the physics output moved.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

from fermichain.scenarios import (
    SweepConfig,
    load_config,
    load_preset,
    preset_names,
    run_scenario,
    run_sweep,
)

DATA = Path(__file__).resolve().parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EVERY = 100  # trajectory rows 0, EVERY, 2 EVERY, ... are kept
# trap_L20 leaves out the confirm seed 20241204: it picks the same doublon site as seed 1
WORKLOAD_SEEDS = {"sweep_U": (1, 20241204), "trap_L20": (1, 3)}
WORKLOADS = {f"{name}_{seed}": (name, seed)
             for name, seeds in WORKLOAD_SEEDS.items() for seed in seeds}


def names() -> list[str]:
    """The stem of each data file: the presets, then the workloads as <name>_<seed>."""
    return preset_names() + list(WORKLOADS)


def _workloads():
    """perfbench/workloads.py, imported by its path; it is only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def load(name: str):
    """The config of a data file's stem."""
    if name in WORKLOADS:
        return load_config(_workloads().make(*WORKLOADS[name]).doc)
    return load_preset(name)


def preset_csv(config, output_dir) -> Path:
    """Run a loaded config; returns the path of the CSV it writes to output_dir."""
    if isinstance(config, SweepConfig):
        return run_sweep(config, output_dir)[2]
    return run_scenario(config, output_dir)[1]


def main() -> None:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names():
            config = load(name)
            lines = preset_csv(config, tmp).read_text().splitlines(keepends=True)
            if not isinstance(config, SweepConfig):
                lines = lines[:1] + lines[1::EVERY]
            (DATA / f"{name}.csv").write_text("".join(lines))
            print(f"{name}: {len(lines) - 1} rows")


if __name__ == "__main__":
    main()
