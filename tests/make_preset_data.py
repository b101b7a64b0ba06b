"""Regenerate the preset regression set in tests/data/.

    PYTHONPATH=src python tests/make_preset_data.py

Runs every shipped preset and keeps what test_preset_data.py compares: the
table of each sweep preset in full, and every EVERY-th row of each
trajectory preset, each as the CSV the program writes.  Regenerate the set
only in a change that says why the physics output moved.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from fermichain.scenarios import SweepConfig, load_preset, preset_names, run_scenario, run_sweep

DATA = Path(__file__).resolve().parent / "data"
EVERY = 100  # trajectory rows 0, EVERY, 2 EVERY, ... are kept


def preset_csv(config, output_dir) -> Path:
    """Run a loaded preset; returns the path of the CSV it writes to output_dir."""
    if isinstance(config, SweepConfig):
        return run_sweep(config, output_dir)[2]
    return run_scenario(config, output_dir)[1]


def main() -> None:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in preset_names():
            config = load_preset(name)
            lines = preset_csv(config, tmp).read_text().splitlines(keepends=True)
            if not isinstance(config, SweepConfig):
                lines = lines[:1] + lines[1::EVERY]
            (DATA / f"{name}.csv").write_text("".join(lines))
            print(f"{name}: {len(lines) - 1} rows")


if __name__ == "__main__":
    main()
