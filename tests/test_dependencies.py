"""The package imports nothing beyond the standard library, numpy and PyYAML,
and declares the numpy it needs."""

import ast
import re
import sys
from pathlib import Path

import numpy as np

import fermichain

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "fermichain"}


def test_package_imports_only_declared_dependencies():
    sources = sorted(Path(fermichain.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not outside, outside


def test_numpy_floor_covers_the_numpy_2_functions_in_use():
    # src/ calls np.bitwise_count and np.trapezoid, which arrived in NumPy 2.0
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = re.search(r'"numpy>=([0-9.]+)"', pyproject.read_text())
    assert floor, "pyproject.toml declares no numpy floor"
    assert tuple(int(part) for part in floor.group(1).split(".")[:2]) >= (2, 0)
    assert hasattr(np, "bitwise_count") and hasattr(np, "trapezoid")
