"""The package imports nothing beyond the standard library, numpy and PyYAML."""

import ast
import sys
from pathlib import Path

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
