"""The names the benchmark in ``bench/`` takes from the package must resolve.

The benchmark drives the program from outside: its scripts import names
from ``csigen`` modules, and its tracer replaces the functions listed in
``tracer.TRACE_POINTS`` at the modules named there.  A refactor that
renames or moves one of them breaks benchmark runs (``--trace 1`` among
them) without failing any other test.  This module only reads the files in
``bench/``; it runs none of them.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, attribute) for every csigen import in bench/*.py; the
    attribute is None for a plain ``import csigen.x``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csigen":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "csigen"
                ]
    return found


def trace_points() -> list[tuple[str, str, str]]:
    """``TRACE_POINTS`` of bench/tracer.py, read as a literal."""
    path = BENCH / "tracer.py"
    if not path.exists():
        return []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACE_POINTS" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py defines no TRACE_POINTS")


pytestmark = pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")


@pytest.mark.parametrize(
    "filename, module, attribute",
    bench_imports(),
    ids=lambda value: value if isinstance(value, str) else "module",
)
def test_bench_import_resolves(filename, module, attribute):
    imported = importlib.import_module(module)
    if attribute is not None:
        assert hasattr(imported, attribute), f"{filename}: {module}.{attribute} is gone"


@pytest.mark.parametrize("module, attribute, span", trace_points(), ids=lambda v: v)
def test_trace_point_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), (
        f"trace point {span}: {module}.{attribute} is gone"
    )


def test_contract_is_not_empty():
    assert bench_imports() and trace_points()
