"""The names the benchmark in ``bench/`` takes from the package must resolve,
and its calls to them must bind.

The benchmark drives the program from outside: its scripts import names
from ``csigen`` modules and call them, and its tracer replaces the
functions listed in ``tracer.TRACE_POINTS`` at the modules named there.  A
refactor that renames or moves one of them, or changes the arguments it
takes, breaks benchmark runs (``--trace 1`` among them) without failing
any other test.  This module only reads the files in ``bench/``; it runs
none of them.
"""

import ast
import importlib
import inspect
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


def bench_calls() -> list[tuple[str, int, str, str, int, tuple[str, ...]]]:
    """(file, line, module, name, positional count, keyword names) for every
    call in bench/*.py to a name imported from csigen, called by that name
    or as an attribute of an imported ``csigen`` module.  Calls that spread
    ``*args`` or ``**kwargs`` are left out: their arguments are not known."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csigen":
                names.update({alias.asname or alias.name: (node.module, alias.name) for alias in node.names})
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names if alias.name.split(".")[0] == "csigen")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                keyword.arg is None for keyword in node.keywords
            ):
                continue
            callee = ast.unparse(node.func)
            module, _, name = callee.rpartition(".")
            if callee in names:
                module, name = names[callee]
            elif module not in modules:
                continue
            keywords = tuple(keyword.arg for keyword in node.keywords)
            found.append((path.name, node.lineno, module, name, len(node.args), keywords))
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


@pytest.mark.parametrize(
    "filename, line, module, name, positional, keywords",
    bench_calls(),
    ids=[f"{call[0]}:{call[1]}-{call[3]}" for call in bench_calls()],
)
def test_bench_call_binds(filename, line, module, name, positional, keywords):
    """The call's positional count and keyword names fit the signature."""
    signature = inspect.signature(getattr(importlib.import_module(module), name))
    try:
        signature.bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(
            f"{filename}:{line} calls {module}.{name} with {positional} positional "
            f"arguments and keywords {keywords}, which {signature} does not take: {exc}"
        )


def test_contract_is_not_empty():
    assert bench_imports() and trace_points()
    # the losses that the benchmark's gradient check calls directly
    assert {"critic_loss_fast", "generator_loss_fast"} <= {call[3] for call in bench_calls()}
