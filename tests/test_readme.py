"""README.md names only what the package defines.

Every backticked dotted reference whose head is a csigen module, or a name
one defines (`mlp.FlatArrays`, `Interpolant.query`), must resolve attribute
by attribute; a dotted name ending in a file extension is a file, not a
reference.  Every backticked call form `name(` must name an attribute of a
csigen module or of a class one defines; numpy's `SeedSequence` is the one
outside name the README calls.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import csigen

README = Path(__file__).resolve().parents[1] / "README.md"
FILE_EXTENSIONS = {"cfg", "csit", "csv", "h5", "json", "md", "py", "toml", "wgck"}
OUTSIDE_CALLS = {"SeedSequence"}


def _modules():
    names = [csigen.__name__] + [
        info.name for info in pkgutil.walk_packages(csigen.__path__, prefix=csigen.__name__ + ".")
    ]
    return {name: importlib.import_module(name) for name in names}


MODULES = _modules()
SHORT_NAMES = {name.rsplit(".", 1)[-1]: module for name, module in MODULES.items()}
CLASSES = {
    value
    for module in MODULES.values()
    for value in vars(module).values()
    if inspect.isclass(value) and value.__module__.startswith(csigen.__name__)
}


def _spans():
    """Backticked spans of README.md outside fenced code blocks."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return re.findall(r"`([^`]+)`", text)


def _resolves(dotted: str) -> bool | None:
    """Whether ``dotted`` names an attribute chain from a csigen module;
    None when its head is neither a csigen module nor a name one defines."""
    head, *rest = dotted.split(".")
    if head in SHORT_NAMES:
        roots = [SHORT_NAMES[head]]
    else:
        roots = [getattr(module, head) for module in MODULES.values() if hasattr(module, head)]
    if not roots:
        return None
    for obj in roots:
        for name in rest:
            if not hasattr(obj, name):
                break
            obj = getattr(obj, name)
        else:
            return True
    return False


def _dotted_references():
    found = []
    for span in _spans():
        for match in re.finditer(r"(?<![\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span):
            name = match.group(1)
            if name.rsplit(".", 1)[-1] not in FILE_EXTENSIONS:
                found.append(name)
    return found


def _call_forms():
    return sorted({match.group(1) for span in _spans() for match in re.finditer(r"([A-Za-z_][\w.]*)\(", span)})


def test_module_references_resolve():
    references = _dotted_references()
    assert "mlp.FlatArrays" in references  # the extraction finds what it should
    unresolved = sorted({name for name in references if _resolves(name) is False})
    assert not unresolved, f"README cites names csigen does not define: {unresolved}"


def test_call_forms_name_csigen_attributes():
    calls = _call_forms()
    assert "Interpolant.query" in calls  # the extraction finds what it should
    owners = list(MODULES.values()) + list(CLASSES)
    undefined = [
        name
        for name in calls
        if name not in OUTSIDE_CALLS
        and not (_resolves(name) if "." in name else any(hasattr(owner, name) for owner in owners))
    ]
    assert not undefined, f"README calls names csigen does not define: {undefined}"
