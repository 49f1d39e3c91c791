"""Module boundaries of the package, read from the sources with ast."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import borelshift

PACKAGE = Path(borelshift.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _defined(path: Path) -> set[str]:
    """The names a module defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_the_polynomial_toolkit_is_imported_from_polynomials():
    # entropy uses the toolkit; every other module, test and demo imports a
    # toolkit name from polynomials itself, never through entropy
    toolkit = _defined(PACKAGE / "polynomials.py")
    assert {"_sign_at", "_bisect_root", "_brackets_root", "isolates_one_root"} <= toolkit
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    sources += (ROOT / "demos").glob("*.py")
    assert len(sources) > 20
    through_entropy = []
    for path in sources:
        if path == PACKAGE / "entropy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "entropy":
                through_entropy += [(path.name, a.name) for a in node.names if a.name in toolkit]
    assert through_entropy == []


def test_every_name_the_benchmark_tracer_wraps_resolves(monkeypatch):
    # perfbench/tracing.py looks each LAYERS function and COUNTERS key up
    # with getattr, so a deleted or renamed name would crash every traced run;
    # the tracer is read from its file, and no bytecode is written beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, fn) for module, fns in tracing.LAYERS.values() for fn in fns]
    names += [tuple(key.split(".", 1)) for key in tracing.COUNTERS]
    assert len(names) > 60
    missing = []
    for module, name in names:
        mod = importlib.import_module(f"borelshift.{module}")
        owner, _, method = name.rpartition(".")
        found = method in vars(getattr(mod, owner)) if owner else callable(getattr(mod, name, None))
        if not found:
            missing.append(f"{module}.{name}")
    assert missing == []
