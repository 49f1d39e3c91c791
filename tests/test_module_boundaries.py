"""Module boundaries of the package, read from the sources with ast."""

import ast
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
