"""Module layering: no module of the package imports another's private
helpers.  A name that one module needs from another is public there, and
each public name is defined by one module only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "linedecomp"


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "linedecomp"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                out.append(f"{path.name}:{node.lineno}: "
                           f"from {'.' * node.level}{node.module or ''} import {alias.name}")
    return out


def test_no_module_imports_private_helpers():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    bad = [hit for f in files for hit in _private_imports(f)]
    assert not bad, "\n".join(bad)


def _public_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_public_names_are_defined_once():
    where: dict[str, list[str]] = {}
    for f in sorted(SRC.glob("*.py")):
        for name in _public_definitions(f):
            where.setdefault(name, []).append(f.name)
    assert where
    twice = {name: files for name, files in where.items() if len(files) > 1}
    assert not twice, twice
