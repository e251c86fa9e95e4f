"""Module layering: no module of the package imports another's private
helpers.  A name that one module needs from another is public there, each
public name is defined by one module only, and each is either used within
the package or exported by it.  Likewise every import is used or exported."""

import ast
import re
from pathlib import Path

import linedecomp

from test_wo import SCOPE_REFUSALS

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


def _referenced_names(path: Path) -> set[str]:
    """Every name a module uses other than at a definition: loads of a
    name, attribute reads, and names imported from another module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("linedecomp.__all__ is not a literal list")


def test_every_public_name_has_a_caller():
    """A public top-level def or class is used somewhere in src/ or is
    part of the package's exported API; anything else is dead code."""
    files = sorted(SRC.glob("*.py"))
    used = set().union(*(_referenced_names(f) for f in files
                         if f.name != "__init__.py"))
    exported = _exported_names()
    unused = [f"{f.name}: {name}" for f in files for name in _public_definitions(f)
              if name not in used and name not in exported]
    assert not unused, "\n".join(unused)


def _unread_private_names(path: Path) -> list[str]:
    """Private top-level defs, classes and assigned names of a module that
    the module never reads.  No other module may import them, so they are
    dead code."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(defined.items())
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_every_private_name_is_read_in_its_module():
    bad = [hit for f in sorted(SRC.glob("*.py")) for hit in _unread_private_names(f)]
    assert not bad, "\n".join(bad)


def _unused_imports(path: Path) -> list[str]:
    """Top-level imports of a module that it neither uses nor lists in
    its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(bound.items())
            if name not in loaded and name not in exported]


def test_no_unused_imports():
    bad = [hit for f in sorted(SRC.glob("*.py")) for hit in _unused_imports(f)]
    assert not bad, "\n".join(bad)


def test_every_export_resolves():
    """Each name in __all__ is bound on the package, so a star import
    cannot fail on a name whose definition was removed."""
    missing = [name for name in linedecomp.__all__ if not hasattr(linedecomp, name)]
    assert not missing, missing
    namespace: dict = {}
    exec("from linedecomp import *", namespace)
    assert set(linedecomp.__all__) <= set(namespace)


def _own_nodes(fn: ast.AST):
    """The nodes of a function body outside its nested functions, lambdas
    and classes, which have scopes of their own."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _dead_local_assignments(path: Path) -> list[str]:
    """Names a function assigns that neither it nor its nested functions
    ever read.  Parameters, _ and names declared nonlocal or global are
    not locals of this kind."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        skip = {"_"} | {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                        a.vararg, a.kwarg) if p is not None}
        assigned: dict[str, int] = {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                skip.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.setdefault(node.id, node.lineno)
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{path.name}:{line}: {fn.name} assigns {name}, never read"
                for name, line in sorted(assigned.items())
                if name not in read and name not in skip]
    return out


def test_no_dead_local_assignments():
    bad = [hit for f in sorted(SRC.glob("*.py")) for hit in _dead_local_assignments(f)]
    assert not bad, "\n".join(bad)


def _scope_refusals(path: Path) -> list[str]:
    """The constant text of each `raise UnsupportedScopeError(...)`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "UnsupportedScopeError"):
            out.append("".join(c.value for arg in node.exc.args for c in ast.walk(arg)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str)))
    return out


def test_every_scope_refusal_has_an_input():
    """Each refusal of the split analysis and the rebuild is reached by one
    entry of test_wo.SCOPE_REFUSALS, so one that no input reaches cannot
    be added unnoticed."""
    sites = [t for name in ("splits.py", "wo.py") for t in _scope_refusals(SRC / name)]
    messages = [m for _, _, m in SCOPE_REFUSALS]
    assert len(sites) == len(messages)
    for m in messages:
        assert sum(bool(re.search(m, t)) for t in sites) == 1, m


def _attribute_writes_and_fact_reads(path: Path) -> tuple[list[str], list[str]]:
    """The `object.__setattr__` calls of a module outside a `__post_init__`,
    and its reads of a decomposition's remembered facts (`._facts`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    writes, reads = [], []

    def visit(node, fn_name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn_name
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and getattr(child.func.value, "id", None) == "object"
                    and fn_name != "__post_init__"):
                writes.append(f"{path.name}:{child.lineno}: in {fn_name}")
            if isinstance(child, ast.Attribute) and child.attr == "_facts":
                reads.append(f"{path.name}:{child.lineno}")
            visit(child, inner)

    visit(tree, None)
    return writes, reads


def test_frozen_values_are_written_only_while_built():
    """Verify and tidy results are remembered on the decomposition object,
    which is sound only while no value of the package changes after its
    construction: an attribute is set behind a frozen dataclass only in
    its `__post_init__`, and the remembered facts are read in
    decomposition.py alone."""
    writes, reads = [], []
    for f in sorted(SRC.glob("*.py")):
        w, r = _attribute_writes_and_fact_reads(f)
        writes += w
        if f.name != "decomposition.py":
            reads += r
    assert not writes, "\n".join(writes)
    assert not reads, "\n".join(reads)
    _, own = _attribute_writes_and_fact_reads(SRC / "decomposition.py")
    assert own, "the lint no longer sees the remembered facts"


def _python_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's requires-python lower bound."""
    text = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.M)
    assert found, "pyproject.toml states no requires-python floor"
    return int(found[1]), int(found[2])


def test_every_module_parses_at_the_python_floor():
    """Each module uses only syntax the oldest supported Python accepts, so
    a newer form (an except* clause, say) cannot slip in under the newer
    interpreter the tests run on."""
    floor = _python_floor()
    bad = []
    for f in sorted(SRC.glob("*.py")):
        try:
            ast.parse(f.read_text(encoding="utf-8"), filename=str(f),
                      feature_version=floor)
        except SyntaxError as e:
            bad.append(f"{f.name}:{e.lineno}: {e.msg}")
    assert not bad, "\n".join(bad)
