"""No module of the package imports a name it never uses, and no module
defines a private function or class that no module reads.

Each module of `src/hspsim` except the package's `__init__.py`, which
re-exports, is parsed with `ast`.  A module-level import binds a name; the
module uses it when the name is read anywhere in the module, as a plain name
or as the base of an attribute, in a quoted annotation, or listed in
`__all__`.  A module-level function or class whose name starts with an
underscore is read when some module of the package, `__init__.py` included,
names it as a plain name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hspsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each module-level import's binding."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
            yield args.vararg and args.vararg.annotation
            yield args.kwarg and args.kwarg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _names(ast.parse(n.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _bound_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from x import a, b\nimport c.d\ndef f(y: 'b') -> None:\n    return c.d(y)\n"
    )
    bound = _bound_names(tree)
    assert sorted(n for n in bound if n not in _used_names(tree)) == ["a"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each module-level private function or class."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def _read_names(tree: ast.AST) -> set[str]:
    return _names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _unread_private(trees: dict[str, ast.Module]) -> dict[str, int]:
    read = set().union(*map(_read_names, trees.values()))
    return {
        f"{name}:{def_name}": line
        for name, tree in trees.items()
        for def_name, line in _private_definitions(tree).items()
        if def_name not in read
    }


def test_every_private_definition_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    unread = _unread_private(trees)
    assert not unread, f"private functions or classes no module reads: {unread}"


def test_the_check_sees_an_unread_private_function():
    trees = {
        "a.py": ast.parse("def _kept(): pass\ndef _dead(): pass\nclass _Gone: pass\n"),
        "b.py": ast.parse("from a import _kept\nimport a\nx = a._kept() or _kept\n"),
    }
    assert sorted(_unread_private(trees)) == ["a.py:_Gone", "a.py:_dead"]
