"""No module of the package imports a name it never uses.

Each module of `src/hspsim` except the package's `__init__.py`, which
re-exports, is parsed with `ast`.  A module-level import binds a name; the
module uses it when the name is read anywhere in the module, as a plain name
or as the base of an attribute, in a quoted annotation, or listed in
`__all__`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hspsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
