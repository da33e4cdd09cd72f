"""No module of the package imports a name it never uses or exports a
name it does not define.

There is no linter in the toolchain, so this walks each module's syntax
tree: every name bound by a module-level import must be read somewhere
in the module or be re-exported through ``__all__``. Each name listed in
a module's ``__all__`` must resolve on the imported module.
"""

import ast
import importlib
from pathlib import Path

import pytest

import mslab

MODULES = sorted(Path(mslab.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    name = "mslab" if path.stem == "__init__" else f"mslab.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []
