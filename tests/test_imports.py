"""Every name a library module imports is used in that module, and the
modules import each other along a fixed, acyclic layering.

No linter ships with the project, so this parses each module of the package
with the standard ``ast`` module.  ``__init__`` is exempt from the unused
import check: its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

import lcnlab

PACKAGE = pathlib.Path(lcnlab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# module -> the package modules it imports.  A new edge changes the layering,
# so it has to be added here on purpose.
LAYERING = {
    "__init__": {"critlab", "dynamics", "funcspace", "optim", "poly_core", "rootlab"},
    "cli": {"critlab", "dynamics", "funcspace", "optim", "poly_core", "rootlab"},
    "critlab": {"optim", "poly_core", "rootlab"},
    "dynamics": {"poly_core", "rootlab"},
    "funcspace": {"dynamics", "poly_core", "rootlab"},
    "optim": {"poly_core", "rootlab"},
    "poly_core": set(),
    "rootlab": {"poly_core"},
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are re-exports
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    source = "import os\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["field (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> set[str]:
    """Package modules a module imports with a relative import, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_finds_package_imports():
    source = "from .a import x\nfrom . import b\nimport numpy\ndef f():\n    from .c.d import y\n"
    assert package_imports(source) == {"a", "b", "c"}


def test_import_graph_matches_the_layering_and_has_no_cycle():
    graph = {p.stem: package_imports(p.read_text()) for p in PACKAGE.glob("*.py")}
    done = set()

    def visit(module, path):
        assert module not in path, f"import cycle {' -> '.join(path + [module])}"
        if module not in done:
            for dep in graph[module]:
                visit(dep, path + [module])
            done.add(module)

    for module in graph:
        visit(module, [])
    assert graph == LAYERING
