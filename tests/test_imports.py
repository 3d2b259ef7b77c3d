"""Every name a library module imports is used in that module, the modules
import each other along a fixed, acyclic layering, and every module-level
function or class is exported or used somewhere in src/, tests/ or bench/.

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


# --- module-level definitions that nothing uses --------------------------------

REPO = PACKAGE.parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (REPO / d).rglob("*.py"))


def _references(tree, skip=()):
    """Names a module reads, imports or reaches as attributes, outside the
    line spans in ``skip``."""
    out = set()
    for node in ast.walk(tree):
        if any(lo <= getattr(node, "lineno", 0) <= hi for lo, hi in skip):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def unreferenced_definitions(modules: dict[str, str], others: list[str],
                             exported: set[str]) -> list[str]:
    """``module.name`` for each module-level function or class of ``modules``
    that is not in ``exported`` and that no source (``others`` and the
    modules themselves) refers to outside the definition's own lines."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    whole = {name: _references(tree) for name, tree in trees.items()}
    outside = [_references(ast.parse(source)) for source in others]
    dead = []
    for name, tree in trees.items():
        used = set().union(*outside, *(refs for other, refs in whole.items() if other != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if node.name not in exported | used | _references(tree, [(start, node.end_lineno)]):
                dead.append(f"{name}.{node.name}")
    return sorted(dead)


def test_finds_an_unreferenced_definition():
    modules = {"m": ("def used():\n    return 1\n\n\ndef dead(n):\n    return dead(n - 1)\n\n\n"
                     "@staticmethod\ndef decorated():\n    pass\n\n\nclass Exported:\n    pass\n")}
    others = ["from m import used\n\nused()\n"]
    assert unreferenced_definitions(modules, others, {"Exported"}) == ["m.dead", "m.decorated"]


def test_every_module_level_definition_is_used():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules = {p.stem: p.read_text() for p in MODULES}
    others = [p.read_text() for p in SOURCES if p.parent != PACKAGE]
    assert unreferenced_definitions(modules, others, exported) == []
