"""Every name a library module imports is used in that module, the modules
import each other along a fixed, acyclic layering, every module-level
function or class is exported, listed in ``cli.__all__`` or used in src/, and
every method or property of such a class is reached as an attribute in src/,
tests/ or bench/.

No linter ships with the project, so this parses each module of the package
with the standard ``ast`` module.  ``__init__`` is exempt from the unused
import check: its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

import lcnlab
from lcnlab import cli

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


# --- definitions and methods that nothing uses --------------------------------

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


def unreferenced_definitions(modules: dict[str, str], exported: set[str]) -> list[str]:
    """``module.name`` for each module-level function or class of ``modules``
    that is not in ``exported`` and that no module refers to outside the
    definition's own lines."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    whole = {name: _references(tree) for name, tree in trees.items()}
    dead = []
    for name, tree in trees.items():
        used = set().union(*(refs for other, refs in whole.items() if other != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if node.name not in exported | used | _references(tree, [(start, node.end_lineno)]):
                dead.append(f"{name}.{node.name}")
    return sorted(dead)


def test_finds_an_unreferenced_definition():
    modules = {"m": ("def used():\n    return 1\n\n\ndef dead(n):\n    return dead(n - 1)\n\n\n"
                     "@staticmethod\ndef decorated():\n    pass\n\n\nclass Exported:\n    pass\n"),
               "n": "from m import used\n\nused()\n"}
    assert unreferenced_definitions(modules, {"Exported"}) == ["m.dead", "m.decorated"]


def _unused_in_src() -> list[str]:
    """The module-level definitions that src/ neither uses nor offers: the package
    exports the paper's objects, and ``cli.__all__`` lists the command line's entry
    points."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    surface = {alias.asname or alias.name for node in ast.walk(init)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    return unreferenced_definitions({p.stem: p.read_text() for p in MODULES},
                                    surface | set(cli.__all__))


def test_every_module_level_definition_is_used():
    # a private function that only tests call is dead code the tests keep alive
    assert [name for name in _unused_in_src() if name.split(".")[1].startswith("_")] == []


def test_every_public_name_is_exported_or_used_in_src():
    # a public name that only tests call is a second surface to keep
    assert [name for name in _unused_in_src() if not name.split(".")[1].startswith("_")] == []


def _attributes(tree, skip=()):
    """Names a module reaches as ``.name``, outside the line spans in ``skip``."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and not any(lo <= node.lineno <= hi for lo, hi in skip)}


def unreferenced_methods(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.Class.name`` for each method or property, dunders aside, of a
    module-level class of ``modules`` that no source (``others`` and the modules
    themselves) reaches as ``.name`` outside the method's own lines."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = set().union(*(_attributes(ast.parse(source)) for source in others))
    dead = []
    for name, tree in trees.items():
        used = outside.union(*(_attributes(t) for other, t in trees.items() if other != name))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or node.name.startswith("__") and node.name.endswith("__")):
                    continue
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if node.name not in used | _attributes(tree, [(start, node.end_lineno)]):
                    dead.append(f"{name}.{cls.name}.{node.name}")
    return sorted(dead)


def test_finds_an_unreferenced_method():
    modules = {"m": ("class A:\n    def __init__(self):\n        self.used()\n\n"
                     "    def used(self):\n        return 1\n\n"
                     "    def dead(self, n):\n        return self.dead(n - 1)\n\n"
                     "    @property\n    def size(self):\n        return 0\n\n"
                     "    @property\n    def read(self):\n        return 1\n\n\n"
                     "def used():\n    pass\n")}
    others = ["from m import A\n\nA().read\n"]
    assert unreferenced_methods(modules, others) == ["m.A.dead", "m.A.size"]


def test_every_method_is_used():
    modules = {p.stem: p.read_text() for p in MODULES}
    others = [p.read_text() for p in SOURCES if p.parent != PACKAGE]
    assert unreferenced_methods(modules, others) == []


# --- one process pool ----------------------------------------------------------


def imports_multiprocessing(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name.split(".")[0] == "multiprocessing" for name in names):
            return True
    return False


def _innermost(source: str):
    """(function, node) for every node of a source, with the name of the innermost
    function that encloses it (None at module level)."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        out.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def callers(source: str, name: str) -> list:
    """The innermost enclosing function (None at module level) of each call of a
    name or attribute ``name``, in source order."""
    return [function for function, node in _innermost(source) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_finds_multiprocessing_imports_and_pool_builders():
    source = ("import multiprocessing.pool as mp\nfrom multiprocessing import Pool\n\n"
              "def a(jobs):\n    with mp.Pool(2) as pool:\n        return pool.map(len, jobs)\n\n"
              "def b():\n    def inner():\n        return Pool()\n    return inner, Pool\n\n"
              "def c(pool):\n    return pool.imap(len, [])\n\n\nPool(1)\n")
    assert imports_multiprocessing(source)
    assert not imports_multiprocessing("import os\nfrom .optim import _train_all\n")
    assert callers(source, "Pool") == ["a", "inner", None]


def test_one_function_builds_the_process_pool():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [name for name, source in sorted(sources.items())
            if imports_multiprocessing(source)] == ["optim"]
    assert callers(sources["optim"], "Pool") == ["_train_all"]


def test_one_function_builds_the_critical_points_of_a_stratum():
    # every stratum route hands its points to _finish, which types and builds them
    built = {p.stem: callers(p.read_text(), "CritPoint") for p in PACKAGE.glob("*.py")}
    assert {name: sites for name, sites in built.items() if sites} == {"critlab": ["_finish"]}


# --- numpy's private modules ---------------------------------------------------


def private_numpy_imports(source: str) -> list:
    """Dotted names of numpy's private modules and names that a source imports:
    ``numpy._core``, numpy 1.x's ``numpy.core``, or any ``numpy.*._name``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "numpy" and any(p == "core" or p.startswith("_") for p in parts[1:]):
                out.append(name)
    return out


def test_finds_private_numpy_imports():
    source = ("import numpy as np\nimport numpy.core.multiarray\nfrom numpy import _core\n"
              "from numpy.linalg import LinAlgError, _umath_linalg\n"
              "from numpy._core.multiarray import correlate2\nfrom .numpy._x import y\n"
              "from numpy._core._ufunc_config import _make_extobj\n\n"
              "def f():\n    import numpy.lib._function_base_impl as fb\n    return fb\n")
    assert sorted(private_numpy_imports(source)) == [
        "numpy._core", "numpy._core._ufunc_config", "numpy._core._ufunc_config._make_extobj",
        "numpy._core.multiarray", "numpy._core.multiarray.correlate2",
        "numpy.core.multiarray", "numpy.lib._function_base_impl", "numpy.linalg._umath_linalg"]
    assert private_numpy_imports("import numpy as np\nfrom numpy.linalg import solve\n") == []


def test_only_poly_core_imports_numpys_private_modules():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [name for name, source in sorted(sources.items())
            if private_numpy_imports(source)] == ["poly_core"]


# --- one owner for each input rule -----------------------------------------------


def _is_integer_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_integer",
                                                                               "_integers")


def integer_comparisons(source: str) -> list:
    """The innermost enclosing function of each bound check, an order comparison (<, <=,
    >, >=), of an ``_integer(...)`` call or of a name that the same function assigns one
    to, an ``_integers(...)`` tuple or an entry of one, in source order."""
    nodes = _innermost(source)
    held = {(function, target.id) for function, node in nodes
            if isinstance(node, ast.Assign) and any(map(_is_integer_call, ast.walk(node.value)))
            for target in node.targets if isinstance(target, ast.Name)}
    held |= {(function, node.target.id) for function, node in nodes
             if isinstance(node, ast.comprehension) and isinstance(node.target, ast.Name)
             and (_is_integer_call(node.iter) or getattr(node.iter, "id", None)
                  and (function, node.iter.id) in held)}
    return [function for function, node in nodes if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
            and any(_is_integer_call(x) or isinstance(x, ast.Name) and (function, x.id) in held
                    for x in [node.left, *node.comparators])]


def error_messages(source: str, words) -> list:
    """The innermost enclosing function of each ``ValueError(...)`` whose message holds
    one of ``words``, each once."""
    return list(dict.fromkeys(
        function for function, node in _innermost(source) if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "ValueError"
        and any(isinstance(c, ast.Constant) and any(w in str(c.value) for w in words)
                for c in ast.walk(node))))


def non_finite_checks(source: str) -> list:
    """The module-level functions whose name says "finite", and the innermost enclosing
    function of each error whose message says "non-finite", each once."""
    names = [node.name for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and "finite" in node.name]
    return list(dict.fromkeys(names + error_messages(source, ["non-finite"])))


BOUNDS = ["must be positive", "non-negative", "nonnegative", "finite and"]


def test_finds_integer_comparisons_and_error_messages():
    source = ("def a(n):\n    if _integer('n', n) < 1:\n        raise ValueError('n')\n\n"
              "def b(n, k):\n    n = _integer('n', n)\n    k = int(k)\n    return n > 2 and k > 2\n\n"
              "def c(n):\n    n = _integer('n', n, 1)\n    return range(n) if n == 1 else n\n\n"
              "def _finite(v):\n    return v\n\n"
              "class R:\n    def finite(self):\n        return self\n\n"
              "def d(v):\n    if v != v:\n        raise ValueError(f'{v} has non-finite entries')\n\n"
              "def e(ks):\n    ks = tuple(sorted(_integers('ks', ks)))\n"
              "    return any(k < 1 for k in ks) or [s for s in _integers('s', ks) if s >= 2]\n\n"
              "def f(x):\n    error = ValueError(f'x must be finite and positive, got {x}')\n"
              "    if x <= 0:\n        raise error\n    raise ValueError('x must be positive')\n")
    assert integer_comparisons(source) == ["a", "b", "e", "e"]
    assert non_finite_checks(source) == ["_finite", "d"]
    assert error_messages(source, BOUNDS) == ["f"]


def test_poly_core_alone_holds_the_count_bound_and_non_finite_rules():
    # landscape_grid keeps the grid's upper bound of 512 beside its lower one, and
    # _integer, which _integers calls for its bound, words that bound outside its ValueError
    sources = {p.stem: p.read_text() for p in MODULES}
    assert {name: sites for name, source in sources.items()
            if (sites := integer_comparisons(source))} == {"cli": ["landscape_grid"]}
    assert {name: sites for name, source in sources.items()
            if (sites := error_messages(source, BOUNDS))} == {"poly_core": ["_real"]}
    assert {name: sites for name, source in sources.items()
            if (sites := non_finite_checks(source))} == {"poly_core": ["_require_finite"]}
