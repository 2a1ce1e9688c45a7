"""Source hygiene: every name a ``wknots`` module imports is used in it,
every import but one sits at the top of its module, no module imports an
underscore name from another or imports ``dataclasses``, no ``.get``
default builds a fresh ``Rat`` zero, every name a module defines at top
level is referenced in ``src/``, the benchmark or the test oracles (or is
listed as API only tests use), the package-data globs and the data files
match each other, and every function and method the benchmark's tracer
wraps still resolves."""

import ast
import importlib.util
from pathlib import Path

import pytest

import wknots
from wknots.alexander import knot_inventory
from wknots.arrows import LONG, generate_relations, quotient
from wknots.expansion import zed_knot
from wknots.gauss import pd_to_gauss

MODULES = sorted(Path(wknots.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names bound by import statements that no expression references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_unused_import_is_detected():
    assert unused_imports("from .rings import TruncSeries\nimport os.path\n"
                          "from __future__ import annotations\n"
                          "x = os.path.join\n") == {"TruncSeries"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def imported_modules(source):
    """Top-level names of the modules an absolute import statement reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_imported_module_is_detected():
    assert imported_modules("import os.path\nfrom dataclasses import field\n"
                            "from .rings import LaurentPoly\n"
                            "def f():\n    import json\n") == {
        "os", "dataclasses", "json"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_dataclasses(path):
    # importing dataclasses costs about 10 ms on every CLI start
    assert "dataclasses" not in imported_modules(
        path.read_text(encoding="utf-8"))


def private_imports(source):
    """Underscore names an import statement reads from another ``wknots``
    module, relative or absolute; dunder names aside."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "wknots"):
            found.update(a.name for a in node.names
                         if a.name.startswith("_")
                         and not a.name.endswith("__"))
    return found


def test_private_import_is_detected():
    assert private_imports("from .gauss import _pd_crossing_sign, PDCode\n"
                           "from wknots.arrows import _cuts\n"
                           "from . import __version__\n"
                           "from os import _exit\n"
                           "def f():\n    from .jacobi import _blocks\n"
                           ) == {"_pd_crossing_sign", "_cuts", "_blocks"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_imports(path):
    # a module's underscore names are its own; another module that needs
    # one needs it made public or its work done where the name lives
    assert private_imports(path.read_text(encoding="utf-8")) == set()


def fresh_zero_defaults(source):
    """Line numbers of ``.get(key, rat(0))`` and ``.get(key, Rat(0))``
    calls, which build a new zero on every call, hit or miss."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and len(node.args) == 2):
            d = node.args[1]
            if (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                    and d.func.id in ("rat", "Rat") and not d.keywords
                    and [getattr(a, "value", None) for a in d.args] == [0]):
                found.add(node.lineno)
    return found


def test_fresh_zero_default_is_detected():
    assert fresh_zero_defaults("a = t.get(k, rat(0)) + c\n"
                               "b = t.get(k, Rat(0))\n"
                               "c = t.get(k, ZERO)\nd = t.get(k, rat(1))\n"
                               "e = t.get(k, 0)\nf = rat(0)\n"
                               "g = t.get(k, rat(x))\n") == {1, 2}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_fresh_zero_defaults(path):
    # rational.ZERO is one shared zero: a Rat is immutable
    assert fresh_zero_defaults(path.read_text(encoding="utf-8")) == set()


def function_imports(source):
    """(function, module) for every import statement inside a function."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found.update((fn.name, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.add((fn.name, node.module))
    return found


def test_function_import_is_detected():
    src = ("import os\ndef f():\n    import sys\n"
           "    def g():\n        from .jacobi import cc_blocks\n")
    assert function_imports(src) == {("f", "sys"), ("f", "jacobi"),
                                     ("g", "jacobi")}


# jacobi builds its trivalent diagrams on arrows, so arrows reads the CC
# blocks from jacobi only when it places them: the one import cycle
FUNCTION_IMPORTS = {("arrows", "_cc_relators", "jacobi")}


def test_imports_sit_at_the_top():
    found = {(path.stem,) + imp for path in MODULES
             for imp in function_imports(path.read_text(encoding="utf-8"))}
    assert found == FUNCTION_IMPORTS


def top_level_definitions(body):
    """(name, statement) for each function, class and assigned name a
    module body defines at top level, the statement being the top-level
    one that holds it (a definition inside a top-level ``if`` or ``try``
    block is held by that block)."""
    found = []
    for top in body:
        stmts = [top]
        while stmts:
            node = stmts.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, top))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                found += [(n.id, top) for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.If, ast.Try)):
                stmts += node.body + node.orelse + getattr(node, "finalbody",
                                                           [])
                stmts += [s for h in getattr(node, "handlers", [])
                          for s in h.body]
    return found


def referenced_names(tree):
    """Names an AST reads, imports by name, reads as an attribute, or
    spells out as a whole string constant (as ``perfbench/trace.py`` names
    the functions it wraps)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def unreferenced_names(source, elsewhere):
    """Top-level names of a module, dunder names aside, that neither the
    names ``elsewhere`` nor any other top-level statement of the module
    reference: a name used only in its own definition counts as unused."""
    body = ast.parse(source).body
    refs = [referenced_names(stmt) for stmt in body]
    return {name for name, top in top_level_definitions(body)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in elsewhere
            and not any(name in r for stmt, r in zip(body, refs)
                        if stmt is not top)}


def test_unreferenced_name_is_detected():
    src = ("try:\n    A = 1\nexcept ImportError:\n    B = 2\n"
           "def f():\n    return f() + A\nclass C:\n    pass\n"
           "def g():\n    return C\n__all__ = []\n")
    assert {name for name, _ in top_level_definitions(ast.parse(src).body)
            } == {"A", "B", "f", "C", "g", "__all__"}
    assert unreferenced_names(src, set()) == {"B", "f", "g"}
    assert unreferenced_names(src, {"g", "f"}) == {"B"}


# Where a top-level name of src/ may be used: src/ itself, the benchmark
# and the test oracles.  The API below is used only by tests.
USERS = sorted(p for d in ("src", "perfbench")
               for p in (ROOT / d).rglob("*.py")) + [ROOT / "tests/oracles.py"]
TEST_ONLY_API = {"word_mul", "gauss_to_text", "pd_to_text",
                 "braid_delete_strand", "braid_clone_strand", "D_LEFT"}


def test_every_top_level_name_is_referenced():
    refs = {path: referenced_names(ast.parse(path.read_text(encoding="utf-8")))
            for path in USERS}
    unused = set()
    for path in MODULES:
        elsewhere = set().union(*(r for p, r in refs.items()
                                  if p.resolve() != path.resolve()))
        unused |= unreferenced_names(path.read_text(encoding="utf-8"),
                                     elsewhere)
    assert unused == TEST_ONLY_API


def test_package_data_globs_match_the_data_files():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["wknots"]
    package = ROOT / "src" / "wknots"
    assert [g for g in globs if not any(package.glob(g))] == []
    data = [p.relative_to(package) for p in (package / "data").rglob("*")
            if p.is_file() and p.suffix != ".py"
            and "__pycache__" not in p.parts]
    assert data
    assert [p for p in data if not any(p.match(g) for g in globs)] == []


def tracer_module():
    """``perfbench/trace.py``, loaded from its file (its module name would
    shadow the standard ``trace``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_trace", ROOT / "perfbench" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tracer_tables():
    """``FUNCTIONS`` and ``METHODS`` of ``perfbench/trace.py``."""
    module = tracer_module()
    return module.FUNCTIONS, module.METHODS


def test_traced_names_resolve():
    # the tracer finds each name the way it patches it: a function as a
    # module attribute, a method in its class's own __dict__
    functions, methods = tracer_tables()
    assert functions and methods
    for module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(module), attr))
    for module, cls, attr, _ in methods:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(owner.__dict__[attr])


def test_tracer_reads_relators_and_zed():
    # what the tracer's counters read of the results it wraps: the
    # ``terms`` of each relator, and the ``terms`` of each of Z's ``comps``;
    # and the relators project to zero, as the quotients workload checks
    tracer = tracer_module().Tracer()
    relators = generate_relations(LONG, 3, {"TC", "4T"})
    tracer._after_relators(relators)
    up_to_sign = {frozenset({tuple(sorted(t.items())),
                             tuple(sorted((d, -c) for d, c in t.items()))})
                  for t in (v.terms for v in relators)}
    assert tracer.counts["arrows.relators"] == len(relators) > 0
    assert tracer.counts["arrows.relators_distinct"] == len(up_to_sign)
    z = zed_knot(pd_to_gauss(knot_inventory()["4_1"]), 3)
    tracer._after_zed(z)
    terms = sum(len(z.comps[m].terms) for m in range(z.d + 1))
    assert tracer.counts["expansion.zed_terms"] == terms > 0
    q = quotient(LONG, 3, {"TC", "4T"})
    assert not any(any(q.project(v)) for v in relators[::5])
    assert [q.project_diagram(d) for d in q.basis] == [
        [int(j == i) for j in range(q.dim)] for i in range(q.dim)]
