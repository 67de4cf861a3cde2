"""The package's public surface: every exported name resolves, the names
of the retired solver-unknown API and helpers are gone, and every public
function and method has a caller."""

import ast
import pathlib
import re

import liftcalc
from liftcalc import lifts, symkernel
from liftcalc.charts import ChartSpec
from liftcalc.fields import AltForm
from liftcalc.structures import HermitianPackage

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "liftcalc"

# Solver unknowns were a second kind of atom; positions now carry plain
# string names, and coordinates are the only atoms.
REMOVED = ("UnknownId", "Atom", "ConjugationError", "NonlinearSystemError",
           "solve_poly_linear")
# The (1,1) solve checked the covector-pairing law after every solve, which
# the tensors suite owns; the complete-lift alias had one-line callers.
# fn_complete_step equalled fn_complete(f, 1).
RETIRED_LIFTS = ("t11_form_clause_notes", "complete_vf_cached",
                 "fn_complete_step")
# Methods that nothing in the package, the demos, the scripts or the
# benchmark called.
RETIRED_METHODS = {
    symkernel.GRat: ("is_real",),
    symkernel.Expr: ("leading_term", "substitute"),
    ChartSpec: ("dimension", "in_chart", "project", "dot"),
    AltForm: ("from_oneform", "wedge"),
    HermitianPackage: ("fundamental_form",),
}
# Public names with no caller outside the tests, each kept for a reason.
KEPT = {
    "Bilinear.is_symmetric": "the tests' property oracle (ROADMAP item 5)",
    "format_bilinear": "the Bilinear renderer, beside format_vector, "
                       "format_oneform and format_endo",
    "clear_lift_cache": "tests use it to reset the process caches",
}


def test_every_public_name_resolves():
    assert len(set(liftcalc.__all__)) == len(liftcalc.__all__)
    missing = [name for name in liftcalc.__all__ if not hasattr(liftcalc, name)]
    assert missing == []
    namespace: dict = {}
    exec("from liftcalc import *", namespace)
    assert set(liftcalc.__all__) <= set(namespace)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in liftcalc.__all__
        assert not hasattr(liftcalc, name)
        assert not hasattr(symkernel, name)
    for method in ("linear_split", "substitute_unknowns", "unknowns", "atoms"):
        assert not hasattr(symkernel.Expr, method)
    for name in RETIRED_LIFTS:
        assert name not in liftcalc.__all__
        assert not hasattr(liftcalc, name)
        assert not hasattr(lifts, name)
    assert "notes" not in lifts.SolveCertificate.__dataclass_fields__
    for cls, methods in RETIRED_METHODS.items():
        for method in methods:
            assert not hasattr(cls, method), f"{cls.__name__}.{method}"


def _public_defs(tree):
    """(qualified name, def node) of each public top-level function and
    public method of a top-level class."""
    for node in tree.body:
        prefix, body = (node.name + ".", node.body) \
            if isinstance(node, ast.ClassDef) else ("", [node])
        for item in body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield prefix + item.name, item


def test_every_public_callable_has_a_caller():
    """Each public name appears as a whole word outside its own definition,
    in the package (``__init__`` re-exports are not callers), the demos, the
    scripts or the benchmark.  perfbench/layertrace.py names functions in
    string tables to trace them, which is not a call."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources = modules + sorted((REPO / "demos").glob("*.py"))
    sources += sorted((REPO / "scripts").glob("*.py"))
    sources += [p for p in sorted((REPO / "perfbench").glob("*.py"))
                if p.name != "layertrace.py"]
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in sources}
    uncalled = {}
    for path in modules:
        for qualname, node in _public_defs(ast.parse("\n".join(lines[path]))):
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line)
                       for p, text in lines.items()
                       for n, line in enumerate(text, 1)
                       if not (p == path and node.lineno <= n <= node.end_lineno)):
                uncalled[qualname] = path.name
    assert {q: f for q, f in uncalled.items() if q not in KEPT} == {}
    # a kept name that gains a caller leaves the table
    assert set(KEPT) <= set(uncalled)


def test_no_unused_imports():
    """Every name a module of the package binds by a top-level import is
    used in that module (``__init__`` re-exports, ``__future__`` is
    exempt)."""
    unused = []
    for path in sorted(pathlib.Path(liftcalc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in bound.items() if name not in used]
    assert unused == []
