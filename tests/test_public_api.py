"""The package's public surface: every exported name resolves, the names
of the retired solver-unknown API and helpers are gone, and every public
function and method has a caller."""

import ast
import inspect
import pathlib

import liftcalc
from liftcalc import lifts, symkernel, verify
from liftcalc.charts import ChartSpec
from liftcalc.fields import EndoField
from liftcalc.structures import HermitianPackage
from liftcalc.verify import CompareReport

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "liftcalc"

# Solver unknowns were a second kind of atom; positions now carry plain
# string names, and coordinates are the only atoms.
# The fundamental two-form is an antisymmetric Bilinear, so the general
# alternating-form type went too.
REMOVED = ("UnknownId", "Atom", "ConjugationError", "NonlinearSystemError",
           "solve_poly_linear", "AltForm")
# The (1,1) solve checked the covector-pairing law after every solve, which
# the tensors suite owns; the complete-lift alias had one-line callers.
# fn_complete_step equalled fn_complete(f, 1).
# The determined lifts read their test fields' complete lifts from the
# system cache, so the second cache of any vector lift went.  The test
# families are kept in the system cache alone, and a vector lift solves its
# level ladders as one system.  Every determined lift solves the leading
# rows its system builder chose and checks every row, so the staged pairing
# and the vector ladders' separate system went.  A defining system solves
# itself, so the engine around it and its op-name table went, and each test
# family is one system holding its fields' lifts, so the per-stage
# test-lift entries went.  The systems and the one-term vector lifts are
# `functools.lru_cache`s, so the hand-written LRU and its dicts went, and a
# system no longer keeps its fields' lifts beside the one-term table.
RETIRED_LIFTS = ("t11_form_clause_notes", "complete_vf_cached",
                 "fn_complete_step", "_VF_SOLVE_CACHE", "_VF_SOLVE_CACHE_SIZE",
                 "_field_key", "_vf_solve_cached", "_bounded",
                 "vector_test_family", "_vf_ladder", "_FAMILY_CACHE_SIZE",
                 "_vf_ladders", "_PairEngine", "_Engine", "_OPS",
                 "_test_lifts", "_lru", "_SYSTEM_CACHE", "_VF_TERM_CACHE",
                 "_CompleteTable", "_CacheInfo")
# A table nothing read.
RETIRED_VERIFY = ("COMPARISON_SUBJECTS",)
# Methods that nothing in the package, the demos, the scripts or the
# benchmark called.
RETIRED_METHODS = {
    symkernel.GRat: ("is_real", "is_zero"),
    symkernel.Expr: ("leading_term", "substitute"),
    ChartSpec: ("dimension", "in_chart", "project", "dot"),
    HermitianPackage: ("fundamental_form",),
    EndoField: ("square",),
    CompareReport: ("verdict",),
}
# Public names with no caller outside the tests, each kept for a reason.
KEPT = {
    "Bilinear.is_symmetric": "the tests' property oracle (ROADMAP item 5)",
    "format_bilinear": "the Bilinear renderer, beside format_vector, "
                       "format_oneform and format_endo",
    "clear_lift_cache": "tests use it to reset the process caches",
    "Expr.terms": "the decode boundary of packed-integer monomials: the "
                  "public API speaks (CoordId, exponent) pairs",
    "Expr.term_map": "the decode boundary of packed-integer monomials: the "
                     "public API speaks (CoordId, exponent) pairs",
    "mono_mul": "the degree-checked product of two packed monomials; the "
                "kernel's loops inline it as one integer add and a test of "
                "the degree field's guard bit",
    "vf_defining_residuals": "the public holdout check of a given vector "
                             "lift; its solver, having checked its input "
                             "once, evaluates the same holdout directly",
    "of_defining_residuals": "the public holdout check of a given one-form "
                             "lift; its solver, having checked its input "
                             "once, evaluates the same holdout directly",
    "holo": "the tests' coordinate constructor",
    "anti": "the tests' coordinate constructor",
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
    for name in RETIRED_VERIFY:
        assert name not in liftcalc.__all__
        assert not hasattr(verify, name)
    assert "notes" not in lifts.SolveCertificate.__dataclass_fields__
    assert not any(hasattr(lifts._System((), [], 0), name)
                   for name in ("labels", "lifted"))
    for cls, methods in RETIRED_METHODS.items():
        for method in methods:
            assert not hasattr(cls, method), f"{cls.__name__}.{method}"


def test_defining_residuals_check_the_holdout_only():
    """The residual functions take no test family: each checks the holdout
    family its solver checks."""
    names = [name for name in dir(lifts)
             if name.endswith("_defining_residuals")]
    assert len(names) == 4
    for name in names:
        params = inspect.signature(getattr(lifts, name)).parameters
        assert not {"functions", "vectors"} & set(params), name


def _public_defs(tree):
    """(qualified name, def node) of each public top-level function and
    public method of a top-level class."""
    for node in tree.body:
        prefix, body = (node.name + ".", node.body) \
            if isinstance(node, ast.ClassDef) else ("", [node])
        for item in body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield prefix + item.name, item


def _bound(scope):
    """The names a function or lambda binds locally: its parameters and
    every name stored, defined or imported in its body."""
    names = {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _free_loads(tree):
    """(name, line) of each name load that no enclosing function's local
    name shadows."""
    out = set()

    def visit(node, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            shadowed = shadowed | _bound(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id not in shadowed:
            out.add((node.id, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return out


def _uncalled(texts, modules):
    """{qualified name: file name} of each public function and method
    defined in ``modules`` with no caller in ``texts`` (path -> source).

    Only code counts, never a docstring, string or comment: a method is
    called through an attribute access, and a function through an import
    of its name, an attribute access or a load in its own module that no
    local name shadows.  A use inside the definition itself is not a
    caller."""
    trees = {p: ast.parse(text) for p, text in texts.items()}
    attributes = {(node.attr, p, node.lineno) for p, tree in trees.items()
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imported = {alias.name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uncalled = {}
    for path in modules:
        loads = {(name, path, line) for name, line in _free_loads(trees[path])}
        for qualname, node in _public_defs(trees[path]):
            if "." in qualname:
                uses = attributes
            elif node.name in imported:
                continue
            else:
                uses = attributes | loads
            if not any(name == node.name
                       and not (p == path and node.lineno <= line <= node.end_lineno)
                       for name, p, line in uses):
                uncalled[qualname] = path.name
    return uncalled


def test_every_public_callable_has_a_caller():
    """Each public function and method has a caller in the package
    (``__init__`` re-exports are not callers), the demos, the scripts or
    the benchmark.  perfbench/layertrace.py names functions in string
    tables to trace them, which is not a call."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources = modules + sorted((REPO / "demos").glob("*.py"))
    sources += sorted((REPO / "scripts").glob("*.py"))
    sources += [p for p in sorted((REPO / "perfbench").glob("*.py"))
                if p.name != "layertrace.py"]
    texts = {p: p.read_text(encoding="utf-8") for p in sources}
    uncalled = _uncalled(texts, modules)
    assert {q: f for q, f in uncalled.items() if q not in KEPT} == {}
    # a kept name that gains a caller leaves the table
    assert set(KEPT) <= set(uncalled)


def test_a_mention_outside_code_is_not_a_caller():
    # a docstring, a comment, a string, a local name that shadows a function
    # and a recursive call are no callers; an import, an attribute access
    # and an unshadowed load are
    module = pathlib.Path("mod.py")
    texts = {module: '''
def helper():
    """Unlike square(), this has callers."""
    return 1

def square():
    return square()

def shadowed(helper=None):
    square = helper
    return square

class Report:
    def verdict(self):
        return "verdict: " + str(helper())

    def render(self, verdict=None):
        return verdict
''', pathlib.Path("user.py"): '''
# Report.render is called below; square is not
from mod import Report, shadowed
print(Report().render())
'''}
    assert _uncalled(texts, [module]) == {"square": "mod.py",
                                          "Report.verdict": "mod.py"}


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
