"""The package's public surface: every exported name resolves, and the
names of the retired solver-unknown API and lift helpers are gone."""

import ast
import pathlib

import liftcalc
from liftcalc import lifts, symkernel

# Solver unknowns were a second kind of atom; positions now carry plain
# string names, and coordinates are the only atoms.
REMOVED = ("UnknownId", "Atom", "ConjugationError", "NonlinearSystemError",
           "solve_poly_linear")
# The (1,1) solve checked the covector-pairing law after every solve, which
# the tensors suite owns; the complete-lift alias had one-line callers.
RETIRED_LIFTS = ("t11_form_clause_notes", "complete_vf_cached")


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
