"""The package's public surface: every exported name resolves, and the
names of the retired solver-unknown API are gone."""

import liftcalc
from liftcalc import symkernel

# Solver unknowns were a second kind of atom; positions now carry plain
# string names, and coordinates are the only atoms.
REMOVED = ("UnknownId", "Atom", "ConjugationError", "NonlinearSystemError",
           "solve_poly_linear")


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
