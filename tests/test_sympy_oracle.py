"""Differential tests of the polynomial kernel against sympy.

sympy is an optional, independent oracle: when it is not installed the whole
module is skipped, and liftcalc itself never imports it.  Small polynomials
drawn by hypothesis are multiplied, differentiated, substituted into and
divided both ways, and sympy's expanded result must equal liftcalc's.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcalc.symkernel import (
    TIME,
    ExactDivisionError,
    Expr,
    GRat,
    anti,
    divide_exact,
    holo,
)

sympy = pytest.importorskip("sympy")

_COORDS = [TIME, holo(0, 1), anti(0, 1), holo(1, 1)]
_SYMBOLS = {c: sympy.Symbol(c.name) for c in _COORDS}
_GENS = list(_SYMBOLS.values())

_rats = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_coeffs = st.builds(GRat, _rats, _rats).filter(bool)
_monomials = st.lists(
    st.tuples(st.sampled_from(_COORDS), st.integers(min_value=1, max_value=2)),
    max_size=3,
)


def _from_parts(parts):
    e = Expr.zero()
    for coeff, mono in parts:
        term = Expr.constant(coeff)
        for coord, n in mono:
            term = term * Expr.atom(coord, n)
        e = e + term
    return e


_polys = st.lists(st.tuples(_coeffs, _monomials), max_size=4).map(_from_parts)


def _rational(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def to_sympy(e: Expr):
    """The sympy expression of an Expr, built term by term from its map."""
    out = sympy.Integer(0)
    for mono, c in e.term_map().items():
        term = _rational(c.re) + sympy.I * _rational(c.im)
        for atom, n in mono:
            term = term * _SYMBOLS[atom] ** n
        out = out + term
    return sympy.expand(out)


def _same(ours: Expr, theirs) -> bool:
    return sympy.expand(to_sympy(ours) - theirs) == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_polys, _polys)
def test_mul_and_sub_match_sympy(a, b):
    assert _same(a * b, sympy.expand(to_sympy(a) * to_sympy(b)))
    assert _same(a - b, sympy.expand(to_sympy(a) - to_sympy(b)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_polys, st.sampled_from(_COORDS))
def test_diff_matches_sympy(a, coord):
    assert _same(a.diff(coord), sympy.diff(to_sympy(a), _SYMBOLS[coord]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_polys, _polys, _polys)
def test_substitute_matches_sympy(a, b, c):
    z, zb = holo(0, 1), anti(0, 1)
    ours = a.substitute({z: b, zb: c})
    theirs = to_sympy(a).subs({_SYMBOLS[z]: to_sympy(b), _SYMBOLS[zb]: to_sympy(c)},
                              simultaneous=True)
    assert _same(ours, sympy.expand(theirs))


def _sympy_quotient(f, g):
    """sympy's exact quotient f/g over the Gaussian rationals, or None."""
    pf = sympy.Poly(to_sympy(f), *_GENS, domain=sympy.QQ_I)
    pg = sympy.Poly(to_sympy(g), *_GENS, domain=sympy.QQ_I)
    try:
        return pf.exquo(pg).as_expr()
    except sympy.polys.polyerrors.ExactQuotientFailed:
        return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_polys, _polys)
def test_divide_exact_of_a_product_matches_sympy(a, b):
    if b.is_zero():
        return
    q = divide_exact(a * b, b)
    assert q == a
    theirs = _sympy_quotient(a * b, b)
    assert theirs is not None
    assert _same(q, sympy.expand(theirs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_polys, _polys)
def test_divide_exact_agrees_with_sympy_on_divisibility(f, g):
    if g.is_zero():
        return
    theirs = _sympy_quotient(f, g)
    try:
        q = divide_exact(f, g)
    except ExactDivisionError:
        assert theirs is None
    else:
        assert theirs is not None
        assert _same(q, sympy.expand(theirs))
