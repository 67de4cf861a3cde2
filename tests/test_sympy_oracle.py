"""Differential tests of the polynomial kernel against sympy.

sympy is an optional, independent oracle: when it is not installed the whole
module is skipped, and liftcalc itself never imports it.  Small polynomials
drawn by hypothesis are multiplied, differentiated and divided both ways, and
sympy's expanded result must equal liftcalc's.  Small polynomial linear
systems are solved through one factorisation for several right-hand sides,
and each solution, or each failure, must agree with sympy's ``linsolve``.
A solve reads only the pivot rows, so on overdetermined systems an
inconsistent right-hand side may return values; the raw rows refute them.
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
    InconsistentSystemError,
    PolyLinearFactor,
    UnderdeterminedError,
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


# -- linear systems -------------------------------------------------------------

_SOLVE_COORDS = [holo(0, 1), anti(0, 1)]
# Coefficients stay small: at most two terms of degree <= 1, so the
# cross-multiplied rows of a 3 x 3 elimination stay cheap for sympy.
_entries = st.lists(
    st.tuples(_coeffs, st.lists(st.tuples(st.sampled_from(_SOLVE_COORDS),
                                          st.just(1)), max_size=1)),
    max_size=2).map(_from_parts)
_values = st.lists(
    st.tuples(_coeffs, st.lists(st.tuples(st.sampled_from(_SOLVE_COORDS),
                                          st.integers(1, 2)), max_size=2)),
    max_size=3).map(_from_parts)


def _matrices(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _names(n):
    return [f"x{p}" for p in range(n)]


def _rows(matrix):
    return [{p: c for p, c in enumerate(row) if not c.is_zero()}
            for row in matrix]


def _rhs_of(matrix, values):
    """The right-hand sides that make `values` a solution: A x."""
    out = []
    for row in matrix:
        total = Expr.zero()
        for c, v in zip(row, values):
            total = total + c * v
        out.append(total)
    return out


def _det(matrix):
    return sympy.expand(sympy.Matrix(
        [[to_sympy(c) for c in row] for row in matrix]).det(method="berkowitz"))


def _linsolve(matrix, rhs):
    xs = sympy.symbols(f"x0:{len(matrix[0])}")
    eqs = [sum((to_sympy(c) * x for c, x in zip(row, xs)), -to_sympy(b))
           for row, b in zip(matrix, rhs)]
    return xs, sympy.linsolve(eqs, xs)


def _raised(fn):
    """The solver error that `fn` raised."""
    try:
        fn()
    except (UnderdeterminedError, InconsistentSystemError) as exc:
        return exc
    raise AssertionError("the system solved")


def _same_solution(ours, matrix, rhs):
    _, theirs = _linsolve(matrix, rhs)
    (theirs,) = theirs
    return all(sympy.cancel(to_sympy(mine) - their) == 0
               for mine, their in zip(ours, theirs))


def _is_polynomial(solution):
    return all(not sympy.fraction(sympy.cancel(t))[1].free_symbols
               for t in solution)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(_matrices(n, n),
                        st.lists(st.lists(_values, min_size=n, max_size=n),
                                 min_size=1, max_size=3),
                        st.lists(_values, min_size=n, max_size=n))))
def test_one_factorisation_solves_many_right_hand_sides(case):
    """Right-hand sides built from a known polynomial solution give it back;
    arbitrary ones solve like sympy's unique solution when it is a
    polynomial, and fail to divide exactly when it is not."""
    matrix, solutions, arbitrary = case
    if _det(matrix) == 0:
        return
    names = _names(len(matrix))
    factor = PolyLinearFactor(_rows(matrix), len(names))
    for values in solutions:
        rhs = _rhs_of(matrix, values)
        ours = factor.solve(rhs, names)
        assert ours == values
        assert _same_solution(ours, matrix, rhs)
    (theirs,) = _linsolve(matrix, arbitrary)[1]
    if _is_polynomial(theirs):
        assert _same_solution(factor.solve(arbitrary, names), matrix, arbitrary)
    else:
        failed = _raised(lambda: factor.solve(arbitrary, names))
        assert isinstance(failed, InconsistentSystemError)
        assert str(failed).startswith("no polynomial solution for x")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(_matrices(n - 1, n), _entries.filter(bool),
                        st.lists(_values, min_size=n, max_size=n),
                        st.booleans())))
def test_singular_and_inconsistent_systems_fail_like_the_one_shot_solve(case):
    """A last row that is a multiple of the first makes the system
    singular, and the solve names its free unknowns before reading any
    right-hand side.  The last right-hand side either follows (sympy's
    solution is parametric) or is off by one (sympy finds none)."""
    top, factor_poly, values, consistent = case
    matrix = top + [[factor_poly * c for c in top[0]]]
    rhs = _rhs_of(matrix, values)
    if not consistent:
        rhs[-1] = rhs[-1] + 1
    names = _names(len(values))
    failed = _raised(lambda: PolyLinearFactor(_rows(matrix), len(values))
                     .solve(rhs, names))
    assert isinstance(failed, UnderdeterminedError)
    assert failed.free and set(failed.free) <= set(names)
    assert str(failed) == ("underdetermined system; free unknowns: "
                           + ", ".join(failed.free))
    xs, theirs = _linsolve(matrix, rhs)
    if consistent:
        (theirs,) = theirs
        assert set(xs) & set().union(*(t.free_symbols for t in theirs))
    else:
        assert theirs == sympy.S.EmptySet


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(_matrices(n, n),
                        st.lists(_entries, min_size=n, max_size=n),
                        st.integers(0, n),
                        st.lists(_values, min_size=n, max_size=n),
                        st.booleans())))
def test_overdetermined_systems_are_checked_on_their_raw_rows(case):
    """n nonsingular rows plus one polynomial combination of them, inserted
    anywhere: full column rank, so nothing is free.  A consistent right-hand
    side solves like sympy and every raw row vanishes at the values.  With
    the combination's right-hand side off by one sympy finds no solution,
    and either the solve raises or some raw row does not vanish at the
    values it returns."""
    top, weights, at, values, consistent = case
    if _det(top) == 0:
        return
    combination = [sum((w * row[p] for w, row in zip(weights, top)),
                       Expr.zero()) for p in range(len(values))]
    matrix = top[:at] + [combination] + top[at:]
    rhs = _rhs_of(matrix, values)
    if not consistent:
        rhs[at] = rhs[at] + 1
    names = _names(len(values))
    factor = PolyLinearFactor(_rows(matrix), len(values))
    assert not factor.free
    _, theirs = _linsolve(matrix, rhs)
    try:
        ours = factor.solve(rhs, names)
    except InconsistentSystemError:
        assert not consistent and theirs == sympy.S.EmptySet
        return
    residuals = [ax - b for ax, b in zip(_rhs_of(matrix, ours), rhs)]
    if consistent:
        assert ours == values
        assert _same_solution(ours, matrix, rhs)
        assert all(r.is_zero() for r in residuals)
    else:
        assert theirs == sympy.S.EmptySet
        assert any(not r.is_zero() for r in residuals)
