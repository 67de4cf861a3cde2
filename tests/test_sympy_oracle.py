"""Differential tests of the polynomial kernel and the certified lifts
against sympy.

sympy is an optional, independent oracle: when it is not installed the whole
module is skipped, and liftcalc itself never imports it.  Small polynomials
drawn by hypothesis are multiplied and differentiated both ways, and
sympy's expanded result must equal liftcalc's.  On small polynomial linear
systems the elimination leaves no position free exactly when sympy's
``linsolve`` finds one solution with no free symbol, and each certified
vector and one-form lift is sympy's unique solution of its system's rows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcalc import lifts as L
from liftcalc.charts import ChartSpec
from liftcalc.fields import OneForm, VectorField
from liftcalc.symkernel import TIME, Expr, GRat, _eliminate, anti, holo
from liftcalc.verify import FieldGen

sympy = pytest.importorskip("sympy")

_COORDS = [TIME, holo(0, 1), anti(0, 1), holo(1, 1)]
_SYMBOLS = {c: sympy.Symbol(c.name) for c in _COORDS}

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
            term = term * sympy.Symbol(atom.name) ** n
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


def _rows(matrix):
    return [{p: c for p, c in enumerate(row) if not c.is_zero()}
            for row in matrix]


def _linsolve(rows, width, rhs):
    """sympy's solutions of ``sum(row[p] * x_p) == rhs_n`` over the field
    of rational functions, and its unknowns."""
    xs = sympy.symbols(f"x0:{width}")
    eqs = [sum((to_sympy(c) * xs[p] for p, c in row.items()), -to_sympy(b))
           for row, b in zip(rows, rhs)]
    return xs, sympy.linsolve(eqs, xs)


def _unique(xs, solutions):
    """sympy's one solution, or None when it has a free unknown."""
    (solution,) = solutions
    if set(xs) & set().union(*(t.free_symbols for t in solution)):
        return None
    return solution


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.integers(max(1, n - 1), n + 1).flatmap(
                            lambda rows: _matrices(rows, n)),
                        st.lists(_values, min_size=n, max_size=n),
                        st.booleans())))
def test_no_position_is_free_exactly_when_sympy_finds_one_solution(case):
    """On 1-3 unknowns and one row fewer to one row more: with right-hand
    sides that some polynomial values meet, sympy finds a solution, and it
    has no free unknown exactly when the elimination leaves no position
    free.  Half the systems repeat their first row, scaled, as their last
    row."""
    matrix, values, repeat = case
    if repeat and len(matrix) > 1:
        matrix[-1] = [c * (Expr.atom(holo(0, 1)) + 2) for c in matrix[0]]
    rows = _rows(matrix)
    rhs = [sum((c * values[p] for p, c in row.items()), Expr.zero())
           for row in rows]
    pivoted = {p[0] for p in _eliminate(rows, len(values))}
    xs, solutions = _linsolve(rows, len(values), rhs)
    assert (len(pivoted) == len(values)) == (_unique(xs, solutions)
                                             is not None)


def _lift_cases(chart0, k):
    """``(lift, system, coordinates, right-hand sides)`` of the vector and
    one-form lifts of kinds v, c and every cv split, with t-dependent terms
    on a chart with t: the system and the right-hand sides each solver
    certifies its candidate against."""
    gen = FieldGen(0)
    Z, w = gen.vector(chart0), gen.oneform(chart0, time_component=0)
    if chart0.has_time:
        t, z = Expr.atom(TIME), Expr.atom(holo(0, 1))
        Z = Z + VectorField(chart0, {holo(0, 1): t * z, TIME: 3})
        w = w + OneForm(chart0, {anti(0, 1): t})
    pairing = L._system((L._pairing, chart0, k))
    out = []
    for kind, r, s in [("v", None, None), ("c", None, None)] + [
            ("cv", r, k - r) for r in range(k + 1)]:
        include_time = chart0.has_time and kind == "v"
        family = L._system((L._vf_family, chart0, k, include_time))
        out.append((L.vf_lift_solve(Z, kind, k, r=r, s=s), family,
                    L._vf_layout(chart0, k, include_time),
                    [L._lift_scalar_expr(Z.apply(f), kind, k, r, s)
                     for f in family.items]))
        out.append((L.of_lift_solve(w, kind, k, r=r, s=s), pairing,
                    list(chart0.extend(k).coordinates()),
                    [L._lift_scalar_expr(w.pair(X), kind, k, r, s)
                     for X in pairing.items]))
    return out


@pytest.mark.parametrize("has_time", [False, True], ids=["m1k2", "m1k2t"])
def test_certified_lifts_are_sympys_unique_solution(has_time):
    """At m = 1, k = 2, with and without t: each certified vector and
    one-form lift, of kinds v, c and every cv split, is the one solution
    sympy finds for every row of the system its solver certifies it on,
    solved or only checked, with the same right-hand sides."""
    L.clear_lift_cache()
    for lifted, system, coords, rhs in _lift_cases(ChartSpec(1, 0, has_time),
                                                   2):
        xs, solutions = _linsolve(system.rows, system.width, rhs)
        solution = _unique(xs, solutions)
        assert solution is not None
        assert all(sympy.cancel(to_sympy(lifted.component(c)) - theirs) == 0
                   for c, theirs in zip(coords, solution))
    L.clear_lift_cache()
