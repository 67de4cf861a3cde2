"""The certified determined lifts in closed form, and the paper's weights.

D is the level-shift derivation (``D x_l = x_{l+1}``, ``t -> t``), and
``_complete_expr(e, n)`` computes ``D^n e``.  Slot by slot, the solver's
lifts are Leibniz-type sums of powers of D applied to the input's
components, with binomial and multinomial weights; time components stay as
the solver keeps them (a vector's constant one, a one-form's zero, and no
tensor entry on t).  The oracles below are those formulas, written out per
slot and independent of the solver's systems.

The package's ``*_closed`` constructors (the paper's route, which
``compare`` adjudicates) are the same lifts with each level-l slot
multiplied by C(k, l) on vectors and divided by C(k, l) on one-forms: the
weights of a rescaled level coordinate ``C(k, l)*x_l``, applied to the
slots while the components stay written in ``x_l``.
"""

from fractions import Fraction
from math import factorial

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.fields import Bilinear, EndoField, OneForm, VectorField
from liftcalc.lifts import (
    _complete_expr,
    of_complete_closed,
    of_cv_closed,
    of_lift_solve,
    t02_lift_solve,
    t11_lift_solve,
    vf_complete_closed,
    vf_cv_closed,
    vf_lift_solve,
)
from liftcalc.symkernel import TIME, CoordId, Expr, Kind, binomial
from liftcalc.verify import FieldGen

# (m, k, time line, seed): k >= 5 once, t-dependent probes on two charts.
CASES = [(1, 2, False, 0), (1, 2, False, 1), (1, 3, True, 2), (2, 2, True, 3),
         (1, 6, False, 4)]
IDS = [f"m{m}k{k}{'t' if t else ''}-seed{seed}" for m, k, t, seed in CASES]


def D(e: Expr, n: int) -> Expr:
    return _complete_expr(e, n)


def _base(c: CoordId) -> CoordId:
    return CoordId(c.kind, 0, c.index)


def _slots(chart):
    """The coordinates of `chart` other than t."""
    return [c for c in chart.coordinates() if c.kind != Kind.TIME]


def _inputs(m, k, has_time, seed):
    chart0 = ChartSpec(m, 0, has_time)
    gen = FieldGen(seed)
    return (chart0, gen.vector(chart0), gen.oneform(chart0, time_component=0),
            gen.endo(chart0), gen.bilinear(chart0))


def _rank1(cls, source, target, slot) -> "VectorField | OneForm":
    """The field on `target` whose slot c carries ``slot(c.level, source
    component at c's base coordinate)``, and the source's time component."""
    comps = {c: slot(c.level, source.component(_base(c)))
             for c in _slots(target)}
    if target.has_time:
        comps[TIME] = source.component(TIME)
    return cls(target, comps)


def _splits(k):
    return [(r, k - r) for r in range(k + 1)]


@pytest.mark.parametrize("m,k,has_time,seed", CASES, ids=IDS)
def test_vector_lifts_match_their_closed_forms(m, k, has_time, seed):
    chart0, Z, *_ = _inputs(m, k, has_time, seed)
    target = chart0.extend(k)
    assert vf_lift_solve(Z, "c", k) == _rank1(
        VectorField, Z, target, lambda l, z: D(z, l))
    for r, s in _splits(k):
        expected = _rank1(VectorField, Z, target, lambda l, z:
                          Expr.zero() if l < s else D(z, l - s)
                          * Fraction(binomial(r, l - s), binomial(k, l)))
        assert vf_lift_solve(Z, "cv", k, r=r, s=s) == expected, (r, s)


@pytest.mark.parametrize("m,k,has_time,seed", CASES, ids=IDS)
def test_oneform_lifts_match_their_closed_forms(m, k, has_time, seed):
    chart0, _, w, *_ = _inputs(m, k, has_time, seed)
    target = chart0.extend(k)
    assert of_lift_solve(w, "c", k) == _rank1(
        OneForm, w, target, lambda l, x: D(x, k - l) * binomial(k, l))
    for r, s in _splits(k):
        expected = _rank1(OneForm, w, target, lambda l, x:
                          Expr.zero() if l > r
                          else D(x, r - l) * binomial(r, l))
        assert of_lift_solve(w, "cv", k, r=r, s=s) == expected, (r, s)


@pytest.mark.parametrize("m,k,has_time,seed", CASES, ids=IDS)
def test_endo_complete_lift_matches_its_closed_form(m, k, has_time, seed):
    chart0, _, _, phi, _ = _inputs(m, k, has_time, seed)
    target = chart0.extend(k)
    expected = EndoField(target, {
        (a, b): D(phi.entry(_base(a), _base(b)), a.level - b.level)
        * binomial(a.level, b.level)
        for a in _slots(target) for b in _slots(target)
        if b.level <= a.level})
    assert t11_lift_solve(phi, "c", k) == expected


@pytest.mark.parametrize("m,k,has_time,seed", CASES, ids=IDS)
def test_bilinear_complete_lift_matches_its_closed_form(m, k, has_time, seed):
    chart0, *_, G = _inputs(m, k, has_time, seed)
    target = chart0.extend(k)

    def weight(r, s):
        return factorial(k) // (factorial(r) * factorial(s)
                                * factorial(k - r - s))

    expected = Bilinear(target, {
        (a, b): D(G.entry(_base(a), _base(b)), k - a.level - b.level)
        * weight(a.level, b.level)
        for a in _slots(target) for b in _slots(target)
        if a.level + b.level <= k})
    assert t02_lift_solve(G, "c", k) == expected


def _rescaled(lifted, k: int, vector: bool):
    """`lifted` with each level-l slot multiplied (vectors) or divided
    (one-forms) by C(k, l); the time component as it is."""
    power = 1 if vector else -1
    comps = {c: v if c.kind == Kind.TIME
             else v * Fraction(binomial(k, c.level)) ** power
             for c, v in lifted.components.items()}
    return type(lifted)(lifted.chart, comps)


@pytest.mark.parametrize("m,k,has_time,seed", CASES, ids=IDS)
def test_closed_constructors_are_the_solver_lifts_rescaled(m, k, has_time,
                                                           seed):
    """The rescaling that accounts for every MISMATCH of compare's P322,
    P323, P332 and P333: the complete lift and every complete-vertical
    split, on vectors and on one-forms."""
    chart0, Z, w, *_ = _inputs(m, k, has_time, seed)
    assert vf_complete_closed(Z, k) == _rescaled(vf_lift_solve(Z, "c", k), k,
                                                 True)
    assert of_complete_closed(w, k) == _rescaled(of_lift_solve(w, "c", k), k,
                                                 False)
    for r, s in _splits(k):
        assert vf_cv_closed(Z, r, s) == _rescaled(
            vf_lift_solve(Z, "cv", k, r=r, s=s), k, True), (r, s)
        assert of_cv_closed(w, r, s) == _rescaled(
            of_lift_solve(w, "cv", k, r=r, s=s), k, False), (r, s)
    # The weights are not all 1 here, so the two routes differ.
    assert vf_complete_closed(Z, k) != vf_lift_solve(Z, "c", k)
