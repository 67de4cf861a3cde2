"""One-form lifts through the defining pairings, plus the closed-form
constructors and the horizontal coframe route."""

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.fields import ConnectionCoeffs, OneForm, ScalarField, VectorField
from liftcalc.lifts import (
    LiftError,
    fn_complete,
    of_complete_closed,
    of_cv_closed,
    of_defining_residuals,
    of_horizontal,
    of_lift_solve,
    of_vertical_closed,
    vf_lift_solve,
)
from liftcalc.symkernel import TIME, Expr, anti, holo, parse

C0 = ChartSpec(1, 0, False)
CT = ChartSpec(1, 0, True)
Z01 = holo(0, 1)
Z11 = holo(1, 1)
Z21 = holo(2, 1)
ZB01 = anti(0, 1)


# -- solver route ----------------------------------------------------------------

def test_vertical_solve_keeps_level_zero():
    dz = OneForm.differential_of(C0, Z01)
    assert of_lift_solve(dz, "v", 2) == OneForm.differential_of(C0.extend(2), Z01)


def test_vertical_solve_above_the_degree_one_fields():
    """At m = 1, k = 6 the degree <= 1 test fields are fewer than the
    unknowns, so the pairing solves its square ladder; the lift is the
    closed-form vertical lift."""
    w = OneForm(CT, {Z01: parse("z0_1*zb0_1 + 2"), ZB01: parse("z0_1^2"),
                     TIME: parse("t*z0_1")})
    assert of_lift_solve(w, "v", 6) == of_vertical_closed(w, 6)


def test_complete_solve_moves_basis_to_top():
    dz = OneForm.differential_of(C0, Z01)
    assert of_lift_solve(dz, "c", 2) == OneForm.differential_of(C0.extend(2), Z21)


def test_complete_solve_weights_differ_from_closed_at_k2():
    # w = z0_1 dz0_1: the defining equations double the middle level,
    # the closed form does not.
    w = OneForm(C0, {Z01: Expr.atom(Z01)})
    solved = of_lift_solve(w, "c", 2)
    closed = of_complete_closed(w, 2)
    assert solved.component(Z01) == Expr.atom(Z21)
    assert solved.component(Z11) == Expr.atom(Z11).scale(2)
    assert solved.component(Z21) == Expr.atom(Z01)
    assert closed.component(Z11) == Expr.atom(Z11)
    assert solved - closed == OneForm(C0.extend(2), {Z11: Expr.atom(Z11)})


def test_solver_and_closed_agree_at_k1():
    w = OneForm(C0, {Z01: parse("zb0_1^2"), ZB01: parse("i")})
    assert of_lift_solve(w, "c", 1) == of_complete_closed(w, 1)
    assert of_lift_solve(w, "v", 1) == of_vertical_closed(w, 1)


def test_cv_solve_edges():
    w = OneForm(C0, {Z01: parse("z0_1*zb0_1")})
    assert of_lift_solve(w, "cv", 2, r=2, s=0) == of_lift_solve(w, "c", 2)
    assert of_lift_solve(w, "cv", 2, r=0, s=2) == of_lift_solve(w, "v", 2)


def test_cv_of_basis_both_routes():
    # the two routes put different weights on the (1,1) split of dz0_1:
    # the defining pairings give a full dz1_1, the closed form halves it
    dz = OneForm.differential_of(C0, Z01)
    solved = of_lift_solve(dz, "cv", 2, r=1, s=1)
    assert solved == OneForm.differential_of(C0.extend(2), Z11)
    closed = of_cv_closed(dz, 1, 1)
    assert closed == solved.scaled(parse("1/2"))


@pytest.mark.parametrize("kind,split", [("c", {}), ("cv", {"r": 1, "s": 1})])
def test_complete_solves_refuse_a_dt_component(kind, split):
    w = OneForm(CT, {TIME: parse("2*i"), Z01: parse("z0_1")})
    with pytest.raises(LiftError) as err:
        of_lift_solve(w, kind, 2, **split)
    assert str(err.value) == \
        f"one-form {kind}-lift requires a zero time component, got 2*i"


def test_vertical_lift_carries_dt():
    w = OneForm(CT, {TIME: Expr.one(), Z01: Expr.atom(Z01)})
    lifted = of_lift_solve(w, "v", 1)
    assert lifted.component(TIME) == Expr.one()
    assert lifted.component(Z01) == Expr.atom(Z01)


def test_defining_residuals_vanish_on_fresh_vectors():
    w = OneForm(C0, {Z01: parse("z0_1 + i*zb0_1")})
    lifted = of_lift_solve(w, "c", 2)
    # probe vectors the solver never saw
    probes = [VectorField(C0, {Z01: parse("z0_1^2*zb0_1")}),
              VectorField(C0, {Z01: parse("i"), ZB01: parse("zb0_1^2")})]
    residuals = [lifted.pair(vf_lift_solve(X, "c", 2))
                 - fn_complete(ScalarField(C0, w.pair(X)), 2).value
                 for X in probes]
    assert all(e.is_zero() for e in residuals)
    assert all(e.is_zero() for e in of_defining_residuals(w, lifted, "c", 2))


# -- pairing duality ----------------------------------------------------------------

@pytest.mark.parametrize("wk,zk", [("v", "c"), ("c", "c")])
def test_lifted_pairings_reduce(wk, zk):
    """<w^{lift}, Z^{c^k}> collapses to a lift of <w, Z> (vertical drops
    all the way down, complete stays complete)."""
    w = OneForm(C0, {Z01: parse("zb0_1"), ZB01: parse("z0_1^2")})
    Z = VectorField(C0, {Z01: parse("i*z0_1"), ZB01: parse("2")})
    k = 2
    lifted_pair = of_lift_solve(w, wk, k).pair(vf_lift_solve(Z, "c", k))
    base_pair = w.pair(Z)
    if wk == "v":
        assert lifted_pair == base_pair  # vertical: the value rides along
    else:
        from liftcalc.lifts import _complete_expr
        assert lifted_pair == _complete_expr(base_pair, k)


# -- horizontal -----------------------------------------------------------------------

def _conn(k):
    chart = CT.extend(k)
    return ConnectionCoeffs(chart, {(r, 1, 1): parse("z0_1")
                                    for r in range(k)})


def test_horizontal_uses_top_transition_level():
    w = OneForm(CT, {Z01: Expr.one()})
    lifted = of_horizontal(w, _conn(2))
    # eta at the top level: dz2_1 + Gamma dz1_1
    assert lifted.component(Z21) == Expr.one()
    assert lifted.component(Z11) == parse("z0_1")
    assert lifted.component(Z01).is_zero()


def test_horizontal_rejects_dt_component():
    w = OneForm(CT, {TIME: Expr.one()})
    with pytest.raises(LiftError):
        of_horizontal(w, ConnectionCoeffs.zero(CT.extend(1)))


@pytest.mark.parametrize("chart", [ChartSpec(2, 1, True), C0.extend(1),
                                   CT], ids=["other-m", "no-time", "k0"])
def test_horizontal_requires_a_connection_on_an_extension(chart):
    w = OneForm(CT, {Z01: Expr.one()})
    with pytest.raises(LiftError) as err:
        of_horizontal(w, ConnectionCoeffs.zero(chart))
    assert str(err.value) == "connection chart must extend the input chart"


def test_horizontal_requires_time_chart():
    w = OneForm(C0, {Z01: Expr.one()})
    with pytest.raises(LiftError):
        of_horizontal(w, ConnectionCoeffs.zero(C0.extend(1)))


def test_horizontal_zero_connection_is_complete_like():
    w = OneForm(CT, {Z01: parse("zb0_1")})
    lifted = of_horizontal(w, ConnectionCoeffs.zero(CT.extend(1)))
    assert lifted == OneForm(CT.extend(1), {Z11: parse("zb0_1")})
