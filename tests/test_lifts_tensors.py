"""Determined lifts of (1,1)- and (0,2)-tensor fields.

Both solve against complete lifts of a base vector family; the certificate
records the defining equations and the holdout.  The covector half of the
(1,1) law holds for complete lifts and fails for vertical ones (it is the
tensors suite's clauses T4 and T2).
"""

import re

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.fields import (
    Bilinear,
    EndoField,
    OneForm,
    ScalarField,
    VectorField,
)
from liftcalc.lifts import (
    LiftError,
    fn_complete,
    of_lift_solve,
    t02_defining_residuals,
    t02_lift_solve,
    t02_lift_solve_certified,
    t11_defining_residuals,
    t11_lift_solve,
    t11_lift_solve_certified,
    vf_lift_solve,
)
from liftcalc.symkernel import TIME, Expr, anti, holo, parse

C0 = ChartSpec(1, 0, False)
C2 = ChartSpec(2, 0, False)
Z01 = holo(0, 1)
Z11 = holo(1, 1)
ZB01 = anti(0, 1)
ZB11 = anti(1, 1)


def diag_J(chart=C0):
    entries = {}
    for c in chart.holo_coords(0):
        entries[(c, c)] = parse("i")
    for c in chart.anti_coords(0):
        entries[(c, c)] = parse("-i")
    return EndoField(chart, entries)


def flat_metric(chart=C0):
    entries = {}
    for i in range(1, chart.m + 1):
        h = holo(0, i)
        a = anti(0, i)
        entries[(h, a)] = Expr.one()
        entries[(a, h)] = Expr.one()
    return Bilinear(chart, entries)


# -- (1,1) ---------------------------------------------------------------------

def test_t11_complete_lift_of_diagonal_structure():
    lifted = t11_lift_solve(diag_J(), "c", 1)
    assert lifted.entry(Z01, Z01) == parse("i")
    assert lifted.entry(Z11, Z11) == parse("i")
    assert lifted.entry(ZB01, ZB01) == parse("-i")
    assert lifted.entry(ZB11, ZB11) == parse("-i")


def test_t11_vertical_lift_pushes_to_top():
    lifted = t11_lift_solve(diag_J(), "v", 1)
    # vertical: output lands one level up, fed by the level-0 input slot...
    # frozen from the engine's own defining equations:
    assert lifted.apply_vector(VectorField.basis(C0.extend(1), Z01)) \
        == VectorField(C0.extend(1), {Z11: parse("i")})


@pytest.mark.parametrize("kind,holds", [("c", True), ("v", False)])
def test_t11_covector_pairing_holds_for_complete_only(kind, holds):
    # The lifted J composed with the lifted dz is the lift of J composed
    # with dz for the complete lift; the vertical pairing annihilates every
    # level-0 covector, so there the law fails.
    J, dz = diag_J(), OneForm(C0, {Z01: Expr.one()})
    lifted = t11_lift_solve(J, kind, 1)
    assert (lifted.apply_form(of_lift_solve(dz, kind, 1))
            == of_lift_solve(J.apply_form(dz), kind, 1)) is holds


def test_t11_residuals_vanish_on_fresh_vectors():
    phi = EndoField(C0, {(Z01, ZB01): parse("z0_1"), (ZB01, Z01): parse("i")})
    for kind in ("v", "c"):
        lifted = t11_lift_solve(phi, kind, 2)
        probes = [VectorField(C0, {Z01: parse("z0_1*zb0_1^2")}),
                  VectorField(C0, {ZB01: parse("z0_1^3 + 1")})]
        assert all((lifted.apply_vector(vf_lift_solve(X, "c", 2))
                    - vf_lift_solve(phi.apply_vector(X), kind, 2)).is_zero()
                   for X in probes)
        assert all(e.is_zero()
                   for e in t11_defining_residuals(phi, lifted, kind, 2))


def test_t11_complete_lift_of_a_time_coupled_tensor():
    # phi(d/dt) = z0_1 d/dz0_1.  Its complete lift meets its defining
    # equations.  The covector law is the tensors suite's, and here it has
    # no right-hand side: phi composed with dz0_1 has a dt part, which no
    # complete one-form lift takes.
    chart = ChartSpec(1, 0, True)
    phi = EndoField(chart, {(Z01, TIME): parse("z0_1")})
    lifted, cert = t11_lift_solve_certified(phi, "c", 1)
    assert (cert.op, cert.kind, cert.residuals_zero) == ("endo", "c", True)
    assert all(e.is_zero() for e in t11_defining_residuals(phi, lifted, "c", 1))
    with pytest.raises(LiftError, match="zero time component"):
        of_lift_solve(phi.apply_form(OneForm(chart, {Z01: Expr.one()})), "c", 1)


def test_t11_complete_lift_refuses_a_non_constant_time_component():
    # phi(d/dz0_1) = z0_1 d/dt + d/dz0_1, whose complete lift the vector
    # solver refuses; the (1,1) lift passes that text on whole.
    chart = ChartSpec(1, 0, True)
    phi = EndoField(chart, {(TIME, Z01): parse("z0_1"), (Z01, Z01): 1})
    with pytest.raises(LiftError, match="^" + re.escape(
            "complete and complete-vertical lifts require a constant time "
            "component, got z0_1") + "$"):
        t11_lift_solve(phi, "c", 2)


def test_t11_rejects_unsupported_kinds():
    with pytest.raises(LiftError):
        t11_lift_solve(diag_J(), "cv", 2)
    with pytest.raises(LiftError):
        t11_lift_solve(diag_J(), "h", 1)


def test_t11_square_of_lift_is_lift_of_square():
    J = diag_J(C2)
    for kind in ("v", "c"):
        lifted = t11_lift_solve(J, kind, 1)
        # J^2 = -Id on the base; the complete lift of -Id is -Id, and the
        # vertical lift composed with itself lands on -Id at the top slots
        square = lifted.compose(lifted)
        if kind == "c":
            assert square == EndoField.identity(C2.extend(1)).scaled(-1)


# -- (0,2) ---------------------------------------------------------------------

def test_t02_complete_lift_of_flat_metric():
    lifted = t02_lift_solve(flat_metric(), "c", 1)
    # polarization spreads the pairing across opposite levels
    assert lifted.entry(Z01, ZB11) == Expr.one()
    assert lifted.entry(Z11, ZB01) == Expr.one()
    assert lifted.entry(ZB01, Z11) == Expr.one()
    assert lifted.entry(ZB11, Z01) == Expr.one()
    assert lifted.entry(Z01, ZB01).is_zero()


def test_t02_vertical_lift_of_flat_metric():
    # the vertical lift keeps the level-0 slots and the same values:
    # it annihilates every purely top-level pair
    lifted = t02_lift_solve(flat_metric(), "v", 1)
    assert lifted.entry(Z01, ZB01) == Expr.one()
    assert lifted.entry(Z11, ZB11).is_zero()
    assert lifted.evaluate(VectorField.basis(C0.extend(1), Z11),
                           VectorField.basis(C0.extend(1), ZB11)).is_zero()


def test_t02_lift_preserves_symmetry():
    for chart, k in ((C2, 1), (C0, 3)):
        g = Bilinear(chart, {
            (holo(0, 1), anti(0, chart.m)): parse("z0_1"),
            (anti(0, chart.m), holo(0, 1)): parse("z0_1"),
        })
        assert g.is_symmetric()
        for kind in ("v", "c"):
            assert t02_lift_solve(g, kind, k).is_symmetric()


def test_t02_certificate():
    for k in (2, 3):
        _, cert = t02_lift_solve_certified(flat_metric(), "c", k)
        assert cert.op == "bilinear"
        assert cert.residuals_zero


def test_t02_residuals_vanish_on_fresh_vectors():
    g = flat_metric()
    lifted = t02_lift_solve(g, "c", 2)
    probes = [VectorField(C0, {Z01: parse("z0_1^2")}),
              VectorField(C0, {ZB01: parse("i*zb0_1")})]
    residuals = [lifted.evaluate(vf_lift_solve(X, "c", 2),
                                 vf_lift_solve(Y, "c", 2))
                 - fn_complete(ScalarField(C0, g.evaluate(X, Y)), 2).value
                 for X in probes for Y in probes]
    assert all(e.is_zero() for e in residuals)
    assert all(e.is_zero() for e in t02_defining_residuals(g, lifted, "c", 2))
