"""Vector-field lifts: the defining-equation solver, the closed-form
constructors, and where the two routes part ways (k >= 2)."""

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.fields import (
    ConnectionCoeffs,
    FieldError,
    OneForm,
    ScalarField,
    VectorField,
    format_vector,
)
from liftcalc.lifts import (
    LiftError,
    _lift,
    basis_lift_rows,
    fn_complete,
    of_defining_residuals,
    of_lift_solve,
    vf_complete_closed,
    vf_cv_closed,
    vf_defining_residuals,
    vf_horizontal,
    vf_lift_solve,
    vf_lift_solve_certified,
    vf_vertical_closed,
)
from liftcalc.symkernel import TIME, Expr, GRat, anti, holo, parse

from fractions import Fraction

C0 = ChartSpec(1, 0, False)
CT = ChartSpec(1, 0, True)
Z01 = holo(0, 1)
Z11 = holo(1, 1)
Z21 = holo(2, 1)
ZB01 = anti(0, 1)


def euler():
    """z d/dz, the simplest field with a nontrivial complete lift."""
    return VectorField(C0, {Z01: Expr.atom(Z01)})


# -- solver route: frozen components -------------------------------------------

def test_vertical_solve_moves_basis_to_top_level():
    e = VectorField.basis(C0, Z01)
    lifted = vf_lift_solve(e, "v", 2)
    assert lifted == VectorField.basis(C0.extend(2), Z21)


def test_complete_solve_of_euler_has_unit_weights():
    # all three levels carry coefficient 1 through the defining equations
    lifted = vf_lift_solve(euler(), "c", 2)
    assert lifted.component(Z01) == Expr.atom(Z01)
    assert lifted.component(Z11) == Expr.atom(Z11)
    assert lifted.component(Z21) == Expr.atom(Z21)


def test_complete_closed_of_euler_has_binomial_weights():
    lifted = vf_complete_closed(euler(), 2)
    assert lifted.component(Z01) == Expr.atom(Z01)
    assert lifted.component(Z11) == Expr.atom(Z11).scale(2)
    assert lifted.component(Z21) == Expr.atom(Z21)


def test_solver_and_closed_agree_at_k1():
    Z = VectorField(C0, {Z01: parse("z0_1^2"), ZB01: parse("i*zb0_1")})
    assert vf_lift_solve(Z, "c", 1) == vf_complete_closed(Z, 1)
    assert vf_lift_solve(Z, "v", 1) == vf_vertical_closed(Z, 1)


def test_cv_solve_of_basis_is_half_mid_level():
    # the mixed (1,1) lift of d/dz0_1 solves to (1/2) d/dz1_1
    e = VectorField.basis(C0, Z01)
    lifted = vf_lift_solve(e, "cv", 2, r=1, s=1)
    assert lifted == VectorField(
        C0.extend(2), {Z11: Expr.one().scale(GRat(Fraction(1, 2)))})


def test_cv_closed_of_basis_is_unit_mid_level():
    e = VectorField.basis(C0, Z01)
    assert vf_cv_closed(e, 1, 1) == VectorField.basis(C0.extend(2), Z11)


def test_cv_edges_match_pure_lifts():
    Z = VectorField(C0, {Z01: parse("z0_1*zb0_1")})
    assert vf_lift_solve(Z, "cv", 2, r=2, s=0) == vf_lift_solve(Z, "c", 2)
    assert vf_lift_solve(Z, "cv", 2, r=0, s=2) == vf_lift_solve(Z, "v", 2)


def test_vertical_of_time_field_keeps_time():
    Z = VectorField(CT, {TIME: Expr.one(), Z01: Expr.atom(Z01)})
    lifted = vf_lift_solve(Z, "v", 1)
    assert lifted.component(TIME) == Expr.one()
    assert lifted.component(Z11) == Expr.atom(Z01)


def test_complete_requires_constant_time_component():
    Z = VectorField(CT, {TIME: Expr.atom(Z01)})
    with pytest.raises(LiftError):
        vf_lift_solve(Z, "c", 1)


def test_kind_validation():
    with pytest.raises(LiftError):
        vf_lift_solve(euler(), "x", 1)
    with pytest.raises(LiftError):
        vf_lift_solve(euler(), "cv", 2, r=1, s=2)  # r+s != k
    with pytest.raises(LiftError):
        vf_lift_solve(euler(), "c", 0)


# -- certificates and residuals ---------------------------------------------------

def test_certificate_reports_holdout():
    lifted, cert = vf_lift_solve_certified(euler(), "c", 2)
    assert cert.op == "vector"
    assert cert.kind == "c"
    assert cert.residuals_zero
    assert cert.holdout_size > 0
    assert cert.family_size > 0


@pytest.mark.parametrize("kind,r,s", [
    ("v", None, None), ("c", None, None), ("cv", 1, 1),
])
def test_defining_residuals_vanish_on_fresh_functions(kind, r, s):
    Z = VectorField(C0, {Z01: parse("z0_1^2 + i"), ZB01: parse("zb0_1")})
    lifted = vf_lift_solve(Z, kind, 2, r=r, s=s)
    # a probe basket the solver never saw: mixed cubics
    probes = [parse("z0_1^2*zb0_1"), parse("z0_1*zb0_1^2"),
              parse("z0_1^3 + zb0_1")]
    residuals = [lifted.apply(fn_complete(ScalarField(C0, f), 2).value)
                 - _lift(ScalarField(C0, Z.apply(f)), kind, 2, r=r, s=s).value
                 for f in probes]
    assert all(e.is_zero() for e in residuals)
    assert all(e.is_zero()
               for e in vf_defining_residuals(Z, lifted, kind, 2, r=r, s=s))


def test_defining_residuals_refuse_a_lift_on_another_chart():
    """A k = 1 lift checked at k = 2 is refused with the text the one-form
    residuals give for the same mistake."""
    Z = euler()
    with pytest.raises(FieldError) as info:
        vf_defining_residuals(Z, vf_lift_solve(Z, "c", 1), "c", 2)
    assert str(info.value) == (
        f"chart mismatch: {C0.extend(1)} vs {C0.extend(2)}")
    w = OneForm(C0, {Z01: Expr.atom(Z01)})
    with pytest.raises(FieldError) as of_info:
        of_defining_residuals(w, of_lift_solve(w, "c", 1), "c", 2)
    assert str(of_info.value) == str(info.value)


def test_closed_complete_fails_defining_equations_at_k2():
    # the explicit discrepancy: closed-form weights break the k=2 equations
    bad = vf_complete_closed(euler(), 2)
    residuals = vf_defining_residuals(euler(), bad, "c", 2)
    assert any(not e.is_zero() for e in residuals)


# -- horizontal ------------------------------------------------------------------

def _conn(k, gamma_text="z0_1"):
    chart = CT.extend(k)
    return ConnectionCoeffs(chart, {(r, 1, 1): parse(gamma_text)
                                    for r in range(k)})


def test_horizontal_zero_connection_is_identity_on_components():
    Z = VectorField(CT, {TIME: Expr.one(), Z01: parse("z0_1^2")})
    lifted = vf_horizontal(Z, ConnectionCoeffs.zero(CT.extend(2)))
    assert lifted.component(TIME) == Expr.one()
    assert lifted.component(Z01) == parse("z0_1^2")
    assert lifted.component(Z11).is_zero()


def test_horizontal_with_connection_frozen():
    Z = VectorField(CT, {Z01: Expr.one()})
    lifted = vf_horizontal(Z, _conn(1))
    # D = d/dz0_1 - Gamma d/dz1_1 with Gamma = z0_1
    assert lifted.component(Z01) == Expr.one()
    assert lifted.component(Z11) == parse("-z0_1")


def test_horizontal_requires_time():
    with pytest.raises(LiftError):
        vf_horizontal(euler(), ConnectionCoeffs.zero(C0.extend(1)))


@pytest.mark.parametrize("chart", [ChartSpec(2, 1, True), C0.extend(1),
                                   CT], ids=["other-m", "no-time", "k0"])
def test_horizontal_requires_a_connection_on_an_extension(chart):
    Z = VectorField(CT, {Z01: Expr.one()})
    with pytest.raises(LiftError) as err:
        vf_horizontal(Z, ConnectionCoeffs.zero(chart))
    assert str(err.value) == "connection chart must extend the input chart"


def test_horizontal_time_basis_is_fixed():
    dt = VectorField.basis(CT, TIME)
    for k in (1, 2, 3):
        lifted = vf_horizontal(dt, ConnectionCoeffs.zero(CT.extend(k)))
        assert lifted == VectorField.basis(CT.extend(k), TIME)


# -- basis table -------------------------------------------------------------------

def test_basis_rows_cover_pure_lifts():
    rows = dict(basis_lift_rows(1, 2))
    assert rows["(d/dz0_1)^{v^2}"] == "d/dz2_1"
    assert rows["(d/dz0_1)^{c^2}"] == "d/dz0_1"
    assert rows["(dz0_1)^{v^2}"] == "dz0_1"
    assert rows["(dz0_1)^{c^2}"] == "dz2_1"
    assert rows["(d/dt)^{H^2}"] == "d/dt"
    assert rows["(dt)^{c^2}"] == "dt"


def test_basis_rows_without_time_have_no_horizontal_entries():
    rows = basis_lift_rows(1, 1, has_time=False)
    assert all("H" not in label for label, _ in rows)
    assert all("t" not in label for label, _ in rows)
