"""Complex-structure operators on extension charts, hermitian metrics,
and the fundamental two-form."""

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.fields import AltForm, Bilinear, EndoField, OneForm, VectorField
from liftcalc.structures import (
    HermitianPackage,
    StructureError,
    build_Jk,
    build_Jk_star,
    fundamental_bilinear,
    hermitian_check,
    kaehler_closed,
    kaehler_form,
    lift_J0,
    star_apply,
)
from liftcalc.lifts import t02_lift_solve
from liftcalc.symkernel import Expr, anti, holo, parse


@pytest.mark.parametrize("m,k", [(1, 1), (1, 3), (2, 2)])
def test_Jk_squares_to_minus_identity(m, k):
    chart = ChartSpec(m, k, False)
    J = build_Jk(chart)
    assert J.square() == EndoField.identity(chart).scaled(-1)
    Js = build_Jk_star(chart)
    assert Js.square() == EndoField.identity(chart).scaled(-1)


def test_Jk_rejects_time_charts():
    with pytest.raises(StructureError):
        build_Jk(ChartSpec(1, 1, True))
    with pytest.raises(StructureError):
        build_Jk_star(ChartSpec(1, 1, True))


def test_Jk_eigenvalues():
    chart = ChartSpec(1, 1, False)
    J = build_Jk(chart)
    for c in chart.holo_coords():
        assert J.apply_vector(VectorField.basis(chart, c)) \
            == VectorField.basis(chart, c).scaled(parse("i"))
    for c in chart.anti_coords():
        assert J.apply_vector(VectorField.basis(chart, c)) \
            == VectorField.basis(chart, c).scaled(parse("-i"))


def test_star_duality():
    # <J* w, X> == <w, J X> for every basis pair
    chart = ChartSpec(1, 1, False)
    J = build_Jk(chart)
    Js = build_Jk_star(chart)
    w = OneForm(chart, {holo(0, 1): parse("zb0_1"), anti(1, 1): parse("i")})
    X = VectorField(chart, {holo(0, 1): parse("z1_1"),
                            anti(1, 1): parse("z0_1^2")})
    assert star_apply(Js, w).pair(X) == w.pair(J.apply_vector(X))


def test_lifted_J0_squares_to_minus_identity():
    for kind in ("c",):
        for k in (1, 2):
            J = lift_J0(1, kind, k)
            assert J.square() == EndoField.identity(J.chart).scaled(-1)


def test_lifted_J0_complete_coincides_with_direct_diagonal():
    for k in (1, 2):
        assert lift_J0(1, "c", k) == build_Jk(ChartSpec(1, k, False))


def test_vertical_lift_of_J0_does_not_square():
    # the vertical lift pushes outputs up a level, so squaring annihilates
    J = lift_J0(1, "v", 1)
    assert J.square() != EndoField.identity(J.chart).scaled(-1)


# -- hermitian packages ----------------------------------------------------------

def test_flat_package_is_hermitian_and_closed():
    pkg = HermitianPackage.flat(2)
    assert hermitian_check(pkg.metric, pkg.J)
    form = kaehler_form(pkg.metric, pkg.J)
    assert kaehler_closed(form)


def test_flat_fundamental_form_m1():
    # g = dz (x) dzb + dzb (x) dz, J diagonal: phi(X,Y) = g(X, JY) takes
    # value -i on (dz, dzb) and +i on (dzb, dz)
    pkg = HermitianPackage.flat(1)
    assert pkg.phi.entry(holo(0, 1), anti(0, 1)) == parse("-i")
    assert pkg.phi.entry(anti(0, 1), holo(0, 1)) == parse("i")
    assert pkg.phi.is_antisymmetric()


def test_fundamental_bilinear_matches_evaluate():
    pkg = HermitianPackage.flat(1)
    X = VectorField(pkg.chart, {holo(0, 1): parse("z0_1")})
    Y = VectorField(pkg.chart, {anti(0, 1): parse("i*zb0_1")})
    phi = fundamental_bilinear(pkg.metric, pkg.J)
    assert phi.evaluate(X, Y) == \
        pkg.metric.evaluate(X, pkg.J.apply_vector(Y))


def test_kaehler_form_rejects_non_antisymmetric():
    chart = ChartSpec(1, 0, False)
    g = Bilinear(chart, {(holo(0, 1), anti(0, 1)): Expr.one(),
                         (anti(0, 1), holo(0, 1)): Expr.one()})
    # pairing g with the identity is symmetric, not antisymmetric
    with pytest.raises(StructureError):
        kaehler_form(g, EndoField.identity(chart))


def test_lifted_flat_metric_stays_hermitian():
    pkg = HermitianPackage.flat(1)
    for kind in ("v", "c"):
        for k in (1, 2):
            G = t02_lift_solve(pkg.metric, kind, k)
            J = lift_J0(1, "c", k)
            assert hermitian_check(G, J)


def test_lifted_fundamental_form_closed():
    pkg = HermitianPackage.flat(1)
    for kind in ("v", "c"):
        phi = t02_lift_solve(pkg.phi, kind, 2)
        assert phi.is_antisymmetric()
        assert kaehler_closed(AltForm.from_bilinear(phi))


def test_curved_potential_metric_is_hermitian_but_not_flat():
    # h = d2K / dz dzb for K = z^2 zb^2 gives h = 4 z zb (degenerate at 0
    # but a perfectly good symbolic hermitian entry)
    chart = ChartSpec(1, 0, False)
    z, zb = holo(0, 1), anti(0, 1)
    K = parse("z0_1^2*zb0_1^2")
    h = K.diff(z).diff(zb)
    g = Bilinear(chart, {(z, zb): h, (zb, z): h})
    J = build_Jk(chart)
    assert hermitian_check(g, J)
    assert kaehler_closed(kaehler_form(g, J))
