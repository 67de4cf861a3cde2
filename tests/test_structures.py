"""Complex-structure operators on extension charts, hermitian metrics,
and the fundamental two-form."""

import collections
import itertools
import random
from types import SimpleNamespace

import pytest

from liftcalc import verify
from liftcalc.charts import ChartSpec
from liftcalc.fields import Bilinear, EndoField, FieldError, OneForm, VectorField
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
from liftcalc.symkernel import Expr, GRat, anti, holo, parse


@pytest.mark.parametrize("m,k", [(1, 1), (1, 3), (2, 2)])
def test_Jk_squares_to_minus_identity(m, k):
    chart = ChartSpec(m, k, False)
    J = build_Jk(chart)
    assert J.compose(J) == EndoField.identity(chart).scaled(-1)
    Js = build_Jk_star(chart)
    assert Js.compose(Js) == EndoField.identity(chart).scaled(-1)


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
            assert J.compose(J) == EndoField.identity(J.chart).scaled(-1)


def test_lifted_J0_complete_coincides_with_direct_diagonal():
    for k in (1, 2):
        assert lift_J0(1, "c", k) == build_Jk(ChartSpec(1, k, False))


def test_vertical_lift_of_J0_does_not_square():
    # the vertical lift pushes outputs up a level, so squaring annihilates
    J = lift_J0(1, "v", 1)
    assert J.compose(J) != EndoField.identity(J.chart).scaled(-1)


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
        assert kaehler_closed(phi)


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


# -- closedness of the fundamental two-form ------------------------------------

def test_kaehler_closed_rejects_symmetric_part():
    chart = ChartSpec(1, 0, False)
    g = Bilinear(chart, {(holo(0, 1), anti(0, 1)): Expr.one(),
                         (anti(0, 1), holo(0, 1)): Expr.one()})
    with pytest.raises(FieldError) as err:
        kaehler_closed(g)
    assert str(err.value) == "kaehler_closed requires an antisymmetric bilinear"


def _random_poly(rng, coords):
    out = Expr.zero()
    for _ in range(rng.randint(1, 3)):
        term = Expr.constant(GRat(rng.randint(-3, 3), rng.randint(-2, 2)))
        for coord in rng.sample(coords, rng.randint(0, 3)):
            term = term * Expr.atom(coord, rng.randint(1, 2))
        out = out + term
    return out


def _two_form(chart, upper):
    """The antisymmetric bilinear with the given entries on increasing
    coordinate pairs."""
    entries = dict(upper)
    entries.update({(b, a): -v for (a, b), v in upper.items()})
    return Bilinear(chart, entries)


def _reference_closed(phi):
    """(d phi)_abc = d_a phi_bc - d_b phi_ac + d_c phi_ab vanishes on every
    increasing coordinate triple."""
    return all((phi.entry(b, c).diff(a) - phi.entry(a, c).diff(b)
                + phi.entry(a, b).diff(c)).is_zero()
               for a, b, c in itertools.combinations(phi.chart.coordinates(), 3))


@pytest.mark.parametrize("chart", [ChartSpec(2, 1, True), ChartSpec(1, 1, False)],
                         ids=["time", "time-free"])
def test_kaehler_closed_matches_the_alternating_sum(chart):
    # exact forms d(alpha), the same with one entry perturbed, and random
    # two-forms; the reference is the alternating sum over increasing triples
    coords = list(chart.coordinates())
    pairs = list(itertools.combinations(coords, 2))
    counts = collections.Counter()
    for seed in range(30):
        rng = random.Random(seed)
        alpha = {a: _random_poly(rng, coords)
                 for a in rng.sample(coords, rng.randint(1, 3))}
        exact = {(a, b): alpha.get(b, Expr.zero()).diff(a)
                 - alpha.get(a, Expr.zero()).diff(b) for a, b in pairs}
        perturbed = dict(exact)
        key = rng.choice(pairs)
        perturbed[key] = perturbed[key] + _random_poly(rng, coords)
        random_form = {key: _random_poly(rng, coords)
                       for key in rng.sample(pairs, 3)}
        for label, upper in (("exact", exact), ("perturbed", perturbed),
                             ("random", random_form)):
            phi = _two_form(chart, upper)
            verdict = kaehler_closed(phi)
            assert verdict == _reference_closed(phi), (seed, label)
            counts[label, verdict] += 1
    assert counts["exact", True] == 30
    assert counts["perturbed", True] and counts["perturbed", False]


def _s10(m, k):
    report = verify.run_suite("structures", m, k, seed=0)
    return next(o for o in report.outcomes if o.clause_id == "S10")


def test_s10_names_a_lifted_form_that_is_not_closed(monkeypatch):
    # every (0,2) lift returns z1_1 dz0_1 ^ dzb0_1: antisymmetric, and its
    # differential has the entry -dz0_1 ^ dz1_1 ^ dzb0_1
    def not_closed(B, kind, k):
        chart = B.chart.extend(k)
        return _two_form(chart, {(holo(0, 1), anti(0, 1)): Expr.atom(holo(1, 1))})
    monkeypatch.setattr(verify, "t02_lift_solve", not_closed)
    outcome = _s10(1, 1)
    assert (outcome.status, outcome.samples) == ("FAIL", 2)
    assert outcome.witness == ("metric = flat; kind = v; the lifted two-form "
                               "has nonzero differential")


def test_s10_names_a_base_form_that_is_not_closed(monkeypatch):
    # a hermitian metric that is not Kaehler: h_22b = 1 + z0_1 zb0_1 varies
    # along z0_1 while h_12b = 0 does not vary along z0_2
    chart = ChartSpec(2, 0, False)
    z1, z2, zb1, zb2 = holo(0, 1), holo(0, 2), anti(0, 1), anti(0, 2)
    h = parse("1 + z0_1*zb0_1")
    g = Bilinear(chart, {(z1, zb1): Expr.one(), (zb1, z1): Expr.one(),
                         (z2, zb2): h, (zb2, z2): h})
    monkeypatch.setattr(verify, "HermitianPackage", SimpleNamespace(
        flat=lambda m: SimpleNamespace(metric=g)))
    outcome = _s10(2, 1)
    assert (outcome.status, outcome.samples) == ("FAIL", 1)
    assert outcome.witness == "metric = flat; the base two-form is not closed"
