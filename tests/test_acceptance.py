"""Acceptance gate: eleven numbered criteria, one line of output each.

Every check is exact (normal-form equality of polynomials over the
Gaussian rationals); the only tolerances are wall-clock budgets, asserted
where stated.  Run with ``pytest -v tests/test_acceptance.py`` to see one
pass/fail line per criterion.
"""

import time

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.fields import (
    Bilinear,
    ConnectionCoeffs,
    EndoField,
    OneForm,
    ScalarField,
    VectorField,
    lie_bracket,
)
from liftcalc.lifts import (
    basis_lift_rows,
    fn_complete,
    fn_complete_vertical,
    fn_horizontal,
    fn_vertical,
    of_complete_closed,
    of_defining_residuals,
    of_lift_solve,
    t02_defining_residuals,
    t02_lift_solve,
    t11_defining_residuals,
    t11_lift_solve,
    vf_defining_residuals,
    vf_horizontal,
    vf_lift_solve,
)
from liftcalc.structures import (
    HermitianPackage,
    build_Jk,
    build_Jk_star,
    hermitian_check,
    kaehler_closed,
    kaehler_form,
    lift_J0,
)
from liftcalc.symkernel import (
    TIME,
    Expr,
    Kind,
    binomial,
    format_expr,
    holo,
    parse,
)
from liftcalc.verify import FieldGen, compare_proposition, run_suite


def _report(n, text, t0=None):
    stamp = f" ({time.monotonic() - t0:.1f}s)" if t0 is not None else ""
    print(f"criterion {n}: PASS  {text}{stamp}")


# -- 1: binomial Leibniz rule for complete lifts ---------------------------------

def test_criterion_01_complete_lift_leibniz_binomial():
    t0 = time.monotonic()
    for m in (1, 2):
        chart = ChartSpec(m, 0, True)
        gen = FieldGen(seed=101, t_free=False)
        pairs = [(gen.expr(chart), gen.expr(chart)) for _ in range(25)]
        for k in (1, 2, 3):
            for fe, ge in pairs:
                f = ScalarField(chart, fe)
                g = ScalarField(chart, ge)
                fg = ScalarField(chart, fe * ge)
                lhs = fn_complete(fg, k).value
                rhs = Expr.zero()
                for j in range(k + 1):
                    rhs = rhs + (fn_complete_vertical(f, k - j, j).value
                                 * fn_complete_vertical(g, j, k - j).value
                                 ).scale(binomial(k, j))
                assert lhs == rhs
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(1, "complete-lift binomial Leibniz rule, m<=2, k<=3, 25 pairs", t0)


# -- 2: horizontal lift annihilates time-free functions ----------------------------

def test_criterion_02_horizontal_annihilates_time_free():
    t0 = time.monotonic()
    for m in (1, 2):
        chart = ChartSpec(m, 0, True)
        gen = FieldGen(seed=202)  # t-free corpus
        for k in (1, 2):
            for _ in range(25):
                f = ScalarField(chart, gen.expr(chart))
                assert fn_horizontal(f, k).value.is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, "horizontal lift kills t-free functions, m<=2, k<=2", t0)


# -- 3: coordinate-basis lift table ---------------------------------------------------

def test_criterion_03_basis_lift_table():
    t0 = time.monotonic()
    for m in (1, 2):
        for k in (1, 2, 3):
            chart0 = ChartSpec(m, 0, True)
            target = chart0.extend(k)
            conn = ConnectionCoeffs.zero(target)
            for i in range(1, m + 1):
                ddz = VectorField.basis(chart0, holo(0, i))
                dz = OneForm.differential_of(chart0, holo(0, i))
                assert vf_lift_solve(ddz, "v", k) == \
                    VectorField.basis(target, holo(k, i))
                assert vf_lift_solve(ddz, "c", k) == \
                    VectorField.basis(target, holo(0, i))
                assert of_lift_solve(dz, "v", k) == \
                    OneForm.differential_of(target, holo(0, i))
                assert of_lift_solve(dz, "c", k) == \
                    OneForm.differential_of(target, holo(k, i))
            dt = OneForm.differential_of(chart0, TIME)
            ddt = VectorField.basis(chart0, TIME)
            # a dt term makes the complete defining pairings contradictory,
            # so this row comes from the closed-form constructor
            assert of_complete_closed(dt, k) == \
                OneForm.differential_of(target, TIME)
            assert vf_horizontal(ddt, conn) == VectorField.basis(target, TIME)
            # the printable table agrees with the solved objects
            rows = dict(basis_lift_rows(m, k))
            assert rows[f"(d/dz0_1)^{{v^{k}}}"] == f"d/dz{k}_1"
            assert rows[f"(d/dz0_1)^{{c^{k}}}"] == "d/dz0_1"
            assert rows[f"(dz0_1)^{{v^{k}}}"] == "dz0_1"
            assert rows[f"(dz0_1)^{{c^{k}}}"] == f"dz{k}_1"
            assert rows[f"(dt)^{{c^{k}}}"] == "dt"
            assert rows[f"(d/dt)^{{H^{k}}}"] == "d/dt"
    _report(3, "coordinate-basis lift table, m<=2, k<=3", t0)


# -- 4: unweighted closed forms match the defining equations ----------------------------

def test_criterion_04_vertical_propositions_match():
    t0 = time.monotonic()
    for prop in ("P321", "P331"):
        for m in (1, 2):
            for k in (1, 2, 3):
                report = compare_proposition(prop, m, k, seed=404)
                assert report.n_mismatch == 0, report.render()
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(4, "vertical closed forms match defining equations, m<=2, k<=3",
            t0)


# -- 5: the weighted closed form departs at k = 2 -----------------------------------------

def test_criterion_05_complete_closed_form_mismatch_witness():
    t0 = time.monotonic()
    chart = ChartSpec(1, 0, True)
    Z = VectorField(chart, {holo(0, 1): Expr.atom(holo(0, 1))})
    report = compare_proposition("P322", 1, 2, fields=[Z])
    assert report.n_mismatch == 1
    case = report.cases[0]
    assert case.status == "MISMATCH"
    assert case.witness == ("component d/dz1_1: defining = z1_1; "
                            "closed = 2*z1_1")
    _report(5, "complete closed form departs at k=2 with the stated witness",
            t0)


# -- 6: bracket laws ------------------------------------------------------------------------

def test_criterion_06_bracket_laws():
    t0 = time.monotonic()
    for m in (1, 2):
        chart = ChartSpec(m, 0, False)
        gen = FieldGen(seed=606)
        pairs = [(gen.vector(chart), gen.vector(chart)) for _ in range(10)]
        for k in (1, 2):
            for Z, W in pairs:
                Zv = vf_lift_solve(Z, "v", k)
                Wv = vf_lift_solve(W, "v", k)
                Zc = vf_lift_solve(Z, "c", k)
                Wc = vf_lift_solve(W, "c", k)
                base = lie_bracket(Z, W)
                assert lie_bracket(Zv, Wv).is_zero()
                assert lie_bracket(Zc, Wc) == vf_lift_solve(base, "c", k)
                assert lie_bracket(Zv, Wc) == vf_lift_solve(base, "v", k)
                assert lie_bracket(Zc, Wv) == vf_lift_solve(base, "v", k)
    _report(6, "bracket laws for vertical and complete lifts, m<=2, k<=2",
            t0)


# -- 7: complex-structure operators square to -I ----------------------------------------------

def test_criterion_07_structure_operators_square():
    t0 = time.monotonic()
    for m in (1, 2):
        for k in (1, 2, 3):
            chart = ChartSpec(m, k, False)
            minus_id = EndoField.identity(chart).scaled(-1)
            for J in (build_Jk(chart), build_Jk_star(chart)):
                assert J.compose(J) == minus_id
    for m in (1, 2):
        for k in (1, 2):
            J = lift_J0(m, "c", k)
            assert J.compose(J) == EndoField.identity(J.chart).scaled(-1)
    _report(7, "structure operators square to -identity, m<=2, k<=3", t0)


# -- 8: flat hermitian package stays hermitian and closed ---------------------------------------

def test_criterion_08_flat_hermitian_lifts():
    t0 = time.monotonic()
    for m in (1, 2):
        pkg = HermitianPackage.flat(m)
        assert hermitian_check(pkg.metric, pkg.J)
        assert kaehler_closed(kaehler_form(pkg.metric, pkg.J))
        for k in (1, 2):
            J = lift_J0(m, "c", k)
            for kind in ("v", "c"):
                G = t02_lift_solve(pkg.metric, kind, k)
                assert hermitian_check(G, J)
                phi = t02_lift_solve(pkg.phi, kind, k)
                assert phi.is_antisymmetric()
                assert kaehler_closed(phi)
    _report(8, "flat hermitian metric: lifts stay hermitian, forms closed, "
            "m<=2, k<=2", t0)


# -- 9: holdout residuals for every solver lift above --------------------------------------------

def test_criterion_09_holdout_residuals_vanish():
    t0 = time.monotonic()
    # vector and one-form lifts as exercised by criteria 4-6
    for m in (1, 2):
        chart = ChartSpec(m, 0, False)
        gen = FieldGen(seed=909)
        Z = gen.vector(chart)
        w = gen.oneform(chart)
        for k in (1, 2, 3):
            for kind, r, s in (("v", None, None), ("c", None, None),
                               ("cv", 1, k - 1)):
                lifted = vf_lift_solve(Z, kind, k, r=r, s=s)
                assert all(e.is_zero() for e in vf_defining_residuals(
                    Z, lifted, kind, k, r=r, s=s))
                wl = of_lift_solve(w, kind, k, r=r, s=s)
                assert all(e.is_zero() for e in of_defining_residuals(
                    w, wl, kind, k, r=r, s=s))
    # tensor lifts as exercised by criteria 7-8
    for m in (1, 2):
        pkg = HermitianPackage.flat(m)
        for k in (1, 2):
            for kind in ("v", "c"):
                J = t11_lift_solve(pkg.J, kind, k)
                assert all(e.is_zero() for e in t11_defining_residuals(
                    pkg.J, J, kind, k))
                G = t02_lift_solve(pkg.metric, kind, k)
                assert all(e.is_zero() for e in t02_defining_residuals(
                    pkg.metric, G, kind, k))
    _report(9, "holdout defining residuals vanish for every solver lift",
            t0)


# -- 10: kernel bulk property run -------------------------------------------------------------------

def test_criterion_10_kernel_bulk_properties():
    t0 = time.monotonic()
    chart = ChartSpec(2, 0, True)
    gen = FieldGen(seed=1010, t_free=False)
    z1, zb1 = holo(0, 1), holo(0, 1).conjugate()
    n = 1000
    for _ in range(n):
        a = gen.expr(chart)
        b = gen.expr(chart)
        c = gen.expr(chart)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b).diff(z1) == a.diff(z1) * b + a * b.diff(z1)
        assert a.diff(z1).diff(zb1) == a.diff(zb1).diff(z1)
        assert a.conjugate().conjugate() == a
        assert parse(format_expr(a)) == a
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(10, f"{n} seeded expression triples: ring axioms, calculus, "
            "round trip", t0)


# -- 11: reports are byte-identical across runs -------------------------------------------------------

def test_criterion_11_reports_byte_identical():
    t0 = time.monotonic()
    first = run_suite("all", 1, 2, seed=11, samples=2).render()
    second = run_suite("all", 1, 2, seed=11, samples=2).render()
    assert first == second
    ca = compare_proposition("P332", 1, 2, seed=11).render()
    cb = compare_proposition("P332", 1, 2, seed=11).render()
    assert ca == cb
    _report(11, "suite and comparison reports byte-identical across runs",
            t0)
