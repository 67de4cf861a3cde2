"""The identity-suite runner and the two-route comparator.

Most of the heavy checking lives inside the suites themselves; these tests
pin the report surface (clause ids, statuses, rendering) and the documented
conflict inventory at small sizes, and they check that reports are
deterministic functions of their arguments.
"""

import pathlib

import pytest

from liftcalc.verify import (
    COMPARISONS,
    DEFAULT_SAMPLES,
    FieldGen,
    SUITES,
    VerifyError,
    compare_proposition,
    run_suite,
)


# -- FieldGen -------------------------------------------------------------------

def test_fieldgen_is_deterministic():
    from liftcalc.charts import ChartSpec
    chart = ChartSpec(2, 0, True)
    a = FieldGen(seed=11).expr(chart)
    b = FieldGen(seed=11).expr(chart)
    assert a == b
    assert FieldGen(seed=12).expr(chart) != a


def test_fieldgen_t_free_by_default():
    from liftcalc.charts import ChartSpec
    from liftcalc.symkernel import Kind
    chart = ChartSpec(1, 0, True)
    gen = FieldGen(seed=3)
    for _ in range(50):
        e = gen.expr(chart)
        assert all(c.kind != Kind.TIME for c in e.coords())


def test_fieldgen_vector_time_component_defaults_to_one():
    from liftcalc.charts import ChartSpec
    from liftcalc.symkernel import TIME, Expr
    chart = ChartSpec(1, 0, True)
    Z = FieldGen(seed=0).vector(chart)
    assert Z.component(TIME) == Expr.one()


def test_fieldgen_hermitian_is_symmetric_mixed():
    from liftcalc.charts import ChartSpec
    from liftcalc.symkernel import Kind
    g = FieldGen(seed=5).hermitian(ChartSpec(2, 0, False))
    assert g.is_symmetric()
    for (a, b) in g.entries:
        assert {a.kind, b.kind} == {Kind.HOLO, Kind.ANTI}


# -- run_suite -------------------------------------------------------------------

def test_functions_suite_all_pass():
    report = run_suite("functions", 1, 2, seed=7, samples=25)
    assert report.ok
    assert report.n_pass == 13
    assert report.n_fail == 0
    assert report.n_conflict == 0


def test_functions_suite_render_frozen():
    text = run_suite("functions", 1, 2, seed=7, samples=25).render()
    lines = text.splitlines()
    assert lines[0] == "suite=functions m=1 k=2 seed=7 samples=25 t_free=True"
    assert lines[1] == "clause F1 locus=fn-add-vertical status=PASS samples=25"
    assert lines[-1] == "summary: 13 clauses, 13 PASS, 0 FAIL, 0 CONFLICT"


def test_reports_are_deterministic():
    a = run_suite("vectors", 1, 2, seed=4).render()
    b = run_suite("vectors", 1, 2, seed=4).render()
    assert a == b


def test_time_dependent_corpus_flags_known_conflicts():
    report = run_suite("functions", 1, 1, seed=0, t_free=False)
    by_id = {o.clause_id: o for o in report.outcomes}
    for cid in ("F7", "F8", "F9", "F11"):
        assert by_id[cid].status == "CONFLICT", cid
        assert by_id[cid].note and "documented conflict" in by_id[cid].note
    assert report.ok  # conflicts are documented, not failures
    assert report.n_fail == 0


def test_time_probe_witness_is_canonical():
    report = run_suite("functions", 1, 1, seed=0, t_free=False)
    f7 = next(o for o in report.outcomes if o.clause_id == "F7")
    assert f7.witness == "f = t*z0_1; value: left = z0_1; right = z0_1 + z1_1"


def test_brackets_suite_three_clauses():
    report = run_suite("brackets", 1, 1, seed=3)
    assert [o.clause_id for o in report.outcomes] == ["B1", "B2", "B3"]
    assert report.ok and report.n_conflict == 0


@pytest.mark.parametrize("suite,k,expected_conflicts", [
    ("vectors", 1, {"V15"}),
    ("oneforms", 1, {"O14"}),
    ("oneforms", 2, {"O8", "O12", "O14"}),
    ("tensors", 1, {"T2", "T5"}),
    ("frames", 1, set()),
    ("frames", 2, {"FR7"}),
    ("tensors", 3, {"T2", "T5"}),
    ("oneforms", 3, {"O12", "O14"}),
])
def test_conflict_inventory(suite, k, expected_conflicts):
    samples = 2 if suite == "tensors" else None
    report = run_suite(suite, 1, k, seed=0, samples=samples)
    conflicts = {o.clause_id for o in report.outcomes
                 if o.status == "CONFLICT"}
    assert conflicts == expected_conflicts
    assert report.n_fail == 0


def test_structures_suite_passes():
    for k in (1, 3):
        report = run_suite("structures", 1, k, seed=0, samples=2)
        assert report.n_fail == 0
        assert {o.status for o in report.outcomes} <= {"PASS", "CONFLICT"}


def test_all_runs_every_suite():
    report = run_suite("all", 1, 1, seed=0, samples=2)
    prefixes = {o.clause_id.rstrip("0123456789") for o in report.outcomes}
    assert prefixes == {"F", "V", "O", "T", "S", "B", "FR"}
    assert report.n_fail == 0


def test_run_suite_argument_validation():
    with pytest.raises(VerifyError):
        run_suite("nope", 1, 1)
    with pytest.raises(VerifyError):
        run_suite("functions", 0, 1)
    with pytest.raises(VerifyError):
        run_suite("functions", 1, 0)
    with pytest.raises(VerifyError):
        run_suite("functions", 1, 1, samples=0)


def test_suite_inventory():
    assert SUITES == ("functions", "vectors", "oneforms", "tensors",
                      "structures", "brackets", "frames")
    assert set(DEFAULT_SAMPLES) == set(SUITES)


# -- compare_proposition -----------------------------------------------------------

def test_comparison_inventory():
    assert COMPARISONS == ("P321", "P322", "P323", "P331", "P332", "P333")


@pytest.mark.parametrize("prop", COMPARISONS)
def test_all_match_at_k1(prop):
    report = compare_proposition(prop, 1, 1, seed=0)
    assert report.n_mismatch == 0


@pytest.mark.parametrize("prop", ["P322", "P323", "P332", "P333"])
def test_weighted_routes_mismatch_at_k2(prop):
    report = compare_proposition(prop, 1, 2, seed=0)
    assert report.n_mismatch > 0


@pytest.mark.parametrize("prop", ["P321", "P331"])
def test_unweighted_routes_match_at_k2(prop):
    assert compare_proposition(prop, 1, 2, seed=0).n_mismatch == 0


def test_compare_render_frozen():
    text = compare_proposition("P322", 1, 2, seed=0, samples=2).render()
    lines = text.splitlines()
    assert lines[0] == "compare=P322 subject=vector-complete m=1 k=2 seed=0 samples=2"
    assert lines[1] == ("case Z[1] status=MISMATCH witness: component "
                        "d/dz1_1: defining = (1 - 1/5*i)*zb1_1; "
                        "closed = (2 - 2/5*i)*zb1_1")
    assert lines[-1] == "verdict: MISMATCH (2 of 2 cases differ)"


def test_compare_explicit_field_witness():
    # the canonical witness: Z = z0_1 d/dz0_1 at k = 2 doubles its middle
    # component through the closed form
    from liftcalc.charts import ChartSpec
    from liftcalc.fields import VectorField
    from liftcalc.symkernel import Expr, holo
    chart = ChartSpec(1, 0, True)
    Z = VectorField(chart, {holo(0, 1): Expr.atom(holo(0, 1))})
    report = compare_proposition("P322", 1, 2, fields=[Z])
    assert report.n_mismatch == 1
    assert report.cases[0].witness == ("component d/dz1_1: "
                                       "defining = z1_1; closed = 2*z1_1")


def test_compare_argument_validation():
    with pytest.raises(VerifyError):
        compare_proposition("P999", 1, 1)
    with pytest.raises(VerifyError):
        compare_proposition("P321", 1, 5)  # k capped at 4
    with pytest.raises(VerifyError) as err:
        compare_proposition("P321", 1, 1, fields=[])
    assert str(err.value) == \
        "P321 compares at least one field; fields is empty"


def test_compare_is_deterministic():
    a = compare_proposition("P332", 1, 2, seed=9).render()
    b = compare_proposition("P332", 1, 2, seed=9).render()
    assert a == b


def test_compare_title_names_the_seed_only_when_it_draws():
    from liftcalc.charts import ChartSpec
    from liftcalc.fields import VectorField
    from liftcalc.symkernel import Expr, holo
    Z = VectorField(ChartSpec(1, 0, True), {holo(0, 1): Expr.atom(holo(0, 1))})
    assert compare_proposition("P322", 1, 2, seed=9, fields=[Z]).title == \
        "compare=P322 subject=vector-complete m=1 k=2 samples=1"
    assert compare_proposition("P322", 1, 2, seed=9, samples=1).title == \
        "compare=P322 subject=vector-complete m=1 k=2 seed=9 samples=1"


# -- first-difference witnesses ---------------------------------------------------

def _witness_cases():
    from liftcalc.charts import ChartSpec
    from liftcalc.fields import (Bilinear, EndoField, OneForm, ScalarField,
                                 VectorField)
    from liftcalc.symkernel import TIME, anti, holo, parse
    chart = ChartSpec(1, 0, True)
    z, zb = holo(0, 1), anti(0, 1)
    return [
        ([("f", "z0_1")], ScalarField(chart, parse("z0_1")),
         ScalarField(chart, parse("z0_1 + t")),
         "f = z0_1; value: left = z0_1; right = t + z0_1"),
        ([("X", "d/dt")], parse("2*t"), parse("t"),
         "X = d/dt; value: left = 2*t; right = t"),
        ([], VectorField(chart, {TIME: 1, z: parse("z0_1")}),
         VectorField(chart, {TIME: 1, zb: parse("i")}),
         "component d/dz0_1: left = z0_1; right = 0"),
        ([("w", "dt")], OneForm(chart, {TIME: 1, zb: parse("z0_1")}),
         OneForm(chart, {TIME: 1, z: parse("1/2")}),
         "w = dt; component dz0_1: left = 0; right = 1/2"),
        ([("kind", "c")], EndoField(chart, {(z, z): parse("i"), (zb, z): 1}),
         EndoField(chart, {(z, z): parse("i"), (z, zb): 1}),
         "kind = c; entry d/dz0_1 <- d/dzb0_1: left = 0; right = 1"),
        ([("kind", "v")], Bilinear(chart, {(z, zb): 1, (zb, z): 1}),
         Bilinear(chart, {(z, zb): 1, (zb, z): -1}),
         "kind = v; entry dzb0_1 (x) dz0_1: left = 1; right = -1"),
        ([], VectorField(chart, {z: 1}), VectorField(chart, {z: 1}), None),
    ]


@pytest.mark.parametrize(
    "inputs,left,right,witness", _witness_cases(),
    ids=["scalar", "expr", "vector", "oneform", "endo", "bilinear", "equal"])
def test_first_difference_witness(inputs, left, right, witness):
    from liftcalc.verify import _check
    assert _check(inputs, left, right) == witness


# -- evaluation policy -------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _break_lifts(monkeypatch):
    """Break five names that the clause bodies look up in liftcalc.verify at
    call time, and send the lifts routed through ``verify._lift`` that
    reach three of them (scalar c, vector non-h, one-form h) to the same
    broken functions."""
    import dataclasses

    from liftcalc import verify
    from liftcalc.fields import OneForm, ScalarField, VectorField
    from liftcalc.lifts import LiftError
    from liftcalc.symkernel import TIME, Expr

    fn_complete, adapted_frame = verify.fn_complete, verify.adapted_frame
    lift_J0, of_horizontal = verify.lift_J0, verify.of_horizontal
    vf_lift_solve = verify.vf_lift_solve
    lift = verify._lift

    def complete(f, k):
        # wrong only on inputs of three or more terms: fails mid-corpus
        out = fn_complete(f, k)
        if len(list(f.value.terms())) >= 3:
            out = out + ScalarField(out.chart, Expr.one())
        return out

    def frame(chart, conn):
        # the last guide field: a frame clause fails on a later row
        fr = adapted_frame(chart, conn)
        D = dict(fr.D)
        D[(chart.k - 1, chart.m)] = D[(chart.k - 1, chart.m)].scaled(2)
        return dataclasses.replace(fr, D=D)

    def structure(m, kind, k):
        J = lift_J0(m, kind, k)
        return J.scaled(2) if kind == "v" else J

    def horizontal(w, conn):
        try:
            return of_horizontal(w, conn)
        except LiftError:
            return OneForm.zero(conn.chart)

    def solve(Z, kind, k, **split):
        # a stray d/dt on the product chart only: the tensors and brackets
        # suites, on time-free charts, still pass
        out = vf_lift_solve(Z, kind, k, **split)
        if kind == "c" and out.chart.has_time:
            out = out + VectorField.basis(out.chart, TIME)
        return out

    def routed(obj, kind, k, *, r=None, s=None, conn=None):
        if isinstance(obj, ScalarField) and kind == "c":
            return complete(obj, k)
        if isinstance(obj, VectorField) and kind != "h":
            return solve(obj, kind, k, r=r, s=s)
        if isinstance(obj, OneForm) and kind == "h":
            return horizontal(obj, conn)
        return lift(obj, kind, k, r=r, s=s, conn=conn)

    monkeypatch.setattr(verify, "fn_complete", complete)
    monkeypatch.setattr(verify, "adapted_frame", frame)
    monkeypatch.setattr(verify, "lift_J0", structure)
    monkeypatch.setattr(verify, "of_horizontal", horizontal)
    monkeypatch.setattr(verify, "vf_lift_solve", solve)
    monkeypatch.setattr(verify, "_lift", routed)


def test_failures_report_counts_and_later_draws(monkeypatch):
    """A FAIL line carries the number of cases evaluated up to and including
    the first witness, and the corpus draws after it are the ones a stopped
    clause leaves: mid-corpus (F3), a later table row (FR2), a fixed case
    count (S3) and every clause drawn after a FAIL are pinned by the golden."""
    _break_lifts(monkeypatch)
    report = run_suite("all", 1, 2, seed=0, samples=2)
    assert report.render() + "\n" == \
        (GOLDEN / "check_all_m1_k2_seed0_broken_lifts.txt").read_text()
    assert report.n_fail > 0


def test_all_runs_each_suite_through_run_suite(monkeypatch):
    """``run_suite("all", ...)`` reaches the module-level ``run_suite`` once
    per suite, in SUITES order; the layer trace attributes its per-suite
    seconds through exactly these calls."""
    from liftcalc import verify

    seen = []
    original = verify.run_suite

    def recorder(suite, *args, **kwargs):
        seen.append(suite)
        return original(suite, *args, **kwargs)

    monkeypatch.setattr(verify, "run_suite", recorder)
    verify.run_suite("all", 1, 1, samples=1)
    assert seen == ["all", *SUITES]


def test_compare_refuses_fields_of_another_class_or_chart():
    from liftcalc.charts import ChartSpec
    from liftcalc.fields import OneForm, VectorField
    from liftcalc.symkernel import Expr, holo
    z = holo(0, 1)
    base = ChartSpec(1, 0, True)
    w = OneForm(base, {z: Expr.atom(z)})
    with pytest.raises(VerifyError) as err:
        compare_proposition("P322", 1, 2, fields=[w])
    assert str(err.value) == (
        "P322 compares VectorField fields on ChartSpec(m=1, k=0, "
        "has_time=True); field 1 is a OneForm on ChartSpec(m=1, k=0, "
        "has_time=True)")
    Z = VectorField(base, {z: Expr.atom(z)})
    Z2 = VectorField(ChartSpec(2, 0, False), {z: Expr.atom(z)})
    with pytest.raises(VerifyError) as err:
        compare_proposition("P322", 1, 2, fields=[Z, Z2])
    assert str(err.value) == (
        "P322 compares VectorField fields on ChartSpec(m=1, k=0, "
        "has_time=True); field 2 is a VectorField on ChartSpec(m=2, k=0, "
        "has_time=False)")
    with pytest.raises(VerifyError) as err:
        compare_proposition("P331", 1, 1, fields=[Z])
    assert str(err.value) == (
        "P331 compares OneForm fields on ChartSpec(m=1, k=0, "
        "has_time=True); field 1 is a VectorField on ChartSpec(m=1, k=0, "
        "has_time=True)")


def test_structures_suite_solves_each_lift_of_j0_once(monkeypatch):
    """S3, S4, S5, S7, S8 and S9 share one determined lift of the base
    structure per kind."""
    from liftcalc import verify

    lift_J0, kinds = verify.lift_J0, []

    def counted(m, kind, k):
        kinds.append(kind)
        return lift_J0(m, kind, k)

    monkeypatch.setattr(verify, "lift_J0", counted)
    verify.run_suite("structures", 1, 2)
    assert kinds == ["v", "c"]
