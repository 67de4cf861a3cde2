"""The determined-lift engine: cached rank proofs stay certified.

Each op's coefficient rows and their rank proof are cached per system key.
Each input checks its closed-form candidate against every equation and is
refused when the candidate fails.  A wrong right-hand side must still be
caught -- by the check against every equation or by the holdout -- even
when the system comes from the cache, and the failure must not spoil the
cache for the next input.
"""

import re
from functools import lru_cache

import pytest

from liftcalc import lifts as L
from liftcalc.charts import ChartSpec
from liftcalc.fields import (
    Bilinear,
    EndoField,
    OneForm,
    ScalarField,
    VectorField,
)
from liftcalc.symkernel import TIME, Expr, _eliminate, anti, holo
from liftcalc.verify import FieldGen

C0 = ChartSpec(1, 0, True)
K = 2
Z = holo(0, 1)
ZB = anti(0, 1)
z, zb = Expr.atom(Z), Expr.atom(ZB)


def _wrong_scalar_lift(monkeypatch, kind, value):
    """Make the scalar lift of `value` (kind `kind`) wrong by one."""
    right = L._lift_scalar_expr

    def lift(expr, k_kind, k, r, s):
        out = right(expr, k_kind, k, r, s)
        return out + 1 if k_kind == kind and expr == value else out

    monkeypatch.setattr(L, "_lift_scalar_expr", lift)


def _assert_cached_solve_survives(monkeypatch, solve, first, second, corrupt,
                                  message):
    """Solve `second`, fail `first` under `corrupt`, then solve `second`
    again from the same cache entry."""
    L.clear_lift_cache()
    expected, cert = solve(second)
    assert cert.residuals_zero
    entries = L._system.cache_info().currsize
    with monkeypatch.context() as patch:
        corrupt(patch)
        with pytest.raises(L.LiftError, match=message):
            solve(first)
    again, cert = solve(second)
    assert again == expected and cert.residuals_zero
    assert L._system.cache_info().currsize == entries


def _fails(what, n):
    """The exact refusal of a candidate that fails equation `n`."""
    return ("^" + re.escape(f"{what} solve: closed form fails equation {n}")
            + "$")


@pytest.mark.parametrize("value, message", [
    # Z applied to z*zb, a family member off the ladders
    pytest.param(z * zb, _fails("vector v-lift", 7),
                 id="value0-off-ladder row"),
    (2 * z ** 2 * zb, "holdout residual nonzero"),  # Z applied to z^2*zb
    # Z applied to z^2, a ladder function.  The equation counts the rows of
    # the family, the t row first.
    pytest.param(2 * z ** 2, _fails("vector v-lift", 2),
                 id="value2-ladder row"),
])
def test_vector_lift_checks_stay_live(monkeypatch, value, message):
    first = VectorField(C0, {Z: z, TIME: 1})
    second = VectorField(C0, {ZB: z ** 2, TIME: 1})
    _assert_cached_solve_survives(
        monkeypatch, lambda Y: L.vf_lift_solve_certified(Y, "v", K),
        first, second,
        lambda patch: _wrong_scalar_lift(patch, "v", value), message)
    assert L.vf_lift_solve(second, "v", K) == L.vf_vertical_closed(second, K)


def test_oneform_lift_checks_stay_live(monkeypatch):
    first = OneForm(C0, {Z: z})
    second = OneForm(C0, {ZB: z * zb})
    for value, message in [
        # z*zb is the pairing with the test field zb d/dz0_1, row 5.
        (z * zb, _fails("one-form v-lift", 5)),
        # z^4 is only paired against the holdout field z^3 d/dz0_1.
        (z ** 4, "holdout residual nonzero"),
    ]:
        _assert_cached_solve_survives(
            monkeypatch, lambda w: L.of_lift_solve_certified(w, "v", K),
            first, second,
            lambda patch: _wrong_scalar_lift(patch, "v", value), message)
    assert L.of_lift_solve(second, "v", K) == L.of_vertical_closed(second, K)


def test_oneform_lift_is_refused_on_a_row_that_never_pivots(monkeypatch):
    """At m = 1, k = 3 the pairing solves its 9 ladder rows and only checks
    the other fields of coefficient degree <= 2, so row 12, z*zb d/dz0_1,
    never pivots.  The rank proof never reads it; the engine's check of
    every equation refuses a wrong right-hand side there."""
    k = 3
    first = OneForm(C0, {c: v for c, v in FieldGen(0).oneform(C0)
                         .components.items() if c != TIME})
    second = OneForm(C0, {ZB: z * zb})
    system = L._pairing(C0, k)
    assert system.solved == 9 and len(system.rows) == 15
    pivots = _eliminate(system.rows[:system.solved], system.width)
    assert 12 not in {p[3] for p in pivots}
    test_field = system.items[12]
    assert test_field == VectorField(C0, {Z: z * zb})
    pair = OneForm.pair

    def corrupt(patch):
        def paired(self, X):
            out = pair(self, X)
            return out + 1 if self == first and X == test_field else out
        patch.setattr(OneForm, "pair", paired)

    _assert_cached_solve_survives(
        monkeypatch, lambda w: L.of_lift_solve_certified(w, "v", k),
        first, second, corrupt, _fails("one-form v-lift", 12))


def test_endo_lift_checks_stay_live(monkeypatch):
    first = EndoField(C0, {(Z, Z): Expr.one()})
    second = EndoField(C0, {(ZB, Z): zb})
    right = L.vf_lift_solve

    # Only the v-lift of `wrong` is off: the one-term entry that (phi X)^lift
    # is composed from; the complete lift of the same field stays right.
    # The wrong entry goes into a throwaway one-term table, which the
    # context drops, so no later solve can read it, whatever its terms.
    def corrupt(wrong):
        def install(patch):
            def lift(Y, kind, k):
                out = right(Y, kind, k)
                if Y == wrong and kind == "v":
                    return out + VectorField(out.chart, {TIME: 1})
                return out
            patch.setattr(L, "vf_lift_solve", lift)
            patch.setattr(L, "_vf_term_lift", lru_cache(
                maxsize=L._VF_TERM_CACHE_SIZE)(L._vf_term_lift.__wrapped__))
        return install

    for wrong, message in [
        # phi(X) for the test field X = z d/dz0_1, row 3: the candidate's
        # row at t fails there.
        (VectorField(C0, {Z: z}), _fails("(1,1)-tensor v-lift", 3)),
        # phi(X) for a holdout X
        (VectorField(C0, {Z: z ** 3}), "holdout residual nonzero"),
    ]:
        _assert_cached_solve_survives(
            monkeypatch, lambda phi: L.t11_lift_solve_certified(phi, "v", K),
            first, second, corrupt(wrong), message)


def test_bilinear_lift_checks_stay_live(monkeypatch):
    first = Bilinear(C0, {(Z, ZB): Expr.one()})
    second = Bilinear(C0, {(ZB, Z): z, (Z, Z): 1})
    for value, message in [
        # G(z d/dz0_1, zb d/dzb0_1) = z*zb on a stage-1 pair: a column of
        # B P^T fails its row 5.
        (z * zb, _fails("(0,2)-tensor v-lift", 5)),
        # G(z^3 d/dz0_1, d/dzb0_1) = z^3 only on holdout pairs.
        (z ** 3, "holdout residual nonzero"),
    ]:
        _assert_cached_solve_survives(
            monkeypatch, lambda G: L.t02_lift_solve_certified(G, "v", K),
            first, second,
            lambda patch: _wrong_scalar_lift(patch, "v", value), message)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("include_time", [False, True])
@pytest.mark.parametrize("chart0", [C0, ChartSpec(1, 0, False),
                                    ChartSpec(2, 0, True),
                                    ChartSpec(2, 0, False)],
                         ids=["m1-time", "m1", "m2-time", "m2"])
def test_vector_ladder_functions_are_family_members(chart0, include_time, k):
    """The whole-family check of a vector lift certifies its ladder
    solves, and with them every ladder equation, only because each ladder
    function is a member of the family: the family system's solved prefix
    is square and the system holds the function family, no more."""
    system = L._vf_family(chart0, k, include_time and chart0.has_time)
    family = L.function_family(chart0, include_time, k)
    assert system.solved == system.width
    assert len(system.items) == len(family)
    assert set(system.items) == set(family)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_ladder_pivots_and_back_substitution_stay_narrow(k):
    """Top level first, each ladder's one constant pivot is its first, every
    other pivot is one term and every other coefficient of a pivot row has
    at most two terms; bottom level first, the pivots reach 40 terms at
    k = 5."""
    system = L._vf_family(C0, k, True)          # t, then z and zb
    assert not system.free
    pivots = _eliminate(system.rows[:system.solved], system.width)
    layout = L._vf_layout(C0, k, True)
    tops = {u for u, c in enumerate(layout) if c == TIME or c.level == k}
    assert len(tops) == 3
    # a constant pivot is normalised to None
    assert {u for u, _, pc, _ in pivots if pc is None} == tops
    assert all(len(pc.term_map()) == 1
               for _, _, pc, _ in pivots if pc is not None)
    assert all(len(c.term_map()) <= 2
               for _, coeffs, _, _ in pivots for _, c in coeffs)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("include_time", [False, True])
@pytest.mark.parametrize("m", [1, 2])
def test_one_ladder_system_factors_as_its_ladders_alone(m, include_time, k):
    """The ladder blocks share no position, so the family's solved prefix
    has, per ladder, the pivots of that ladder's rows factored alone."""
    system = L._vf_family(ChartSpec(m, 0, True), k, include_time)
    layout = L._vf_layout(ChartSpec(m, 0, True), k, include_time)

    def ladder(u):
        return layout[u].kind, layout[u].index      # the t line is one too

    rows_of: dict = {}
    for n, row in enumerate(system.rows[:system.solved]):
        (name,) = {ladder(u) for u in row}
        rows_of.setdefault(name, []).append(n)
    assert len(rows_of) == 2 * m + include_time
    pivots = _eliminate(system.rows[:system.solved], system.width)
    for name, rows in rows_of.items():
        positions = [u for u in range(system.width) if ladder(u) == name]
        local = {u: i for i, u in enumerate(positions)}
        row_no = {n: i for i, n in enumerate(rows)}
        alone = _eliminate([{local[u]: c for u, c in system.rows[n].items()}
                            for n in rows], len(positions))
        assert [(local[u], tuple((local[v], c) for v, c in coeffs), pc,
                 row_no[prow])
                for u, coeffs, pc, prow in pivots if u in local] == alone


def _fields_up_to(chart0, degree):
    return [X for stage in range(degree + 1)
            for X in L._vector_stage(chart0, stage)]


PAIRING_CASES = [(m, has_time, k) for m, top in ((1, 7), (2, 5))
                 for has_time in (True, False) for k in range(1, top + 1)]


@pytest.mark.parametrize("m,has_time,k", PAIRING_CASES)
def test_pairing_holds_the_low_degree_fields(m, has_time, k):
    """At k <= 2m the fields of coefficient degree <= 1 are at least as
    many as the unknowns and are all solved; above, the square ladder is
    solved and every field of degree <= 2 is among the rows, so no
    certificate holds fewer equations than the degree <= 1 fields give."""
    chart0 = ChartSpec(m, 0, has_time)
    system = L._pairing(chart0, k)
    items = list(system.items)
    low = _fields_up_to(chart0, 1)
    if k <= 2 * m:
        assert items == low and system.solved == len(items) >= system.width
    else:
        ladder = list(L._vector_ladder(chart0, k))
        up_to_2 = _fields_up_to(chart0, 2)
        assert items[:system.solved] == ladder
        assert system.solved == system.width
        assert all(X in items for X in up_to_2)
        assert all(X in ladder or X in up_to_2 for X in items)


@pytest.mark.parametrize("m,has_time,k", PAIRING_CASES)
def test_pairing_factor_leaves_no_position_free(m, has_time, k):
    """Every pairing pins every position, so no lift is refused as
    underdetermined; on the ladder every pivot is one monomial."""
    system = L._pairing(ChartSpec(m, 0, has_time), k)
    assert system.free == ()
    if k > 2 * m:
        assert all(pc is None or len(pc.term_map()) == 1 for _, _, pc, _ in
                   _eliminate(system.rows[:system.solved], system.width))


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("chart0", [C0, ChartSpec(1, 0, False),
                                    ChartSpec(2, 0, True),
                                    ChartSpec(2, 0, False)],
                         ids=["m1-time", "m1", "m2-time", "m2"])
def test_test_families_miss_the_holdout(chart0, k):
    """A holdout certifies only equations the solve did not see: no test
    function is a holdout function and no test field a holdout field."""
    holdout = L.function_holdout(chart0)
    for include_time in (True, False):
        family = L._vf_family(chart0, k, include_time and chart0.has_time)
        assert not set(family.items) & set(holdout)
    fields = list(L._vector_ladder(chart0, k)) + _fields_up_to(chart0, 2)
    assert not any(X in fields for X in L.vector_test_holdout(chart0))


def _residuals_by_hand(Z, lifted, kind, k, functions, r=None, s=None):
    """lifted(f^{c^k}) - (Z f)^lift, through the public function lifts."""
    chart0 = Z.chart
    return [lifted.apply(L.fn_complete(ScalarField(chart0, f), k).value)
            - L._lift(ScalarField(chart0, Z.apply(f)), kind, k,
                      r=r, s=s).value
            for f in functions]


@pytest.mark.parametrize("kind,r,s", [("v", None, None), ("c", None, None),
                                      ("cv", 1, 1)])
def test_vector_residuals_equal_the_lift_applied_by_hand(kind, r, s):
    L.clear_lift_cache()
    chart0 = ChartSpec(2, 0, True)
    holdout = L.function_holdout(chart0)
    for seed in (0, 7):
        Z = FieldGen(seed).vector(chart0)
        lifted = L.vf_lift_solve(Z, kind, K, r=r, s=s)
        expected = _residuals_by_hand(Z, lifted, kind, K, holdout, r, s)
        assert all(e.is_zero() for e in expected)
        assert (L.vf_defining_residuals(Z, lifted, kind, K, r=r, s=s)
                == expected)
        # A corrupted lift: wrong on one level and on the time direction.
        bad = lifted + VectorField(lifted.chart, {holo(1, 1): z * zb,
                                                  TIME: 3})
        expected = _residuals_by_hand(Z, bad, kind, K, holdout, r, s)
        assert any(not e.is_zero() for e in expected)
        assert L.vf_defining_residuals(Z, bad, kind, K, r=r, s=s) == expected


C1 = ChartSpec(1, 1, True)
ON_C1 = "determined lift input must live on an order-0 chart"
PINNED_TIME = ("complete and complete-vertical lifts require a constant time "
               "component, got z0_1")


@pytest.mark.parametrize("residuals, field, kind, split, message", [
    (L.vf_defining_residuals, VectorField(C0, {Z: z}), "cv", {},
     "complete-vertical lifts need a split r, s >= 0"),
    (L.of_defining_residuals, OneForm(C0, {Z: z}), "cv", {},
     "complete-vertical lifts need a split r, s >= 0"),
    (L.of_defining_residuals, OneForm(C0, {Z: z}), "cv", {"r": 5, "s": 0},
     "split must satisfy r + s = k, got 5 + 0 != 2"),
    (L.t11_defining_residuals, EndoField(C0, {(Z, Z): Expr.one()}), "cv", {},
     "tensor lifts support kinds 'v' and 'c', got 'cv'"),
    (L.t02_defining_residuals, Bilinear(C0, {(Z, ZB): Expr.one()}), "cv", {},
     "tensor lifts support kinds 'v' and 'c', got 'cv'"),
    # an input off the base chart, with a kind the solver takes
    (L.vf_defining_residuals, VectorField(C1, {Z: z}), "v", {}, ON_C1),
    (L.of_defining_residuals, OneForm(C1, {Z: z}), "v", {}, ON_C1),
    (L.t11_defining_residuals, EndoField(C1, {(Z, Z): Expr.one()}), "v", {},
     ON_C1),
    (L.t02_defining_residuals, Bilinear(C1, {(Z, ZB): Expr.one()}), "v", {},
     ON_C1),
    # a time component the complete and complete-vertical lifts refuse
    (L.vf_defining_residuals, VectorField(C0, {TIME: z, Z: z}), "c", {},
     PINNED_TIME),
    (L.vf_defining_residuals, VectorField(C0, {TIME: z, Z: z}), "cv",
     {"r": 1, "s": 1}, PINNED_TIME),
    (L.of_defining_residuals, OneForm(C0, {TIME: 1, Z: z}), "c", {},
     "one-form c-lift requires a zero time component, got 1"),
    (L.of_defining_residuals, OneForm(C0, {TIME: 1, Z: z}), "cv",
     {"r": 1, "s": 1}, "one-form cv-lift requires a zero time component, got 1"),
    # phi(d/dt) = z d/dt: the first pairing field's image, not a holdout's
    (L.t11_defining_residuals, EndoField(C0, {(TIME, TIME): z, (Z, Z): 1}),
     "c", {}, PINNED_TIME),
], ids=["vector", "oneform", "oneform-split", "endo", "bilinear",
        "vector-chart", "oneform-chart", "endo-chart", "bilinear-chart",
        "vector-time", "vector-cv-time", "oneform-time", "oneform-cv-time",
        "endo-time"])
def test_defining_residuals_refuse_what_the_solvers_refuse(residuals, field,
                                                           kind, split,
                                                           message):
    """Each residual function checks the chart, then the kind and split,
    then the time component, before any other work, and refuses with the
    text its solver gives."""
    lifted = type(field)(field.chart.extend(K), {})
    with pytest.raises(L.LiftError) as info:
        residuals(field, lifted, kind, K, **split)
    with pytest.raises(L.LiftError) as solver:
        L._lift(field, kind, K, **split)
    assert str(info.value) == str(solver.value) == message


M2 = ChartSpec(2, 0, True)
M2_NO_TIME = ChartSpec(2, 0, False)


@pytest.mark.parametrize("name,args,solve", [
    ("function_family", (C0, True, 3),
     lambda gen: L.vf_lift_solve(gen.vector(C0), "v", 3)),
    ("function_family", (M2_NO_TIME, False, 1),
     lambda gen: L.vf_lift_solve(gen.vector(M2_NO_TIME), "c", 1)),
    ("function_holdout", (M2,),
     lambda gen: L.vf_lift_solve(gen.vector(M2), "v", 1)),
    ("_vector_stage", (C0, 0),
     lambda gen: L.of_lift_solve(gen.oneform(C0), "v", K)),
    # at k = 3 the one-form lift solves the pairing's ladder and checks
    # the fields of coefficient degree 2
    ("_vector_stage", (C0, 2),
     lambda gen: L.of_lift_solve(gen.oneform(C0), "v", 3)),
    ("_vector_ladder", (C0, 3),
     lambda gen: L.of_lift_solve(gen.oneform(C0), "v", 3)),
    # the pairing's items are the vector test family
    ("_pairing", (C0, K),
     lambda gen: L.of_lift_solve(gen.oneform(C0), "v", K)),
    ("vector_test_holdout", (C0,),
     lambda gen: L.of_lift_solve(gen.oneform(C0), "v", K)),
], ids=["functions", "functions-no-time", "function-holdout", "stage-0",
        "stage-2", "vector-ladder", "vector-family", "vector-holdout"])
def test_test_families_are_built_once_as_tuples(monkeypatch, name, args,
                                                solve):
    """A test family is built, as a tuple, once per system key: two solves
    build it once, and a solve after clear_lift_cache() builds it again, so
    no cache but the system cache keeps it."""
    builder = getattr(L, name)
    built = []

    def counted(*call):
        value = builder(*call)
        if call == args:
            built.append(value)
        return value

    L.clear_lift_cache()
    monkeypatch.setattr(L, name, counted)
    try:
        solve(FieldGen(0))
        solve(FieldGen(1))
        assert len(built) == 1
        L.clear_lift_cache()
        solve(FieldGen(2))
        assert len(built) == 2
    finally:
        L.clear_lift_cache()
    first, again = (b.items if name == "_pairing" else b for b in built)
    assert type(first) is tuple and first and again == first


def _oneform_v(chart0, k):
    L.of_lift_solve(FieldGen(0).oneform(chart0), "v", k)


def _bilinear_c(chart0, k):
    L.t02_lift_solve(FieldGen(0).bilinear(chart0), "c", k)


@pytest.mark.parametrize("lift,chart0,k,solves", [
    (_oneform_v, C0, 2, 11), (_oneform_v, C0, 3, 19), (_oneform_v, M2, 5, 89),
    (_bilinear_c, C0, 2, 11), (_bilinear_c, ChartSpec(1, 0, False), 3, 18),
    (_bilinear_c, M2_NO_TIME, 3, 36),
], ids=["m1-k2", "m1-k3", "m2-k5", "bilinear-m1-k2", "bilinear-m1-no-time-k3",
        "bilinear-m2-no-time-k3"])
def test_each_test_field_is_lifted_once(monkeypatch, lift, chart0, k, solves):
    """A cold one-form or (0,2) lift solves the complete lift of each field
    of its pairing and of its holdout once, and no other vector lift, though
    above k = 2m the ladder's fields are also fields of coefficient degree
    <= 2.  The (0,2) residuals read those lifts again from the one-term
    table, and solve nothing."""
    right = L.vf_lift_solve
    lifted = []

    def counted(Y, kind, k, **split):
        lifted.append(Y)
        return right(Y, kind, k, **split)

    L.clear_lift_cache()
    monkeypatch.setattr(L, "vf_lift_solve", counted)
    lift(chart0, k)
    pairing = L._system((L._pairing, chart0, k))
    holdout = L._system((L._holdout, chart0, k))
    assert lifted == list(pairing.items) + list(holdout.items)
    assert len(lifted) == solves
    assert not any(Y in lifted[:n] for n, Y in enumerate(lifted))


def _one_terms(fields, kind):
    """The (direction, monomial, kind) of every term of every field, the
    monomial as the one-term table keys it."""
    return {(j, m, kind) for Y in fields for j, v in Y.components.items()
            for m in v._terms}


def _outcome(lift, *args):
    try:
        return lift(*args)
    except L.LiftError as exc:
        return str(exc)


@pytest.mark.parametrize("has_time", [True, False], ids=["time", "no-time"])
@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2)])
@pytest.mark.parametrize("kind", ["v", "c"])
def test_composed_vector_lift_is_the_public_solve(kind, m, k, has_time):
    """Summed from the one-term table, (phi X)^lift equals the public
    solve's lift of phi X, or is refused with its text, for every pairing
    and holdout field X.  The dt entry gives phi X a constant time
    component; the d/dz0_1 one a non-constant one, which the c-lift
    refuses."""
    L.clear_lift_cache()
    chart0 = ChartSpec(m, 0, has_time)
    fields = (L._pairing(chart0, k).items
              + L._system((L._holdout, chart0, k)).items)
    for seed in (0, 3):
        phi = FieldGen(seed).endo(chart0)
        if has_time:
            phi = phi + EndoField(chart0, {(TIME, TIME): 3, (TIME, Z): seed})
        for X in fields:
            Y = phi.apply_vector(X)
            composed = _outcome(L._vf_lift_composed, Y, kind, k)
            assert composed == _outcome(L.vf_lift_solve, Y, kind, k)
    L.clear_lift_cache()


@pytest.mark.parametrize("chart0,kind", [(C0, "v"), (C0, "c"),
                                         (ChartSpec(2, 0, False), "c")],
                         ids=["m1-time-v", "m1-time-c", "m2-c"])
def test_endo_lift_solves_each_one_term_field_once(monkeypatch, chart0, kind):
    """A cold (1,1) lift solves the lift of each distinct one-term field
    once: the test fields' complete lifts and the terms of every phi X,
    shared where they meet.  A second phi with the same terms solves
    nothing new."""
    right = L.vf_lift_solve
    solved = []

    def counted(Y, kind, k, **split):
        ((j, v),) = Y.components.items()
        ((m, c),) = v._terms.items()
        assert c == 1
        solved.append((Y.chart, j, m, kind, k))
        return right(Y, kind, k, **split)

    L.clear_lift_cache()
    monkeypatch.setattr(L, "vf_lift_solve", counted)
    phi = FieldGen(0).endo(chart0)
    L.t11_lift_solve(phi, kind, K)
    fields = (L._system((L._pairing, chart0, K)).items
              + L._system((L._holdout, chart0, K)).items)
    expected = {(chart0, *key, K) for key in (
        _one_terms(fields, "c")
        | _one_terms([phi.apply_vector(X) for X in fields], kind))}
    assert len(solved) == len(set(solved)) and set(solved) == expected
    assert L._vf_term_lift.cache_info().currsize == len(expected)
    L.t11_lift_solve(phi.scaled(Expr.imag_unit() + 2), kind, K)
    assert len(solved) == len(expected)
    L.clear_lift_cache()
    assert L._vf_term_lift.cache_info().currsize == 0


def test_one_term_table_keeps_each_lift_until_cleared(monkeypatch):
    """Each one-term field is solved once and read from the table after
    that; once clear_lift_cache() empties the table, it is solved again.
    The table's bound is `test_lift_caches_hold_their_bound_and_clear`'s."""
    right = L.vf_lift_solve
    solved = []

    def counted(Y, kind, k, **split):
        solved.append(Y)
        return right(Y, kind, k, **split)

    L.clear_lift_cache()
    monkeypatch.setattr(L, "vf_lift_solve", counted)
    fields = [VectorField(C0, {ZB: z ** d}) for d in range(5)]
    for X in fields:
        assert L._vf_lift_composed(X, "v", K) == right(X, "v", K)
    assert L._vf_lift_composed(fields[2].scaled(3), "v", K) == right(
        fields[2].scaled(3), "v", K)
    assert solved == fields
    assert L._vf_term_lift.cache_info().currsize == len(fields)
    L.clear_lift_cache()
    assert L._vf_term_lift.cache_info().currsize == 0
    L._vf_lift_composed(fields[0], "v", K)
    assert solved == fields + fields[:1]
    L.clear_lift_cache()


def test_a_refused_one_term_solve_stores_nothing(monkeypatch):
    """A one-term lift that fails its own holdout raises through the
    composed lift and leaves no entry; once the fault is gone the same
    term is solved and kept."""
    X = VectorField(C0, {Z: z})
    L.clear_lift_cache()
    with monkeypatch.context() as patch:
        # Z applied to the holdout function z^2*zb
        _wrong_scalar_lift(patch, "v", 2 * z ** 2 * zb)
        with pytest.raises(L.LiftError, match="holdout residual nonzero"):
            L._vf_lift_composed(X.scaled(2), "v", K)
        assert L._vf_term_lift.cache_info().currsize == 0
        with pytest.raises(L.LiftError, match="holdout residual nonzero"):
            L.t11_lift_solve(EndoField(C0, {(Z, Z): Expr.one()}), "v", K)
    before = L._vf_term_lift.cache_info()
    assert L._vf_lift_composed(X.scaled(2), "v", K) == L.vf_lift_solve(
        X.scaled(2), "v", K)
    after = L._vf_term_lift.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1,
                                              before.currsize + 1)
    L._vf_lift_composed(X, "v", K)
    assert L._vf_term_lift.cache_info().hits == after.hits + 1
    L.clear_lift_cache()


def test_residuals_zero_is_read_only_and_true():
    """A nonzero residual raises before a certificate exists, so a
    certificate stores no flag for it and always reads True."""
    assert "residuals_zero" not in L.SolveCertificate.__dataclass_fields__
    _, cert = L.vf_lift_solve_certified(VectorField(C0, {Z: z}), "v", 1)
    assert cert.residuals_zero is True
    with pytest.raises(AttributeError):
        cert.residuals_zero = False


def test_bilinear_holdout_size_counts_its_pair_equations():
    """Each certificate counts equations in its family's unit: for (0,2)
    lifts both sizes count ordered pairs of test fields."""
    L.clear_lift_cache()
    G = FieldGen(0).bilinear(C0)
    lifted, cert = L.t02_lift_solve_certified(G, "c", K)
    residuals = L.t02_defining_residuals(G, lifted, "c", K)
    assert (cert.family_size, cert.holdout_size) == (49, 34)
    assert cert.holdout_size == len(residuals)


def test_system_cache_holds_only_systems(monkeypatch):
    """After a lift of each op, every cache entry is one defining system:
    a vector lift's family and holdout, the pairing and its holdout."""
    L.clear_lift_cache()
    system = L._system
    entries = {}

    def recorded(key):
        entries[key] = system(key)
        return entries[key]

    monkeypatch.setattr(L, "_system", recorded)
    gen = FieldGen(0)
    for k in (2, 3):
        L.vf_lift_solve(gen.vector(C0), "v", k)
        L.of_lift_solve(gen.oneform(C0), "v", k)
        L.t11_lift_solve(gen.endo(C0), "v", k)
        L.t02_lift_solve(gen.bilinear(C0), "v", k)
    assert system.cache_info().currsize == len(entries)
    assert all(type(value) is L._System for value in entries.values())
    assert {key[0] for key in entries} == {
        L._vf_family, L._vf_holdout, L._pairing, L._holdout}


def test_each_op_names_its_positions(monkeypatch):
    """A system with a free position refuses each op with its positions'
    names.  With every position made free, each op names them all (the
    (1,1) and (0,2) lifts at their first row or column).  A certified lift
    builds no name.  The caches are warmed first, so the refusal is the
    op's own, not that of a vector lift it reads from the one-term table."""
    gen = FieldGen(5)
    coords = C0.extend(K).coordinates()
    cases = [
        # Each ladder top level first; the time component is pinned.
        (lambda Y: L.vf_lift_solve(Y, "c", K), gen.vector(C0),
         "vector c-lift", [f"U_{base}{r}_1" for base in ("z", "zb")
                           for r in range(K, -1, -1)]),
        (lambda w: L.of_lift_solve(w, "v", K), gen.oneform(C0),
         "one-form v-lift", [f"W_{c.name}" for c in coords]),
        (lambda w: L.of_lift_solve(w, "v", 3), gen.oneform(C0),
         "one-form v-lift",
         [f"W_{c.name}" for c in C0.extend(3).coordinates()]),
        (lambda p: L.t11_lift_solve(p, "v", K), gen.endo(C0),
         "(1,1)-tensor v-lift", [f"E_t__{b.name}" for b in coords]),
        (lambda G: L.t02_lift_solve(G, "v", K), gen.bilinear(C0),
         "(0,2)-tensor v-lift", [f"C_{c.name}__0" for c in coords]),
    ]
    certify = L._System.certify
    built = []

    def recording(self, rhs, candidate, what, name):
        return certify(self, rhs, candidate, what,
                       lambda p: built.append(p) or name(p))

    L.clear_lift_cache()
    with monkeypatch.context() as patch:
        patch.setattr(L._System, "certify", recording)
        for solve, field, _, _ in cases:
            solve(field)
    assert built == []
    with monkeypatch.context() as patch:
        patch.setattr(L._System, "free",
                      property(lambda self: tuple(range(self.width))))
        for solve, field, what, names in cases:
            with pytest.raises(L.LiftError) as refused:
                solve(field)
            assert str(refused.value) == (
                f"{what} solve: underdetermined system; free unknowns: "
                + ", ".join(names))
    L.clear_lift_cache()


def test_bounded_cache_evicts_the_least_recently_used():
    """Filled past `_SYSTEM_CACHE_SIZE` by a cheap builder, the system
    cache holds its bound: a hit builds nothing, and the entry left unused
    longest is the one built again."""
    built = []

    def build(n):
        built.append(n)
        return object()

    bound = L._SYSTEM_CACHE_SIZE
    L.clear_lift_cache()
    try:
        for n in range(bound):
            L._system((build, n))
        hit = L._system((build, 0))
        L._system((build, bound))
        assert L._system.cache_info().currsize == bound
        assert L._system((build, 0)) is hit and built == list(range(bound + 1))
        L._system((build, 1))
        assert built == list(range(bound + 1)) + [1]
    finally:
        L.clear_lift_cache()


def test_lift_caches_hold_their_bound_and_clear():
    """Each lift memory reports its named bound, holds no more, and
    clear_lift_cache() empties all three."""
    L.clear_lift_cache()
    w = OneForm(C0, {Z: z, ZB: z * zb})
    for k in (1, 2, 3):
        assert L.of_lift_solve(w, "v", k) == L.of_vertical_closed(w, k)
    memories = {L._complete_expr: L._COMPLETE_CACHE_SIZE,
                L._system: L._SYSTEM_CACHE_SIZE,
                L._vf_term_lift: L._VF_TERM_CACHE_SIZE}
    for memory, bound in memories.items():
        info = memory.cache_info()
        assert info.maxsize == bound and 0 < info.currsize <= bound
    L.clear_lift_cache()
    assert all(memory.cache_info().currsize == 0 for memory in memories)


@pytest.mark.parametrize("n,k", [(1, 1), (3, 4), (2, 40)])
def test_complete_lift_table_stores_one_entry_per_miss(n, k):
    """A cold complete lift of z^n to order k misses once per step, stores
    each step, and reads the step below once per miss; a repeat is all
    hits.  So the table's evictions are its misses minus its size."""
    L.clear_lift_cache()
    e = Expr.atom(Z, n)
    lifted = L._complete_expr(e, k)
    cold = L._complete_expr.cache_info()
    assert (cold.hits, cold.misses, cold.currsize) == (k - 1, k, k)
    assert L._complete_expr(e, k) == lifted
    warm = L._complete_expr.cache_info()
    assert (warm.hits, warm.misses, warm.currsize) == (cold.hits + k, k, k)
    L.clear_lift_cache()
    assert tuple(L._complete_expr.cache_info()) == (
        0, 0, L._COMPLETE_CACHE_SIZE, 0)


def test_complete_lift_caches_are_bounded_and_clear():
    L.clear_lift_cache()
    bound = L._COMPLETE_CACHE_SIZE
    for n in range(1, bound + 2):
        L._complete_expr(Expr.atom(Z, n), 1)
    info = L._complete_expr.cache_info()
    assert info.maxsize == bound
    assert info.currsize <= info.maxsize
    L.clear_lift_cache()
    assert L._complete_expr.cache_info().currsize == 0
