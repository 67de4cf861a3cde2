"""Certify, don't replay: each determined lift checks its closed-form
candidate against every row of its system and falls back to a solve
(called the replay below) only when the candidate fails.

A candidate is accepted only when the factorisation leaves no position
free, so the solved rows have at most one solution and a candidate that
meets every row is that solution.  These tests pin what follows from that:
the candidate route returns what the replay returns, a wrong candidate is
never returned, and a system with a free position refuses with the
replay's text whatever the candidate.
"""

import pytest

from liftcalc import cli
from liftcalc import lifts as L
from liftcalc.charts import ChartSpec
from liftcalc.fields import Bilinear, EndoField, OneForm, VectorField
from liftcalc.symkernel import TIME, Expr, PolyLinearFactor, anti, holo
from liftcalc.verify import FieldGen

C0 = ChartSpec(1, 0, True)
Z, ZB = holo(0, 1), anti(0, 1)
z, zb, t = Expr.atom(Z), Expr.atom(ZB), Expr.atom(TIME)

# (m, k, time line): k >= 5 once, t on two charts.
CHARTS = [(1, 2, False), (1, 3, True), (2, 2, True), (1, 6, False)]
CHART_IDS = [f"m{m}k{k}{'t' if has_time else ''}" for m, k, has_time in CHARTS]


def _replay_only(patch):
    """Send every lift to the replay, as if no candidate had passed."""
    def replay(self, rhs, candidate, names, what):
        return self.solve(rhs, names, what), False

    patch.setattr(L._System, "certify", replay)


def _inputs(chart0, seed):
    """A field of each op, with t-dependent terms and time entries where
    the chart has t and the lift kind keeps them."""
    gen = FieldGen(seed)
    Zf = gen.vector(chart0)
    w = gen.oneform(chart0, time_component=0)
    phi, G = gen.endo(chart0), gen.bilinear(chart0)
    if chart0.has_time:
        Zf = Zf + VectorField(chart0, {Z: t * z})
        w = w + OneForm(chart0, {ZB: t})
        phi = phi + EndoField(chart0, {(TIME, TIME): 3, (Z, TIME): z * zb})
        G = G + Bilinear(chart0, {(TIME, TIME): t, (TIME, Z): zb,
                                  (Z, TIME): zb})
    return Zf, w, phi, G


def _lifts(chart0, k, seed):
    """Every determined lift of the inputs, with its certificate: vectors
    and one-forms of kinds v, c and cv (every split), tensors v and c.  The
    v-lifts take a time component the c-lifts refuse."""
    Zf, w, phi, G = _inputs(chart0, seed)
    out = []
    for solve, field in ((L.vf_lift_solve_certified, Zf),
                         (L.of_lift_solve_certified, w)):
        out.append(solve(field, "c", k))
        out += [solve(field, "cv", k, r=r, s=k - r) for r in range(k + 1)]
        if chart0.has_time:
            field = field + type(field)(chart0, {TIME: 1 + t})
        out.append(solve(field, "v", k))
    for kind in ("v", "c"):
        out.append(L.t11_lift_solve_certified(phi, kind, k))
        out.append(L.t02_lift_solve_certified(G, kind, k))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m,k,has_time", CHARTS, ids=CHART_IDS)
def test_the_candidate_route_is_the_replay(monkeypatch, m, k, has_time,
                                           seed):
    """Values and certificates alike; the candidate route replays no lift,
    and the forced route checks none."""
    chart0 = ChartSpec(m, 0, has_time)
    L.clear_lift_cache()
    certified = _lifts(chart0, k, seed)
    info = L._certify_info()
    assert info.replayed == 0 and info.checked > len(certified)
    L.clear_lift_cache()
    with monkeypatch.context() as patch:
        _replay_only(patch)
        replayed = _lifts(chart0, k, seed)
    assert L._certify_info() == (0, info.checked)
    assert certified == replayed
    L.clear_lift_cache()


def _oneform_c_lift(system, k):
    """The right-hand sides, closed-form candidate and position names of a
    one-form c-lift at m = 1 with t and order `k` on `system`."""
    w = FieldGen(0).oneform(C0, time_component=0)
    coords = list(C0.extend(k).coordinates())
    rhs = [L._complete_expr(w.pair(X), k) for X in system.items]
    candidate = L._rank1_candidate(w, coords, L._lift_slots(False, "c", k,
                                                            None, None))
    return rhs, candidate, [f"W_{c.name}" for c in coords]


@pytest.mark.parametrize("k", [2, 3], ids=["all-solved", "ladder"])
def test_a_candidate_wrong_in_one_slot_is_never_returned(k):
    """Each slot in turn: the replay's values come back, not the
    candidate's, and they are the true candidate's."""
    system = L._system((L._pairing, C0, k))
    rhs, candidate, names = _oneform_c_lift(system, k)
    values, checked = system.certify(rhs, candidate, names, "test")
    assert values is candidate and checked
    for p in range(len(candidate)):
        wrong = list(candidate)
        wrong[p] = wrong[p] + z
        values, checked = system.certify(rhs, wrong, names, "test")
        assert not checked and values is not wrong
        assert values == system.solve(rhs, names, "test") == candidate


def test_a_wrong_candidate_falls_back_in_every_solver(monkeypatch):
    """Through each solver: with every candidate wrong in one slot, the
    lifts are the candidate route's, and each one is counted replayed."""
    chart0 = ChartSpec(1, 0, True)
    L.clear_lift_cache()
    expected = _lifts(chart0, 2, 0)
    L.clear_lift_cache()
    certify = L._System.certify

    def wrong(self, rhs, candidate, names, what):
        return certify(self, rhs, [*candidate[:-1], candidate[-1] + 1],
                       names, what)

    with monkeypatch.context() as patch:
        patch.setattr(L._System, "certify", wrong)
        assert _lifts(chart0, 2, 0) == expected
    assert L._certify_info().checked == 0
    L.clear_lift_cache()


def test_a_system_with_a_free_position_never_accepts_a_candidate():
    """At m = 1, k = 3 the fields of coefficient degree <= 1 leave the top
    level free.  The one-form's closed form meets every one of their rows,
    yet certify refuses it with the replay's text."""
    k = 3
    fields = L._vector_stage(C0, 0) + L._vector_stage(C0, 1)
    system = L._field_system(fields, C0, k)
    assert system.factor.free
    rhs, candidate, names = _oneform_c_lift(system, k)
    assert all(total.is_zero() for total in system.evaluate(rhs, candidate))
    with pytest.raises(L.LiftError) as replayed:
        system.solve(rhs, names, "one-form c-lift")
    with pytest.raises(L.LiftError) as certified:
        system.certify(rhs, candidate, names, "one-form c-lift")
    assert str(certified.value) == str(replayed.value) == (
        "one-form c-lift solve: underdetermined system; free unknowns: "
        "W_z3_1, W_zb3_1")
    L.clear_lift_cache()


@pytest.mark.parametrize("argv", [
    ["check", "all", "--m", "1", "--k", "2", "--seed", "0"],
    ["compare", "P333", "--m", "2", "--k", "3"],
], ids=["check-all", "compare"])
def test_no_production_route_reaches_the_fallback_solve(monkeypatch, capsys,
                                                       argv):
    """From cold caches, every lift of a check run and of a compare run is
    certified by check, so the fallback solve is never called: with it made
    to raise, both runs exit 0.  CI's replay count covers check runs
    only."""
    calls = []

    def refuse(self, rhs, names):
        calls.append(tuple(names))
        raise AssertionError("fallback solve reached")

    L.clear_lift_cache()
    monkeypatch.setattr(PolyLinearFactor, "solve", refuse)
    assert cli.main(argv) == 0
    assert calls == []
    capsys.readouterr()
    L.clear_lift_cache()


def test_certify_counts_reset_with_the_caches():
    L.clear_lift_cache()
    assert L._certify_info() == (0, 0)
    Y = VectorField(C0, {Z: z, TIME: 1})
    L.vf_lift_solve(Y, "c", 2)
    L.vf_lift_solve(Y, "c", 2)      # a public solve keeps nothing
    assert L._certify_info() == (2, 0)
    L.clear_lift_cache()
    assert L._certify_info() == (0, 0)


def test_evaluate_keeps_the_residual_sign():
    """A row reads ``sum(row[p] * values[p]) - rhs``: the residual is built
    from the right-hand side less the products and its sign turned."""
    system = L._System((), [{0: z, 1: Expr.one()}, {1: zb}], 2)
    assert list(system.evaluate([z, Expr.zero()], [zb, Expr.one()])) == [
        z * zb + 1 - z, zb]
    assert list(system.evaluate([z * zb + 1, zb], [zb, Expr.one()])) == [
        Expr.zero(), Expr.zero()]
