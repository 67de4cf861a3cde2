"""Certify or refuse: each determined lift checks its closed-form candidate
against every row of its system, and is refused when it cannot be proven
the one solution.

A candidate is accepted only when the elimination of the solved rows
leaves no position free, so those rows have at most one solution, and the
candidate meets every row, solved or only checked.  These tests pin what
follows from that: a wrong candidate is never returned, it is refused with
the first equation it fails, and a system with a free position refuses
with its free positions' names whatever the candidate.  Each certified
lift is checked against sympy's unique solution of the same rows in
``tests/test_sympy_oracle.py``.
"""

import re

import pytest

from liftcalc import lifts as L
from liftcalc.charts import ChartSpec
from liftcalc.fields import Bilinear, EndoField, OneForm, VectorField
from liftcalc.symkernel import TIME, Expr, anti, holo
from liftcalc.verify import FieldGen

C0 = ChartSpec(1, 0, True)
Z, ZB = holo(0, 1), anti(0, 1)
z, zb, t = Expr.atom(Z), Expr.atom(ZB), Expr.atom(TIME)


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


def _solves(chart0, k, seed):
    """Every determined lift of the inputs as ``(what, call)``: vectors and
    one-forms of kinds v, c and cv (every split), tensors v and c.  The
    v-lifts take a time component the c-lifts refuse."""
    Zf, w, phi, G = _inputs(chart0, seed)
    out = []
    for solve, field, op in ((L.vf_lift_solve_certified, Zf, "vector"),
                             (L.of_lift_solve_certified, w, "one-form")):
        def call(kind, field=field, solve=solve, **split):
            return lambda: solve(field, kind, k, **split)

        out.append((f"{op} c-lift", call("c")))
        out += [(f"{op} cv-lift", call("cv", r=r, s=k - r))
                for r in range(k + 1)]
        if chart0.has_time:
            field = field + type(field)(chart0, {TIME: 1 + t})
        out.append((f"{op} v-lift", call("v", field)))
    for kind in ("v", "c"):
        for op, solve, field in (("(1,1)", L.t11_lift_solve_certified, phi),
                                 ("(0,2)", L.t02_lift_solve_certified, G)):
            out.append((f"{op}-tensor {kind}-lift",
                        lambda s=solve, f=field, kind=kind: s(f, kind, k)))
    return out


def _oneform_c_lift(system, k):
    """The right-hand sides, closed-form candidate and position names of a
    one-form c-lift at m = 1 with t and order `k` on `system`."""
    w = FieldGen(0).oneform(C0, time_component=0)
    coords = list(C0.extend(k).coordinates())
    rhs = [L._complete_expr(w.pair(X), k) for X in system.items]
    candidate = L._rank1_candidate(w, coords, L._lift_slots(False, "c", k,
                                                            None, None))
    return rhs, candidate, lambda p: f"W_{coords[p].name}"


@pytest.mark.parametrize("k", [2, 3], ids=["all-solved", "ladder"])
def test_a_candidate_wrong_in_one_slot_is_never_returned(k):
    """Each slot in turn: the true candidate is certified, and one wrong in
    slot p is refused at the first row that reads p."""
    system = L._system((L._pairing, C0, k))
    rhs, candidate, name = _oneform_c_lift(system, k)
    assert system.certify(rhs, candidate, "test", name) is None
    for p in range(len(candidate)):
        wrong = list(candidate)
        wrong[p] = wrong[p] + z
        first = min(n for n, row in enumerate(system.rows) if p in row)
        with pytest.raises(L.LiftError) as refused:
            system.certify(rhs, wrong, "test", name)
        assert str(refused.value) == (
            f"test solve: closed form fails equation {first}")


def test_a_wrong_candidate_is_refused_in_every_solver(monkeypatch):
    """Through each solver, with every candidate wrong in its last slot:
    each lift is refused with its own name and the equation it fails.  The
    caches are warmed first, so the vector lifts that the other ops read
    from the one-term table are not solved again."""
    chart0 = ChartSpec(1, 0, True)
    L.clear_lift_cache()
    solves = _solves(chart0, 2, 0)
    for _, solve in solves:
        solve()
    certify = L._System.certify

    def wrong(self, rhs, candidate, what, name):
        return certify(self, rhs, [*candidate[:-1], candidate[-1] + 1],
                       what, name)

    with monkeypatch.context() as patch:
        patch.setattr(L._System, "certify", wrong)
        for what, solve in solves:
            with pytest.raises(L.LiftError) as refused:
                solve()
            assert re.fullmatch(re.escape(what)
                                + r" solve: closed form fails equation \d+",
                                str(refused.value))
    L.clear_lift_cache()


def test_a_system_with_a_free_position_never_accepts_a_candidate():
    """At m = 1, k = 3 the fields of coefficient degree <= 1 leave the top
    level free.  The one-form's closed form meets every one of their rows,
    yet certify refuses it and names the free positions."""
    k = 3
    fields = L._vector_stage(C0, 0) + L._vector_stage(C0, 1)
    system = L._field_system(fields, C0, k)
    assert system.free
    rhs, candidate, name = _oneform_c_lift(system, k)
    assert all(total.is_zero() for total in system.evaluate(rhs, candidate))
    with pytest.raises(L.LiftError) as refused:
        system.certify(rhs, candidate, "one-form c-lift", name)
    assert str(refused.value) == (
        "one-form c-lift solve: underdetermined system; free unknowns: "
        "W_z3_1, W_zb3_1")
    L.clear_lift_cache()


def test_evaluate_keeps_the_residual_sign():
    """A row reads ``sum(row[p] * values[p]) - rhs``: the residual is built
    from the right-hand side less the products and its sign turned."""
    system = L._System((), [{0: z, 1: Expr.one()}, {1: zb}], 2)
    assert list(system.evaluate([z, Expr.zero()], [zb, Expr.one()])) == [
        z * zb + 1 - z, zb]
    assert list(system.evaluate([z * zb + 1, zb], [zb, Expr.one()])) == [
        Expr.zero(), Expr.zero()]
