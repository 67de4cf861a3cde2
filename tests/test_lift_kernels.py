"""The lift hot paths against plain references.

`_derive` is the one derivation pass behind the complete step and the
gradient; the references below are the per-coordinate ``diff`` bodies it
replaced, and the pass must match them in value and in term-map insertion
order.  The k-step complete lift sums per-monomial lifts from one bounded
table; it must equal k passes of `_derive` in value.  The horizontal lifts
build only the frame fields they read; they must equal the same sums taken
over the whole `adapted_frame`.
"""

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liftcalc.charts import ChartSpec
from liftcalc.fields import ConnectionCoeffs, OneForm, ScalarField, VectorField
from liftcalc.lifts import (
    _complete_expr,
    adapted_frame,
    clear_lift_cache,
    gamma_gradient,
    of_horizontal,
    vf_horizontal,
)
from liftcalc.symkernel import (
    TIME,
    CoordId,
    Expr,
    GRat,
    Kind,
    _derive,
    anti,
    holo,
    parse,
)


def reference_complete_step(expr: Expr) -> Expr:
    """One complete-lift step, one ``diff`` and one product per coordinate."""
    out = Expr.zero()
    for coord in sorted(expr.coords(), key=lambda c: c.sort_key()):
        d = expr.diff(coord)
        if d.is_zero():
            continue
        if coord.kind == Kind.TIME:
            out = out + Expr.atom(TIME) * d
        else:
            shifted = CoordId(coord.kind, coord.level + 1, coord.index)
            out = out + Expr.atom(shifted) * d
    return out


def reference_gamma_gradient(expr: Expr) -> Expr:
    """The time-unscaled step, one ``diff`` and one product per coordinate."""
    out = expr.diff(TIME)
    for coord in sorted(expr.coords(), key=lambda c: c.sort_key()):
        if coord.kind == Kind.TIME:
            continue
        d = expr.diff(coord)
        if not d.is_zero():
            shifted = CoordId(coord.kind, coord.level + 1, coord.index)
            out = out + Expr.atom(shifted) * d
    return out


def _items(e: Expr) -> list:
    """The term map in insertion order, coefficients as integer triples."""
    return [(m, (c._a, c._b, c._d)) for m, c in e._terms.items()]


CHART = ChartSpec(2, 2, True)
_ATOMS = [TIME, holo(0, 1), holo(1, 1), holo(2, 1), holo(0, 2), anti(0, 1),
          anti(1, 2)]

_coeffs = st.builds(
    GRat,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)
_monomials = st.lists(
    st.tuples(st.sampled_from(_ATOMS), st.integers(min_value=1, max_value=3)),
    max_size=3)


def _build(terms) -> Expr:
    """Sum the terms with Expr ops, so cancellations and re-insertions shape
    the insertion order as they would in real use."""
    out = Expr.zero()
    for coeff, pairs in terms:
        term = Expr.constant(coeff)
        for atom, n in pairs:
            term = term * Expr.atom(atom, n)
        out = out + term
    return out


_exprs = st.lists(st.tuples(_coeffs, _monomials), max_size=7).map(_build)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_exprs)
def test_derivation_matches_the_diff_references(e):
    step = _derive(e, True)
    assert step == reference_complete_step(e)
    assert _items(step) == _items(reference_complete_step(e))
    grad = gamma_gradient(ScalarField(CHART, e)).value
    assert grad == reference_gamma_gradient(e)
    assert _items(grad) == _items(reference_gamma_gradient(e))


def test_derivation_keeps_the_order_of_a_cancelled_term():
    # d/dz0_1 and d/dz1_1 both reach z1_1*z2_1 and cancel there; z0_1*z3_1
    # and the t term come from the other buckets.
    e = parse("1/2*z1_1^2 - z0_1*z2_1 + t*z2_1 + z1_1*z2_1")
    for time_scaled, reference in ((True, reference_complete_step),
                                   (False, reference_gamma_gradient)):
        assert _items(_derive(e, time_scaled)) == _items(reference(e))


def _derived(e: Expr, k: int) -> Expr:
    for _ in range(k):
        e = _derive(e, True)
    return e


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_exprs, st.permutations(range(6)))
def test_complete_lift_table_matches_repeated_derivation(e, steps):
    # Each order of the steps reads some entries from a lower cached step
    # of the same monomial and some from steps cached by earlier examples.
    for k in steps:
        assert _complete_expr(e, k) == _derived(e, k)


ROOT = pathlib.Path(__file__).resolve().parent.parent

LIFT_1500_STEPS = """\
from liftcalc.charts import ChartSpec
from liftcalc.fields import ScalarField
from liftcalc.lifts import clear_lift_cache, fn_complete
from liftcalc.symkernel import parse
chart0 = ChartSpec(1, 0, True)
f = ScalarField(chart0, parse("z0_1 + (2 - i)*zb0_1"))
clear_lift_cache()
try:
    for steps in (1500, 1499, 1500):
        lifted = fn_complete(f, steps)
        assert lifted.chart == chart0.extend(steps)
        assert lifted.value == parse(f"z{steps}_1 + (2 - i)*zb{steps}_1")
finally:
    clear_lift_cache()
"""


def test_complete_lift_of_1500_steps_needs_no_recursion():
    """Run in a fresh interpreter: the lift names 3,000 coordinates, and
    the monomial slot registry, which only grows, would keep them for
    every later test in this process, near its limit of 4,096."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", LIFT_1500_STEPS], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_complete_lift_table_matches_derivation_out_of_order():
    # A high order first, then lower and higher ones read from its steps;
    # the bound and the clearing are test_lift_engine's.
    clear_lift_cache()
    e = parse("t*z0_1^2 + 3*zb0_1")
    for k in (40, 3, 39, 2):
        assert _complete_expr(e, k) == _derived(e, k)
    clear_lift_cache()


def _random_expr(rng: random.Random, atoms: list) -> Expr:
    out = Expr.zero()
    for _ in range(rng.randint(0, 3)):
        term = Expr.constant(GRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                  rng.randint(-2, 2)))
        for atom in rng.sample(atoms, rng.randint(0, 2)):
            term = term * Expr.atom(atom, rng.randint(1, 2))
        out = out + term
    return out


def _random_connection(rng: random.Random, target: ChartSpec) -> ConnectionCoeffs:
    base = list(ChartSpec(target.m, 0, True).coordinates())
    keys = [(r, i, j) for r in range(target.k)
            for i in range(1, target.m + 1) for j in range(1, target.m + 1)]
    gamma = {key: _random_expr(rng, base) for key in keys}
    gamma[keys[0]] = Expr.zero()
    gammabar = None
    if rng.random() < 0.5:
        gammabar = {key: _random_expr(rng, base) for key in keys}
        gammabar[keys[-1]] = Expr.zero()
    return ConnectionCoeffs(target, gamma, gammabar)


def test_horizontal_lifts_equal_the_adapted_frame_sums():
    for seed in range(12):
        rng = random.Random(seed)
        m, k = rng.randint(1, 3), rng.randint(1, 3)
        chart0 = ChartSpec(m, 0, True)
        target = chart0.extend(k)
        conn = _random_connection(rng, target)
        frame = adapted_frame(target, conn)
        atoms = list(chart0.coordinates())
        Z = VectorField(chart0, {c: _random_expr(rng, atoms) for c in atoms
                                 if c != TIME})
        Z = Z + VectorField(chart0, {TIME: Expr.constant(rng.randint(-2, 2))})
        w = OneForm(chart0, {c: _random_expr(rng, atoms) for c in atoms
                             if c != TIME})
        expected_vf = VectorField(target, {TIME: Z.component(TIME)})
        expected_of = OneForm.zero(target)
        for i in range(1, m + 1):
            expected_vf = (expected_vf
                           + frame.D[(0, i)].scaled(Z.component(holo(0, i)))
                           + frame.Dbar[(0, i)].scaled(Z.component(anti(0, i))))
            expected_of = (expected_of
                           + frame.eta[(k - 1, i)].scaled(w.component(holo(0, i)))
                           + frame.etabar[(k - 1, i)].scaled(w.component(anti(0, i))))
        assert vf_horizontal(Z, conn) == expected_vf
        assert of_horizontal(w, conn) == expected_of
