"""Scalar-field lifts: vertical, complete, mixed, horizontal.

The complete lift of a function is a derivation step applied k times, so a
binomial Leibniz rule holds exactly; the horizontal lift annihilates
time-free functions.  Oracles here are hand expansions, frozen.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcalc.charts import ChartSpec
from liftcalc.lifts import (
    LiftError,
    fn_complete,
    fn_complete_vertical,
    fn_horizontal,
    fn_vertical,
)
from liftcalc.fields import ScalarField
from liftcalc.symkernel import (
    Expr,
    TIME,
    _derive,
    binomial,
    format_expr,
    holo,
    parse,
)

C0 = ChartSpec(1, 0, False)
CT = ChartSpec(1, 0, True)
CT2 = ChartSpec(2, 0, True)


def sf(text, chart=C0):
    return ScalarField(chart, parse(text))


# -- frozen values -------------------------------------------------------------

def test_vertical_keeps_the_polynomial():
    f = sf("z0_1^2 + zb0_1")
    for k in (1, 2, 3):
        assert fn_vertical(f, k).value == f.value
        assert fn_vertical(f, k).chart == C0.extend(k)


@pytest.mark.parametrize("text,k,expected", [
    ("z0_1", 1, "z1_1"),
    ("z0_1", 2, "z2_1"),
    ("z0_1", 3, "z3_1"),
    ("z0_1^2", 1, "2*z0_1*z1_1"),
    ("z0_1^2", 2, "2*z0_1*z2_1 + 2*z1_1^2"),
    ("z0_1*zb0_1", 1, "z0_1*zb1_1 + z1_1*zb0_1"),
    ("1", 1, "0"),
    ("i", 2, "0"),
])
def test_complete_frozen(text, k, expected):
    assert format_expr(fn_complete(sf(text), k).value) == \
        format_expr(parse(expected))


def test_complete_on_time_chart_scales_t():
    # the derivation step sends t to itself, coordinates up one level
    f = sf("t*z0_1", CT)
    assert fn_complete(f, 1).value == parse("t*z1_1 + t*z0_1")


def test_complete_vertical_mixed():
    f = sf("z0_1^2")
    g = fn_complete_vertical(f, 1, 1)
    # one derivation step, then one vertical step on top
    assert g.chart == C0.extend(2)
    assert g.value == parse("2*z0_1*z1_1")


def test_complete_vertical_endpoints():
    f = sf("z0_1^3 + zb0_1")
    assert fn_complete_vertical(f, 2, 0).value == fn_complete(f, 2).value
    assert fn_complete_vertical(f, 0, 2).value == fn_vertical(f, 2).value


def test_complete_vertical_order_is_complete_then_vertical():
    # (f^{c})^{v} lives on the order-2 chart but only uses levels <= 1
    f = sf("z0_1")
    g = fn_complete_vertical(f, 1, 1)
    assert g.value == parse("z1_1")


# -- horizontal ----------------------------------------------------------------

def test_horizontal_kills_time_free_functions():
    for text in ("z0_1", "z0_1^2*zb0_1", "i*zb0_1 + 3"):
        f = sf(text, CT)
        assert fn_horizontal(f, 1).value.is_zero()
        assert fn_horizontal(f, 2).value.is_zero()


def test_horizontal_of_t():
    assert fn_horizontal(sf("t", CT), 1).value == parse("t - 1")
    assert fn_horizontal(sf("t", CT), 3).value == parse("t - 1")


def test_horizontal_frozen_mixed():
    # f = t*z0_1: complete lift at k=1 is t*z1_1 + t*z0_1, the k=0 gradient
    # correction removes t*z1_1 + z0_1... frozen from a hand expansion:
    f = sf("t*z0_1", CT)
    assert fn_horizontal(f, 1).value == parse("t*z0_1 - z0_1")


def test_horizontal_requires_time_chart():
    with pytest.raises(LiftError):
        fn_horizontal(sf("z0_1"), 1)


def test_horizontal_is_additive():
    f = sf("t^2*z0_1", CT)
    g = sf("t*zb0_1 + z0_1", CT)
    fg = ScalarField(CT, f.value + g.value)
    assert fn_horizontal(fg, 2).value == \
        fn_horizontal(f, 2).value + fn_horizontal(g, 2).value


# -- the binomial Leibniz rule ----------------------------------------------------

_texts = st.sampled_from([
    "z0_1", "zb0_1", "z0_1^2", "z0_1*zb0_1", "t", "t*z0_1",
    "i*z0_1 + 2", "t^2 + zb0_1", "z0_2*zb0_1", "1/2*z0_1^2*z0_2",
])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_texts, _texts, st.integers(min_value=1, max_value=3))
def test_complete_lift_binomial_leibniz(ftext, gtext, k):
    f = sf(ftext, CT2)
    g = sf(gtext, CT2)
    fg = ScalarField(CT2, f.value * g.value)
    lhs = fn_complete(fg, k).value
    rhs = Expr.zero()
    for j in range(k + 1):
        rhs = rhs + (fn_complete_vertical(f, k - j, j).value
                     * fn_complete_vertical(g, j, k - j).value
                     ).scale(binomial(k, j))
    assert lhs == rhs


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_texts, st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
def test_complete_vertical_swaps_with_itself(ftext, r, s):
    # applying the vertical steps before or after the derivation steps
    # lands on the same function
    f = sf(ftext, CT2)
    a = fn_vertical(fn_complete(f, r), s) if r + s else f
    b = fn_complete(fn_vertical(f, s), r) if r + s else f
    assert a.value == b.value


def test_vertical_is_multiplicative():
    f = sf("z0_1^2 + i")
    g = sf("zb0_1")
    fg = ScalarField(C0, f.value * g.value)
    assert fn_vertical(fg, 2).value == \
        fn_vertical(f, 2).value * fn_vertical(g, 2).value


def test_complete_step_refuses_to_shift_past_the_top_level():
    # A level fills 20 bits of the packed coordinate code.
    top = holo(2 ** 20 - 1, 1)
    with pytest.raises(ValueError) as err:
        _derive(Expr.atom(top), True)
    assert str(err.value) == "cannot shift a coordinate beyond level 1048575"
    assert _derive(Expr.atom(holo(2 ** 20 - 2, 1)), True) == Expr.atom(top)
