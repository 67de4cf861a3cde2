"""Kernel-level tests: Gaussian-rational arithmetic, the polynomial ring,
parsing/printing, differentiation, conjugation, and the exact linear solver.
"""

import heapq
import math
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liftcalc import symkernel
from liftcalc.charts import ChartSpec
from liftcalc.symkernel import (
    TIME,
    CoordId,
    ExactDivisionError,
    Expr,
    GRat,
    InconsistentSystemError,
    Kind,
    ParseError,
    PolyLinearFactor,
    SymKernelError,
    UnderdeterminedError,
    _accumulate,
    _add_product,
    _decode,
    _derive,
    _expr,
    _mono_decode,
    _mono_order_key,
    _TOKEN_RE,
    _tokens,
    anti,
    binomial,
    divide_exact,
    format_expr,
    holo,
    mono_degree,
    mono_div,
    mono_mul,
    parse,
)

Z01 = holo(0, 1)
Z02 = holo(0, 2)
ZB01 = anti(0, 1)
Z11 = holo(1, 1)


# -- GRat ---------------------------------------------------------------------

def test_grat_exact_arithmetic():
    a = GRat(Fraction(1, 3), Fraction(1, 2))
    b = GRat(Fraction(2, 3), Fraction(-1, 2))
    assert a + b == GRat(1, 0)
    assert a - a == GRat(0, 0)
    assert (a * b).re == Fraction(1, 3) * Fraction(2, 3) + Fraction(1, 4)


def test_grat_imag_unit_squares_to_minus_one():
    i = GRat(0, 1)
    assert i * i == GRat(-1, 0)
    assert i ** 4 == GRat(1, 0)


def test_grat_division_is_exact():
    a = GRat(Fraction(3, 7), Fraction(-2, 5))
    assert (a / a) == GRat(1, 0)
    assert a * a.inverse() == GRat(1, 0)
    with pytest.raises(ZeroDivisionError):
        GRat(1, 0).__truediv__(GRat(0, 0))


def test_grat_conjugate():
    a = GRat(Fraction(1, 2), Fraction(3, 4))
    assert a.conjugate() == GRat(Fraction(1, 2), Fraction(-3, 4))
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


# GRat arithmetic hands an operand it does not know to that operand's
# reflected method, so an Expr operand works on either side.
@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_grat_defers_to_expr_operands(op):
    half, z = GRat(Fraction(1, 2)), Expr.atom(Z01)
    apply = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
             "*": lambda x, y: x * y}[op]
    grat_first, expr_first = apply(half, z), apply(z, half)
    assert isinstance(grat_first, Expr) and isinstance(expr_first, Expr)
    assert grat_first == apply(Expr.constant(half), z)
    assert expr_first == apply(z, Expr.constant(half))
    if op == "-":
        assert grat_first == -expr_first
    else:
        assert grat_first == expr_first


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_grat_refuses_foreign_operands(op):
    apply = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
             "*": lambda x, y: x * y}[op]
    for left, right in [(GRat(1), "x"), ("x", GRat(1)),
                        (GRat(1), 1.5), (1.5, GRat(1))]:
        with pytest.raises(TypeError):
            apply(left, right)


@pytest.mark.parametrize("value", [0.1, 0.5, 1j, "1/2", None],
                         ids=["float", "exact float", "complex", "str", "None"])
def test_grat_takes_only_int_and_fraction_parts(value):
    """A float is not read as its binary fraction, nor a string parsed: the
    constructor refuses what ``from_value`` refuses, with the same text."""
    text = f"cannot interpret {value!r} as a Gaussian rational"
    for make in (lambda: GRat(value), lambda: GRat(1, value),
                 lambda: GRat(Fraction(1, 2), value), lambda: GRat.from_value(value),
                 lambda: Expr.from_value(value)):
        with pytest.raises(TypeError) as err:
            make()
        assert str(err.value) == text
    assert GRat(True, Fraction(3, 6)) == GRat(1, Fraction(1, 2))
    assert (GRat(3, -4)._a, GRat(3, -4)._b, GRat(3, -4)._d) == (3, -4, 1)


# -- GRat against a two-Fraction reference -------------------------------------

def _assert_normal(g):
    """GRat's normal form: d > 0, gcd(a, b, d) == 1, zero is (0, 0, 1)."""
    a, b, d = g._a, g._b, g._d
    assert d > 0
    assert math.gcd(a, b, d) == 1
    if not g:
        assert (a, b, d) == (0, 0, 1)


def _ref(x):
    """A GRat, Fraction or int as its (re, im) pair of Fractions."""
    if isinstance(x, GRat):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _ref_pow(x, e):
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = _ref_mul(out, x)
    return out


_wide_rats = st.fractions(min_value=-50, max_value=50, max_denominator=40)
_grats = st.builds(GRat, _wide_rats, _wide_rats)
_operands = st.one_of(_grats, _wide_rats, st.integers(min_value=-20, max_value=20))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_grats, _operands, st.integers(min_value=0, max_value=5))
def test_grat_matches_fraction_reference(x, y, e):
    rx, ry = _ref(x), _ref(y)
    checks = [
        (x + y, (rx[0] + ry[0], rx[1] + ry[1])),
        (y + x, (rx[0] + ry[0], rx[1] + ry[1])),
        (x - y, (rx[0] - ry[0], rx[1] - ry[1])),
        (y - x, (ry[0] - rx[0], ry[1] - rx[1])),
        (x * y, _ref_mul(rx, ry)),
        (y * x, _ref_mul(rx, ry)),
        (-x, (-rx[0], -rx[1])),
        (x.conjugate(), (rx[0], -rx[1])),
        (x ** e, _ref_pow(rx, e)),
    ]
    if any(ry):
        checks.append((x / y, _ref_mul(rx, _ref_inverse(ry))))
    if any(rx):
        checks.append((x.inverse(), _ref_inverse(rx)))
        checks.append((y / x, _ref_mul(ry, _ref_inverse(rx))))
    for got, want in checks:
        assert isinstance(got, GRat)
        assert (got.re, got.im) == want
        _assert_normal(got)
    _assert_normal(x)
    assert (x == y) == (rx == ry)
    assert bool(x) == any(rx)
    assert (x.im == 0) == (not rx[1])


def test_grat_normal_form_examples():
    assert (GRat(0)._a, GRat(0)._b, GRat(0)._d) == (0, 0, 1)
    half = GRat(Fraction(1, 2), Fraction(3, 4))
    assert (half._a, half._b, half._d) == (2, 3, 4)
    zero = half - half
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert GRat(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        GRat(0).inverse()
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / GRat(0)


# -- hash/equality contract ---------------------------------------------------

@st.composite
def _numbers(draw):
    """One value, drawn from a small pool so that equal pairs are common,
    as an int, a Fraction, a GRat or a constant Expr."""
    re = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                               Fraction(1, 2), Fraction(-3, 2), Fraction(2)]))
    im = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]))
    forms = [GRat(re, im), Expr.constant(GRat(re, im))]
    if not im:
        forms.append(re)
        if re.denominator == 1:
            forms.append(int(re))
    return draw(st.sampled_from(forms))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_numbers(), _numbers())
def test_equal_values_hash_equal(x, y):
    assert (x == y) == (y == x)
    if x == y:
        assert hash(x) == hash(y)


def test_hash_contract_examples():
    half = Fraction(1, 2)
    assert GRat(half) == half and hash(GRat(half)) == hash(half)
    assert Expr.constant(3) == 3 and hash(Expr.constant(3)) == hash(3)
    assert Expr.constant(half) == GRat(half)
    assert hash(Expr.constant(half)) == hash(GRat(half)) == hash(half)
    assert hash(Expr.zero()) == hash(0)
    assert len({GRat(half), half, Expr.constant(half)}) == 1


# -- coordinates --------------------------------------------------------------

def test_coord_names():
    assert Z01.name == "z0_1"
    assert ZB01.name == "zb0_1"
    assert holo(3, 2).name == "z3_2"
    assert TIME.name == "t"


def test_coord_sort_order_time_holo_anti():
    coords = [anti(0, 1), holo(1, 1), TIME, holo(0, 2), holo(0, 1)]
    ordered = sorted(coords, key=lambda c: c.sort_key())
    assert ordered == [TIME, holo(0, 1), holo(0, 2), holo(1, 1), anti(0, 1)]


def test_coord_conjugate_swaps_kind():
    assert Z01.conjugate() == ZB01
    assert ZB01.conjugate() == Z01
    # the real coordinate is its own conjugate
    assert TIME.conjugate() == TIME


def test_coord_validation():
    with pytest.raises(ValueError):
        CoordId(Kind.HOLO, -1, 1)
    with pytest.raises(ValueError):
        CoordId(Kind.HOLO, 0, 0)
    with pytest.raises(ValueError):
        CoordId(Kind.TIME, 1, 1)


# A level or an index fills 20 bits of the packed code.
_LIMIT = 2 ** 20 - 1


@pytest.mark.parametrize("kind,level,index,text", [
    (Kind.HOLO, _LIMIT + 1, 1, f"coordinate level {_LIMIT + 1} or index 1 "
                               f"exceeds the limit {_LIMIT}"),
    (Kind.ANTI, 3, _LIMIT + 2, f"coordinate level 3 or index {_LIMIT + 2} "
                               f"exceeds the limit {_LIMIT}"),
])
def test_coord_refuses_levels_and_indices_out_of_range(kind, level, index, text):
    with pytest.raises(ValueError) as err:
        CoordId(kind, level, index)
    assert str(err.value) == text


def test_coord_accepts_the_largest_level_and_index():
    top = anti(_LIMIT, _LIMIT)
    assert top.name == f"zb{_LIMIT}_{_LIMIT}"
    assert sorted([top, holo(_LIMIT, _LIMIT), TIME, anti(0, 1)],
                  key=CoordId.sort_key) == [TIME, holo(_LIMIT, _LIMIT),
                                            anti(0, 1), top]
    assert format_expr(parse(f"z{_LIMIT}_1*zb3_{_LIMIT} + z0_1")) == (
        f"z{_LIMIT}_1*zb3_{_LIMIT} + z0_1")


# -- Expr ring ---------------------------------------------------------------

def test_expr_basic_identities():
    x = Expr.atom(Z01)
    assert (x - x).is_zero()
    assert (x * Expr.zero()).is_zero()
    assert x * Expr.one() == x
    assert x + 0 == x


def test_expr_imag_unit():
    i = Expr.imag_unit()
    assert i * i == Expr.from_value(-1)
    assert format_expr(i) == "i"


def test_expr_powers():
    x = Expr.atom(Z01)
    assert x ** 0 == Expr.one()
    assert x ** 3 == x * x * x
    assert Expr.atom(Z01, 3) == x ** 3
    with pytest.raises(ValueError):
        x ** -1


def test_expr_diff():
    x = Expr.atom(Z01)
    y = Expr.atom(Z02)
    f = x ** 2 * y + 3 * x
    assert f.diff(Z01) == 2 * x * y + 3
    assert f.diff(Z02) == x ** 2
    assert f.diff(Z11).is_zero()


def test_expr_mixed_partials_commute():
    f = parse("z0_1^3*zb0_1^2 + i*z0_1*z0_2")
    assert f.diff(Z01).diff(ZB01) == f.diff(ZB01).diff(Z01)


def test_expr_conjugate_swaps_coordinates():
    f = parse("i*z0_1 + 2*zb0_1^2")
    g = f.conjugate()
    assert g == parse("-i*zb0_1 + 2*z0_1^2")
    assert g.conjugate() == f


def test_expr_conjugate_fixes_time():
    assert parse("t*z0_1").conjugate() == parse("t*zb0_1")


def test_expr_conjugate_reorders_mixed_monomials():
    # Swapping kinds moves a coordinate past the other kind's, so each
    # conjugated monomial decodes in canonical order and is the packed int
    # its pairs encode to.
    f = parse("z0_1*zb0_2 + t*z1_1^2*zb0_1 - i*zb2_1*z0_3")
    g = f.conjugate()
    assert g == parse("zb0_1*z0_2 + t*zb1_1^2*z0_1 + i*z2_1*zb0_3")
    assert format_expr(g) == "t*z0_1*zb1_1^2 + z0_2*zb0_1 + i*z2_1*zb0_3"
    for m in g._terms:
        pairs = _mono_decode(m)
        keys = [coord.sort_key() for coord, _ in pairs]
        assert keys == sorted(keys) and symkernel._mono_encode(pairs) == m


# -- parse / format ----------------------------------------------------------

def test_parse_canonical_reordering():
    # printing follows the fixed coordinate order, not input order
    assert format_expr(parse("zb0_1 + z0_1")) == "z0_1 + zb0_1"


@pytest.mark.parametrize("text", [
    "0",
    "1",
    "i",
    "z0_1",
    "t",
    "2*z0_1",
    "z0_1 + zb0_1",
    "z0_1^2",
    "1/2*z1_1",
    "(1 + i)*z0_1",
    "-z0_1 - 1",
    "t^2*z0_1 - i",
    "3/7 + 2/7*i",
    "z0_1*z0_2*zb0_2",
])
def test_parse_format_round_trip(text):
    e = parse(text)
    assert parse(format_expr(e)) == e


def test_format_deterministic_term_order():
    e = parse("z1_1 + z0_1 + t + zb0_1")
    assert format_expr(e) == "t + z0_1 + z1_1 + zb0_1"


def test_format_refuses_coefficients_too_large_to_print():
    # 14,280 bits print in under the interpreter's 4,300-digit limit
    assert len(format_expr(Expr.constant(2 ** 14280 - 1))) == 4299
    for value in (2 ** 14280, Fraction(3, 2 ** 14280),
                  Expr.atom(Z01).scale(GRat(1, 2 ** 14280))):
        with pytest.raises(SymKernelError) as err:
            format_expr(Expr.from_value(value))
        assert str(err.value) == ("coefficient of 14281 bits is too large to "
                                  "print (limit 14280)")


def test_parse_arithmetic():
    assert parse("(z0_1 + 1)^2") == parse("z0_1^2 + 2*z0_1 + 1")
    assert parse("(1+i)*(1-i)") == Expr.from_value(2)
    assert parse("z0_1 - z0_1").is_zero()


_ERROR_CHART = ChartSpec(1, 1, True)


# Every ParseError text, at the position the parser reports (read on the
# chart above, which holds t, z0_1, zb0_1, z1_1 and zb1_1).  Texts and
# positions are part of the parser's interface (the CLI prints them), so
# they are pinned exactly.
@pytest.mark.parametrize("bad,pos,message", [
    pytest.param(bad, pos, message, id=f"{bad}-{pos}")
    for bad, pos, message in [
        ("z0_1 +", 6, "unexpected end of input"),
        ("(z0_1", 5, "expected ')'"),
        ("z0_1 + )", 7, "unexpected token ')'"),
        ("^2", 0, "unexpected token '^'"),
        ("(z0_1+zb0_1+z0_1*zb0_1+1)^200", 26,
         "power of degree 400 exceeds the limit 64"),
        ("1/0", 2, "zero denominator"),
        ("1/x", 2, "unexpected character 'x'"),
        ("1/t", 2, "expected a denominator"),
        ("z0_1^-1", 5, "negative exponent"),
        ("z0_1^x", 5, "unexpected character 'x'"),
        ("z0_1^ t", 6, "expected a natural-number exponent"),
        ("q", 0, "unexpected character 'q'"),
        ("z0_1 z0_2", 5, "unexpected trailing input"),
        ("2 * (z0_1 + z2_1)", 12, "coordinate z2_1 is not in the chart"),
        ("t\u00e9 + 1", 0, "unexpected character 't\u00e9 +'"),
        ("(1 + 2)^2^3", 9, "unexpected trailing input"),
        ("2/3/4", 3, "unexpected trailing input"),
        ("--z0_1", 1, "unexpected token '-'"),
    ]])
def test_parse_error_positions(bad, pos, message):
    with pytest.raises(ParseError) as err:
        parse(bad, _ERROR_CHART)
    assert err.value.position == pos
    assert str(err.value) == f"{message} (at position {pos})"


@pytest.mark.parametrize("bad,pos", [
    ("z1048576_1*zb3_1048577 + z0_1", 0),
    ("z0_1 + zb3_1048576^2", 7),
    ("2*(t + z0_01048576)", 7),
])
def test_parse_refuses_coordinates_out_of_range(bad, pos):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.position == pos
    assert str(err.value) == (f"coordinate level or index exceeds the limit "
                              f"1048575 (at position {pos})")


def test_parse_refuses_powers_beyond_the_degree_limit():
    for text in ("z0_1^64", "(z0_1^8*zb0_1^8)^4", "z0_1 ^ 64"):
        assert parse(text).degree() == 64
    for text, pos, degree in [("z0_1^65", 5, 65), ("(z0_1^8*zb0_1^8)^5", 17, 80),
                              ("(z0_1+zb0_1^2)^33", 15, 66), ("z0_1 ^ 65", 7, 65)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.position, str(err.value)) == (
            pos, f"power of degree {degree} exceeds the limit 64 (at position {pos})")
    assert parse("(1+i)^200") == parse("(2*i)^100")


@pytest.mark.parametrize("bad,pos,message", [
    ("(3/2)^20000*z0_1", 6, "power of 40000 coefficient bits exceeds the limit 4096"),
    ("(3/2)^2000000", 6, "power of 4000000 coefficient bits exceeds the limit 4096"),
    ("2^2049", 2, "power of 4098 coefficient bits exceeds the limit 4096"),
    ("((3/2)^2000)^3", 13, "power of 9510 coefficient bits exceeds the limit 4096"),
    ("i^5000", 2, "power of 5000 coefficient bits exceeds the limit 4096"),
    ("i^4097", 2, "power of 4097 coefficient bits exceeds the limit 4096"),
])
def test_parse_refuses_constant_powers_beyond_the_bit_limit(bad, pos, message):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert (err.value.position, str(err.value)) == (
        pos, f"{message} (at position {pos})")


def test_parse_accepts_constant_powers_within_the_bit_limit():
    assert parse("(3/2)^2048") == Expr.constant(Fraction(3 ** 2048, 2 ** 2048))
    assert parse("2^2048") == Expr.constant(2 ** 2048)
    assert parse("i^4095") == parse("-i")
    assert parse("i^4096*z0_1") == parse("z0_1")
    assert parse("2*i ^ 3") == parse("-2*i")
    # The largest accepted powers still print.
    for text in ("(3/2)^2048", "(1 + i)^4096", "(3/2 + 5/4*i)^1365"):
        assert parse(format_expr(parse(text))) == parse(text)


@pytest.mark.parametrize("bad,pos,message", [
    ("(3/2)^2048*(3/2)^2048*(3/2)^2048*(3/2)^2048*(3/2)^2048*z0_1", 22,
     "coefficient of 9739 bits exceeds the limit 8192"),
    ("z0_1 + (3/2)^2048*(3/2)^2048*((3/2)^2048*z0_1)", 29,
     "coefficient of 9739 bits exceeds the limit 8192"),
    ("((3/2)^2000+z0_1)*((3/2)^2000+z0_1)*((3/2)^2000+z0_1)", 36,
     "coefficient of 9510 bits exceeds the limit 8192"),
    ("(1/3)^2048*z0_1 + (1/5)^1365*z0_1 + (1/7)^1365*z0_1", 36,
     "coefficient of 10248 bits exceeds the limit 8192"),
    ("2^2048*2^2048*2^2048*2^2048*z0_1", 21,
     "coefficient of 8193 bits exceeds the limit 8192"),
    ("9" * 2500 + "*z0_1", 0, "coefficient of 8305 bits exceeds the limit 8192"),
], ids=["factors", "single-term-group", "product-of-sums", "sum-of-terms",
        "number-factors", "2500-digit-number"])
def test_parse_refuses_coefficients_beyond_the_bit_limit(bad, pos, message):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert (err.value.position, str(err.value)) == (
        pos, f"{message} (at position {pos})")


def test_parse_accepts_coefficients_within_the_bit_limit():
    two = parse("(3/2)^2048*(3/2)^2048*z0_1")
    assert two == parse("z0_1") * Expr.constant(Fraction(3 ** 4096, 2 ** 4096))
    assert parse(format_expr(two)) == two
    # The budget holds for the reduced coefficient, not the folded factors.
    assert parse("(2/3)^2048*(3/2)^2048*(2/3)^2048*(3/2)^2048*z0_1") \
        == parse("z0_1")
    assert parse("(3/2)^2048*z0_1 - (3/2)^2048*z0_1").is_zero()


@pytest.mark.parametrize("bad,pos,message", [
    ("(z0_1+z0_2+zb0_1+zb0_2+t+1)^14", 28,
     "expansion of 11628 terms exceeds the limit 10000"),
    ("(z0_1+z0_2+z0_3+zb0_1+zb0_2+zb0_3+t+1)^12", 39,
     "expansion of 50388 terms exceeds the limit 10000"),
    ("(z0_1+z0_2+zb0_1+zb0_2+t+1)^5*(z0_1+z0_2+zb0_1+zb0_2+t+1)^5", 30,
     "expansion of 63504 terms exceeds the limit 10000"),
], ids=["power-5-atoms", "power-7-atoms", "product-of-powers"])
def test_parse_refuses_expansions_beyond_the_term_limit(bad, pos, message):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert (err.value.position, str(err.value)) == (
        pos, f"{message} (at position {pos})")


def test_parse_accepts_expansions_within_the_term_limit():
    # C(5 + 6, 6) = 462 monomials of degree <= 6 in five atoms.
    assert len(parse("(z0_1+z0_2+zb0_1+zb0_2+t+1)^6")._terms) == 462
    # Few terms bound a power of a many-atom base: 17 here, not C(68, 64).
    assert len(parse("(z0_1*z0_2*zb0_1*zb0_2 + 1)^16")._terms) == 17
    assert len(parse("(z0_1+1)^64*(zb0_1+1)^64")._terms) == 65 * 65


@pytest.mark.parametrize("bad,pos,message", [
    ("2\u00b2", 1, "unexpected character '\u00b2'"),
    ("z\u0663_1", 0, "unexpected character 'z\u0663_1'"),
    ("z0_1^\u00b2", 5, "unexpected character '\u00b2'"),
    ("1/\u0663", 2, "unexpected character '\u0663'"),
    ("z0_0 + 1", 0, "unexpected character 'z0_0'"),
    ("1" * 5000, 0, "number too long"),
    # A number too long is refused where its digits start, with or without
    # a denominator after it.
    ("1" * 5000 + "/2*z0_1", 0, "number too long"),
    ("1" * 5000 + "*z0_1", 0, "number too long"),
    ("2/" + "1" * 5000, 2, "number too long"),
    ("z0_1^" + "1" * 5000, 5, "number too long"),
], ids=["superscript-digit", "arabic-indic-level", "superscript-exponent",
        "arabic-indic-denominator", "zero-index", "5000-digit-number",
        "5000-digit-numerator", "5000-digit-coefficient",
        "5000-digit-denominator", "5000-digit-exponent"])
def test_parse_refuses_non_ascii_digits_and_malformed_numbers(bad, pos, message):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert (err.value.position, str(err.value)) == (
        pos, f"{message} (at position {pos})")


def _nested(depth: int, inner: str = "z0_1") -> str:
    return "(" * depth + inner + ")" * depth


@pytest.mark.parametrize("bad,pos", [
    (_nested(101), 100),
    (_nested(1000), 100),
    ("z0_1 + " + _nested(101, "1/0"), 107),
    ("(1 + i)*" + _nested(101), 108),
    ("(" * 50 + "z0_1)^2*" + _nested(52) + ")" * 49, 109),
], ids=["one-past-the-limit", "1000-deep", "before-an-inner-error",
        "after-a-group-token", "nested-after-a-closed-group"])
def test_parse_refuses_nesting_beyond_the_depth_limit(bad, pos):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert (err.value.position, str(err.value)) == (
        pos, f"nesting depth 101 exceeds the limit 100 (at position {pos})")


def test_parse_accepts_nesting_at_the_depth_limit():
    assert parse(_nested(100)) == parse("z0_1")
    # Sibling groups do not add up; a group token is not a nesting level.
    assert parse(_nested(100) + "*" + _nested(100, "(1 + i)")) \
        == parse("(1 + i)*z0_1")
    # An error inside the limit keeps its own text and position.
    with pytest.raises(ParseError) as err:
        parse(_nested(100, "1/0"))
    assert (err.value.position, str(err.value)) == (
        102, "zero denominator (at position 102)")


def test_parse_keeps_unicode_whitespace():
    assert parse("z0_1\u00a0+\u20031") == parse("z0_1 + 1")


def test_parse_rejects_unknown_token():
    with pytest.raises(ParseError):
        parse("q + 1")


# -- parenthesized Gaussian constants -------------------------------------------
#
# "(3/2 + 5*i)" is one factor token; the same constant with "+ 0" before
# the ")" is not, and is read as a parenthesized sum.

_BIG = "9" * 640 + "/" + "7" * 640 + " - " + "8" * 640 + "*i"

_GROUP_SHAPES = ["(3 + i)", "(3 - i)", "(3/2 + i)", "(10 + 15/2*i)",
                 "(2/4 - 6/8*i)", "(0 + 5*i)", "(0 - 7/3*i)",
                 "(007/010 + 03*i)", "( 3 /2\t+\u00a05 / 3 * i )",
                 "(1 - 1*i)", f"({_BIG})"]

_GROUP_CONTEXTS = ["{g}", "-{g}*z0_1 + zb0_1", "z0_1 + {g}*zb0_1*{g} - {g}*z0_1",
                   "t*{g}*z0_1^2 - (z0_1 + {g})*zb0_1", "{g}^0", "{g}^3*t + 2",
                   "2*{g}^2*z0_1 + t*{g} - {g}^1*z0_1"]


def _group_kinds(text):
    # "i" is a "g" token too; a group starts with its "(".
    return [tok[0] for tok in _tokens(text)
            if tok[0] in ("g", "(") and text[tok[1]] == "("]


@pytest.mark.parametrize("shape", _GROUP_SHAPES,
                         ids=[f"shape-{n}" for n in range(len(_GROUP_SHAPES))])
def test_group_token_matches_the_parenthesized_sum(shape):
    summed = shape[:-1] + " + 0)"
    assert _group_kinds(shape) == ["g"] and _group_kinds(summed) == ["("]
    for context in _GROUP_CONTEXTS:
        if shape.endswith(f"{_BIG})") and "^" in context[context.index("{g}"):]:
            continue    # its powers pass the bit budget; pinned below
        value = parse(context.format(g=shape))
        expected = parse(context.format(g=summed))
        assert list(value._terms.items()) == list(expected._terms.items())


_NEAR_MISSES = [
    ("(1/0 + i)", 3, "zero denominator"),
    ("(2 + 3/0*i)", 7, "zero denominator"),
    ("(1 + 2*i)^5000", 10, "power of 10000 coefficient bits exceeds the limit 4096"),
    ("(3/2 + 5/4*i)^1366", 14, "power of 4098 coefficient bits exceeds the limit 4096"),
    ("*".join(["(3/2 + i)^2048"] * 5), 30,
     "coefficient of 11368 bits exceeds the limit 8192"),
    ("*".join([f"(1{'0' * 640} + i)"] * 4), 1944,
     "coefficient of 8505 bits exceeds the limit 8192"),
    ("*".join([f"(1{'0' * 639} + i)"] * 4), 1941,
     "coefficient of 8491 bits exceeds the limit 8192"),
    (f"({_BIG})^2", 1929, "power of 4258 coefficient bits exceeds the limit 4096"),
    ("(7 - 0*i)^5000", 10, "power of 15000 coefficient bits exceeds the limit 4096"),
    # A number's power takes the bits of its reduced ratio, as a group's does.
    ("6/4^2049", 4, "power of 4098 coefficient bits exceeds the limit 4096"),
    ("0/7^5000", 4, "power of 5000 coefficient bits exceeds the limit 4096"),
    ("(" + "1" * 5000 + " + i)", 1, "number too long"),
    ("(1 + i", 6, "expected ')'"),
    ("(1 + ix)", 5, "unexpected character 'ix)'"),
    ("(1 + 2*i)^-1", 10, "negative exponent"),
    ("(1 + 2*i)^", 10, "expected a natural-number exponent"),
    ("(1 + i)(2 + i)", 7, "unexpected trailing input"),
    ("z0_1^(1 + i)", 5, "expected a natural-number exponent"),
    ("3/(1 + i)", 2, "expected a denominator"),
    ("(1 + i)*z2_1", 8, "coordinate z2_1 is not in the chart"),
]


@pytest.mark.parametrize("bad,pos,message", _NEAR_MISSES,
                         ids=[f"near-miss-{n}" for n in range(len(_NEAR_MISSES))])
def test_group_errors_keep_their_text_and_position(bad, pos, message):
    with pytest.raises(ParseError) as err:
        parse(bad, _ERROR_CHART)
    assert (err.value.position, str(err.value)) == (
        pos, f"{message} (at position {pos})")


def test_groups_the_token_does_not_match_are_read_as_sums():
    long_one = f"(1{'0' * 640} + i)"
    for text, value in [("(2 + 3*i^2)", Expr.constant(-1)),
                        ("(i + 2)", Expr.constant(GRat(2, 1))),
                        ("(-3/2 + i)", Expr.constant(GRat(Fraction(-3, 2), 1))),
                        (long_one, Expr.constant(GRat(10 ** 640, 1))),
                        ("(7 - 0*i)", Expr.constant(7)),
                        # An empty sum has no integers, so no power of it
                        # passes the bit budget.
                        ("(0 + 0*i)^5000*z0_1", Expr.zero()),
                        ("(0 - 0/3*i)^0*z0_1", parse("z0_1"))]:
        assert _group_kinds(text) == ["("]
        assert parse(text) == value


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this interpreter")
@pytest.mark.parametrize("limit", [640, 699])
def test_group_errors_hold_under_the_lowest_int_digit_limit(limit):
    # A group's integers have at most 640 digits, the lowest limit Python
    # allows, so int() never refuses one inside the token; a longer run is
    # read through "(" and refused at its own position.
    group = f"({'3' * 640}/{'7' * 640} - {'1' * 640}*i)"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert _group_kinds(group) == ["g"]
        assert parse(group) == parse(group[:-1] + " + 0)")
        with pytest.raises(ParseError) as err:
            parse("(" + "1" * 700 + " + i)")
    finally:
        sys.set_int_max_str_digits(old)
    assert (err.value.position, str(err.value)) == (
        1, "number too long (at position 1)")


# -- hypothesis: ring axioms --------------------------------------------------

_COORDS = [TIME, holo(0, 1), holo(0, 2), anti(0, 1), holo(1, 1)]

_coeffs = st.builds(
    GRat,
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)

_monomials = st.lists(
    st.tuples(st.sampled_from(_COORDS), st.integers(min_value=1, max_value=3)),
    max_size=2,
).map(lambda ps: Expr.from_value(1) if not ps else _mono_expr(ps))


def _mono_expr(ps):
    e = Expr.one()
    for coord, n in ps:
        e = e * Expr.atom(coord, n)
    return e


_exprs = st.lists(st.tuples(_coeffs, _monomials), max_size=3).map(
    lambda ts: sum((m.scale(c) for c, m in ts), Expr.zero()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_exprs, _exprs, _exprs)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# The reference for the kernel's term-map loops: GRat's own operators, one
# term at a time, in the order the loops visit them.  A sum that cancels
# leaves the map; one that reappears is inserted again at the end.

def _ref_add(acc, m, c):
    s = acc.get(m)
    if s is None:
        acc[m] = c
    else:
        s = s + c
        if s:
            acc[m] = s
        else:
            del acc[m]


def _ref_add_product(acc, a, b, negate=False):
    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            p = c1 * c2
            _ref_add(acc, mono_mul(m1, m2), -p if negate else p)


def _ref_sum(*exprs):
    acc = {}
    for e in exprs:
        for m, c in e._terms.items():
            _ref_add(acc, m, c)
    return acc


def _assert_same_terms(got, ref):
    """Equal term maps, insertion order included, with every coefficient
    nonzero and in normal form."""
    terms = got._terms if isinstance(got, Expr) else got
    assert list(terms.items()) == list(ref.items())
    for c in terms.values():
        assert c.__class__ is GRat and c
        _assert_normal(c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_exprs, st.lists(st.tuples(_exprs, _exprs), max_size=4), st.booleans())
def test_multiply_accumulate_matches_plain_arithmetic(rest, pairs, cancel):
    if cancel:
        # every sum below cancels to zero
        acc = {}
        for a, b in pairs:
            _ref_add_product(acc, a, b, True)
        rest = _expr(acc)
    # rest + sum(a * b): an equation's left-hand side
    acc, ref = dict(rest._terms), dict(rest._terms)
    for a, b in pairs:
        _add_product(acc, a, b)
        _ref_add_product(ref, a, b)
    _assert_same_terms(acc, ref)
    if cancel:
        assert not acc
    # -r - sum(c * v): a back-substitution numerator
    acc, ref = dict((-rest)._terms), {m: -c for m, c in rest._terms.items()}
    for c, v in pairs:
        _add_product(acc, c, v, True)
        _ref_add_product(ref, c, v, True)
    _assert_same_terms(acc, ref)
    # pc*r - c*rp: a fraction-free elimination update
    for (pc, r), (c, rp) in zip(pairs, pairs[::-1]):
        if cancel:
            c, rp = r, pc
        acc, ref = {}, {}
        for out, add in ((acc, _add_product), (ref, _ref_add_product)):
            add(out, pc, r)
            add(out, c, rp, True)
        _assert_same_terms(acc, ref)
        # The same difference through Expr's product and difference
        products, ref = {}, {}
        _ref_add_product(ref, pc, r)
        _ref_add_product(products, c, rp)
        for m, x in products.items():
            _ref_add(ref, m, -x)
        _assert_same_terms(pc * r - c * rp, ref)


# Coefficients over unequal denominators, so that sums rescale before they
# reduce.
_fraction_coeffs = st.builds(
    GRat,
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
_fraction_exprs = st.lists(st.tuples(_fraction_coeffs, _monomials), max_size=4).map(
    lambda ts: sum((m.scale(c) for c, m in ts), Expr.zero()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_fraction_exprs, min_size=1, max_size=4), st.booleans())
def test_sums_match_plain_arithmetic(exprs, cancel):
    if cancel:
        exprs = exprs + [-e for e in exprs[::-1]]
    acc = dict(exprs[0]._terms)
    for e in exprs[1:]:
        _accumulate(acc, e._terms.items())
    _assert_same_terms(acc, _ref_sum(*exprs))
    if cancel:
        assert not acc
    total = exprs[0]
    for e in exprs[1:]:
        total = total + e
    _assert_same_terms(total, _ref_sum(*exprs))
    a, b = exprs[0], exprs[-1]
    _assert_same_terms(a - b, _ref_sum(a, _expr({m: -c for m, c in b._terms.items()})))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fraction_exprs, _fraction_coeffs, _monomials)
def test_one_term_products_negation_and_derivatives_match_plain_arithmetic(
        e, c, mono):
    if c:
        term = mono.scale(c)
        ref = {mono_mul(m, tm): x * tc
               for m, x in e._terms.items() for tm, tc in term._terms.items()}
        _assert_same_terms(e * term, ref)
        ref = {mono_mul(tm, m): tc * x
               for tm, tc in term._terms.items() for m, x in e._terms.items()}
        _assert_same_terms(term * e, ref)
        _assert_same_terms(e.scale(c), {m: x * c for m, x in e._terms.items()})
    _assert_same_terms(-e, {m: -x for m, x in e._terms.items()})
    for coord in _COORDS:
        ref = {}
        for m, x in e._terms.items():
            exps = dict(_mono_decode(m))
            exp = exps.get(coord)
            if exp:
                exps[coord] = exp - 1
                ref[symkernel._mono_encode((k, v) for k, v in exps.items() if v)] = x * exp
        _assert_same_terms(e.diff(coord), ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_exprs, _exprs)
def test_diff_is_leibniz(a, b):
    for coord in (Z01, TIME):
        lhs = (a * b).diff(coord)
        assert lhs == a.diff(coord) * b + a * b.diff(coord)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_exprs)
def test_format_parse_round_trip_property(e):
    assert parse(format_expr(e)) == e


# Numerators past 640 digits print groups that are read as sums.
_gauss_rats = st.builds(lambda n, d, neg: Fraction(-n if neg else n, d),
                        st.one_of(st.integers(1, 60),
                                  st.integers(10 ** 638, 10 ** 642)),
                        st.integers(1, 60), st.booleans())
_mixed_exprs = st.lists(st.tuples(st.builds(GRat, _gauss_rats, _gauss_rats),
                                  _monomials), min_size=1, max_size=4).map(
    lambda ts: sum((m.scale(c) for c, m in ts), Expr.zero()))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_mixed_exprs)
def test_mixed_coefficients_round_trip(e):
    text = format_expr(e)
    assert parse(text) == e
    # Each mixed coefficient prints as one group: a token ("g" alone, "mg"
    # as a term token's coefficient) when its integers have at most 640
    # digits, else a sum read through "(".  A lone "i" is a "g" token too,
    # counted here as "i".  Then each term with coordinates is one term
    # token.
    kinds = [tok[0] + "g" * (text[tok[1]] == "(") if tok[0] == "m"
             else "i" if tok[0] == "g" and text[tok[1]] == "i" else tok[0]
             for tok in _tokens(text)]
    coeffs = e._terms.values()
    assert kinds.count("g") + kinds.count("mg") + kinds.count("(") \
        == sum(bool(c._a and c._b) for c in coeffs)
    if all(max(abs(c._a), abs(c._b), c._d) < 10 ** 640 for c in coeffs):
        assert "(" not in kinds and "c" not in kinds
        assert kinds.count("m") + kinds.count("mg") == sum(bool(m) for m in e._terms)


# -- term tokens ----------------------------------------------------------------
#
# A term as format_expr writes it ("(1 + 2*i)*z0_1^2*zb0_1") is one token.
# The reference is the same lexer with that alternative switched off, so
# that every term is read through the smaller tokens: values, term-map
# order and errors must be the same either way.

_SMALL_TOKEN_RE = re.compile(_TOKEN_RE.pattern.replace("(?P<term>", "(?P<term>(?!)", 1),
                             _TOKEN_RE.flags)


def _outcome(text, chart=None):
    """The term map of `text` in order, or its error's class, text and position."""
    try:
        return list(parse(text, chart)._terms.items())
    except ParseError as exc:
        return (type(exc).__name__, str(exc), exc.position)


def _small_outcome(text, chart=None):
    assert all(m.lastgroup != "term" for m in _SMALL_TOKEN_RE.finditer(text))
    with mock.patch.object(symkernel, "_TOKEN_RE", _SMALL_TOKEN_RE):
        return _outcome(text, chart)


_BIG_641 = "1" * 641

_TERM_EDGES = [
    # An exponent over 64, with or without leading zeros, and a "^" with no
    # exponent after it are read through the coordinate and "^" tokens.
    ("2*z0_1*z0_2^65", None, 12, "power of degree 65 exceeds the limit 64"),
    ("2*z0_1*z0_2^0065", None, 12, "power of degree 65 exceeds the limit 64"),
    ("2*z0_1*z0_2^", None, 12, "expected a natural-number exponent"),
    ("2*z0_1*z0_2^ + 1", None, 13, "expected a natural-number exponent"),
    ("2*z0_1*z0_2^-1", None, 12, "negative exponent"),
    # A level or index over the limit is refused where its coordinate starts.
    ("2*z0_1*z1048576_1", None, 7, "coordinate level or index exceeds the limit 1048575"),
    ("(1 + i)*t*zb0_1048576^2", None, 10,
     "coordinate level or index exceeds the limit 1048575"),
    ("z9999999_1 + 1/0", None, 0, "coordinate level or index exceeds the limit 1048575"),
    # Lexical errors before syntax errors, and a chart refusal at its factor.
    ("2*z0_1*z2_1 + 1/x", _ERROR_CHART, 16, "unexpected character 'x'"),
    ("2*z0_1*zb0_1*z2_1", _ERROR_CHART, 13, "coordinate z2_1 is not in the chart"),
    ("(3/2 - 5*i)*i*t*z1_1^2*zb02_1 + 1", _ERROR_CHART, 23,
     "coordinate zb2_1 is not in the chart"),
    ("z0_1 + 0*z0_1*z3_1^0", _ERROR_CHART, 14, "coordinate z3_1 is not in the chart"),
    ("2*z0_1*zb0_1*z2_1*(z0_1 + 1)", _ERROR_CHART, 13,
     "coordinate z2_1 is not in the chart"),
    ("z0_1*i^5000", _ERROR_CHART, 7, "power of 5000 coefficient bits exceeds the limit 4096"),
    # A zero denominator is refused where it is written.
    ("z0_1 - 3/0*z0_1", None, 9, "zero denominator"),
    ("(2 + 3/0*i)*z0_1", None, 7, "zero denominator"),
    ("(2/00 - i)*z0_1", None, 3, "zero denominator"),
    # A 641-digit coefficient is not part of the term token.
    (_BIG_641 + "/0*z0_1", None, 642, "zero denominator"),
]


@pytest.mark.parametrize("bad,chart,pos,message", _TERM_EDGES,
                         ids=[f"term-edge-{n}" for n in range(len(_TERM_EDGES))])
def test_term_token_errors_keep_their_text_and_position(bad, chart, pos, message):
    expected = ("ParseError", f"{message} (at position {pos})", pos)
    assert _outcome(bad, chart) == expected
    assert _small_outcome(bad, chart) == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this interpreter")
def test_term_token_coefficients_hold_under_the_lowest_int_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        fits = parse("1" * 640 + "*z0_1*z0_2")
        kinds = [tok[0] for tok in _tokens("1" * 640 + "*z0_1*z0_2")]
        too_long = [_outcome(text) for text in (
            _BIG_641 + "*z0_1*z0_2", "1/" + _BIG_641 + "*z0_1",
            "(1 + " + _BIG_641 + "*i)*z0_1", "(1 - 2/" + _BIG_641 + "*i)*z0_1")]
    finally:
        sys.set_int_max_str_digits(old)
    assert kinds == ["m", "end"]
    assert fits == parse("z0_1*z0_2").scale(int("1" * 640))
    assert too_long == [("ParseError", f"number too long (at position {pos})", pos)
                        for pos in (0, 2, 5, 7)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this interpreter")
@pytest.mark.parametrize("limit", [640, 4300])
def test_parse_refuses_a_long_coordinate_where_it_starts(limit):
    # A level or index too long for int() is refused at its coordinate,
    # whether or not a power follows it.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        outcomes = [_outcome(text) for text in (
            "z" + "1" * 4400 + "_1^2", "z" + "1" * 4400 + "_1",
            "1 + z0_" + "2" * 4400 + "^3")]
    finally:
        sys.set_int_max_str_digits(old)
    assert outcomes == [("ParseError", f"number too long (at position {pos})", pos)
                        for pos in (0, 0, 4)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this interpreter")
def test_a_long_coordinate_reads_the_same_after_a_parse_under_another_limit():
    # Out of range under the default limit, too long for int() under 640: a
    # parse under 640 answers as in a fresh process, whatever came before.
    # The zero-padded name is z0_1 under the default limit.
    texts = ("z" + "1" * 700 + "_1", "z" + "0" * 700 + "_1")
    first = [_outcome(text) for text in texts]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        second = [_outcome(text) for text in texts]
    finally:
        sys.set_int_max_str_digits(old)
    assert first[0] == ("ParseError", "coordinate level or index exceeds the "
                        "limit 1048575 (at position 0)", 0)
    assert first[1] == _outcome("z0_1")
    assert second == [("ParseError", "number too long (at position 0)", 0)] * 2


@pytest.mark.parametrize("text,kinds,same_as", [
    ("2 * z0_1", ["n", "*", "c", "end"], "2*z0_1"),
    ("z0_2*z0_1*z0_2", ["m", "end"], "z0_1*z0_2^2"),
    ("2*z0_1*(z0_1 + 1)", ["n", "*", "c", "*", "(", "m", "+", "n", ")", "end"],
     "2*z0_1^2 + 2*z0_1"),
    ("2*z0_1*z0_2^064", ["n", "*", "c", "*", "c", "p", "end"], "2*z0_1*z0_2^64"),
    # A term token starts a term: after a "*" the smaller tokens are read.
    ("3 * 2*z0_1 - (1 + i)*z0_1", ["n", "*", "n", "*", "c", "-", "m", "end"],
     "(5 - i)*z0_1"),
    ("z0_1^ 2*(3/2 + i)*zb0_1", ["c", "p", "*", "g", "*", "c", "end"],
     "(3/2 + i)*z0_1^2*zb0_1"),
    ("(2*z0_1 - 3/2*i*t^2)^2", ["(", "m", "-", "m", ")", "p", "end"],
     "4*z0_1^2 - 6*i*t^2*z0_1 - 9/4*t^4"),
    ("z0_1^0*t*z0_1^2*z0_1^0", ["m", "end"], "t*z0_1^2"),
    ("3/6*i*z0_1*zb00_1", ["m", "end"], "1/2*i*z0_1*zb0_1"),
    ("2/04*z0_01*t", ["n", "*", "c", "*", "c", "end"], "1/2*t*z0_1"),
    ("z0_1^2^3", ["c", "p", "p", "end"], None),
    ("(1 + i)^2*z0_1 - 0*t", ["g", "p", "*", "c", "-", "m", "end"], "2*i*z0_1"),
    # "i" is a Gaussian constant token, and its power a "^" token.
    ("2 * i^3*z0_1", ["n", "*", "g", "p", "*", "c", "end"], "-2*i*z0_1"),
])
def test_term_token_reads_like_its_small_tokens(text, kinds, same_as):
    assert [tok[0] for tok in _tokens(text)] == kinds
    value = _outcome(text, ChartSpec(2, 1, True))
    assert value == _small_outcome(text, ChartSpec(2, 1, True))
    if same_as is not None:
        assert value == _outcome(same_as)


_term_coeffs = st.sampled_from(["", "", "2*", "0*", "3/6*", "07/2*", "3/0*", "i*", "2*i*",
                                "(1 + 2*i)*", "(3/2 - 5/4*i)*", "(0 + i)*", "(1 + 0*i)*",
                                "(1 + i)^2*", "(2+i)*", "2 *", "1" * 640 + "*",
                                _BIG_641 + "*", "-", "i^3*"])
_term_factors = st.tuples(
    st.sampled_from(["t", "z0_1", "z0_2", "zb0_1", "z1_1", "zb1_1", "z2_1", "z0_01",
                     "z1048575_1", "z1048576_1", "z0_1048576", "z0000001_1", "i", "q"]),
    st.sampled_from(["", "", "", "^0", "^1", "^2", "^064", "^64", "^65", "^",
                     "^ 2", "^99999", "^-1"]),
).map("".join)
_term_texts = st.lists(
    st.tuples(_term_coeffs,
              st.lists(_term_factors, max_size=4).map("*".join),
              st.sampled_from([" + ", " - ", " + ", "*", " * ", "+", ")", "(", "*("])),
    min_size=1, max_size=5,
).map(lambda parts: "".join(c + f + sep for c, f, sep in parts)[:-1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_term_texts, _mixed_exprs.map(format_expr)),
       st.sampled_from([None, _ERROR_CHART]))
def test_term_token_matches_the_small_token_path(text, chart):
    assert _outcome(text, chart) == _small_outcome(text, chart)


# -- hypothesis: printed grammar trees ------------------------------------------
#
# A tree node is (text, value, level): level 0 is a base, 1 a factor, 2 a
# term and 3 an expression.  An operand above the level its slot takes is
# printed in parentheses.  Values are built with Expr ops alone.

_SPACES = st.sampled_from(["", " ", "  "])
_TREE_ATOMS = {"t": TIME, "z0_1": Z01, "z0_2": Z02, "zb0_1": ZB01, "z1_1": Z11}


def _operand(node, level, space):
    text, value, have = node
    return text if have <= level else f"({space}{text}{space})"


def _power(args):
    base, exponent, space = args
    exponent = min(exponent, 64 // max(1, base[1].degree()))
    return (f"{_operand(base, 0, space)}{space}^{space}{exponent}",
            base[1] ** exponent, 1)


def _product(args):
    left, right, space = args
    return (f"{_operand(left, 2, space)}{space}*{space}{_operand(right, 1, space)}",
            left[1] * right[1], 2)


def _sum(args):
    left, right, op, space = args
    value = left[1] + right[1] if op == "+" else left[1] - right[1]
    return (f"{_operand(left, 3, space)}{space}{op}{space}{_operand(right, 2, space)}",
            value, 3)


def _negation(args):
    node, space = args
    return f"-{space}{_operand(node, 2, space)}", -node[1], 3


_tree_leaves = st.one_of(
    st.sampled_from(sorted(_TREE_ATOMS)).map(
        lambda name: (name, Expr.atom(_TREE_ATOMS[name]), 0)),
    st.just(("i", Expr.imag_unit(), 0)),
    st.integers(0, 30).map(lambda n: (str(n), Expr.constant(n), 0)),
    st.tuples(st.integers(0, 30), st.integers(1, 9), _SPACES).map(
        lambda a: (f"{a[0]}{a[2]}/{a[2]}{a[1]}",
                   Expr.constant(Fraction(a[0], a[1])), 0)),
)

_trees = st.recursive(
    _tree_leaves,
    lambda kids: st.one_of(
        st.tuples(kids, st.integers(0, 3), _SPACES).map(_power),
        st.tuples(kids, kids, _SPACES).map(_product),
        st.tuples(kids, kids, st.sampled_from("+-"), _SPACES).map(_sum),
        st.tuples(kids, _SPACES).map(_negation)),
    max_leaves=10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees, _SPACES)
def test_parse_evaluates_printed_grammar_trees(tree, space):
    text, value, _ = tree
    assert parse(f"{space}{text}{space}") == value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_exprs)
def test_conjugation_involution(e):
    e = Expr({m: c for m, c in e.term_map().items()
              if all(coord.kind != Kind.TIME for coord, _ in m)})
    assert e.conjugate().conjugate() == e


# -- packed coordinate codes --------------------------------------------------

_any_coords = st.one_of(
    st.just(TIME),
    st.builds(CoordId, st.sampled_from([Kind.HOLO, Kind.ANTI]),
              st.one_of(st.integers(0, 3), st.integers(0, _LIMIT)),
              st.one_of(st.integers(1, 3), st.integers(1, _LIMIT))))


def _reference_key(coord):
    return (int(coord.kind), coord.level, coord.index)


def _reference_order_key(m):
    """The term order on (CoordId, exponent) monomials, built from
    ``(kind, level, index)`` tuples the way the kernel's key was before
    coordinates were packed into ints."""
    expanded = ()
    for coord, exp in m:
        expanded += (_reference_key(coord),) * exp
    return (-len(expanded), expanded)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_any_coords, _any_coords)
def test_codes_decode_and_keep_the_coordinate_order(a, b):
    for c in (a, b, a.conjugate()):
        back = _decode(c._code)
        assert back == c and back.kind is c.kind
        assert (back.level, back.index, back.name) == (c.level, c.index, c.name)
    assert (a.sort_key() < b.sort_key()) == (_reference_key(a) < _reference_key(b))
    assert (a == b) == (_reference_key(a) == _reference_key(b))
    if a == b:
        assert hash(a) == hash(b)


@st.composite
def _wide_exprs(draw):
    """A sum of up to six terms over a few coordinates from the whole code
    range, so that monomials share coordinates and compare on every field."""
    pool = draw(st.lists(_any_coords, min_size=1, max_size=4, unique=True))
    out = Expr.zero()
    for _ in range(draw(st.integers(1, 6))):
        term = Expr.constant(draw(_coeffs))
        for coord in draw(st.lists(st.sampled_from(pool), max_size=4)):
            term = term * Expr.atom(coord, draw(st.integers(1, 3)))
        out = out + term
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_wide_exprs())
def test_term_order_matches_the_tuple_keyed_reference(e):
    terms = list(e.terms())
    term_map = e.term_map()
    assert [m for m, _ in terms] == sorted(term_map, key=_reference_order_key)
    assert dict(terms) == term_map
    for m, c in term_map.items():
        assert all(type(coord) is CoordId for coord, _ in m)
        assert e.coefficient(m) == c
    assert Expr(term_map) == e
    assert list(Expr(term_map)._terms) == list(e._terms)
    assert all(type(coord) is CoordId for coord in e.coords())
    assert e.coords() == {coord for m in term_map for coord, _ in m}
    internal = sorted(e._terms, key=_mono_order_key)
    assert [_mono_decode(m) for m in internal] == [m for m, _ in terms]



# -- packed monomials against a tuple reference -------------------------------

# The reference keeps a monomial the way the kernel did before monomials
# were packed into ints: a tuple of (CoordId, exponent) pairs in (kind,
# level, index) order.  The pool reaches both ends of the code range; a
# level below the limit can still be shifted up by the derivation.
_PACKED_POOL = [TIME, holo(0, 1), anti(0, 1), holo(2, 3), anti(_LIMIT - 1, _LIMIT),
                holo(_LIMIT, _LIMIT), anti(_LIMIT, 1)]
_SHIFTABLE_POOL = [c for c in _PACKED_POOL if c.level < _LIMIT]


def _ref_mono(exps):
    """The reference monomial of a coordinate -> exponent map."""
    return tuple(sorted(((c, e) for c, e in exps.items() if e),
                        key=lambda pair: _reference_key(pair[0])))


def _ref_mono_mul(a, b):
    exps = dict(a)
    for c, e in b:
        exps[c] = exps.get(c, 0) + e
    return _ref_mono(exps)


def _ref_mono_div(a, b):
    exps = dict(a)
    for c, e in b:
        if exps.get(c, 0) < e:
            return None
        exps[c] -= e
    return _ref_mono(exps)


def _ref_terms(pairs):
    """The reference term map of ``(coefficient, monomial)`` pairs."""
    acc = {}
    for c, m in pairs:
        s = acc.get(m, GRat(0)) + c
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return acc


def _packed(ref):
    """The kernel's monomial of a reference monomial, through the public
    constructor."""
    (m,) = Expr({ref: GRat(1)})._terms
    return m


def _packed_monos(pool, top):
    return st.dictionaries(st.sampled_from(pool), st.integers(1, top),
                           max_size=4).map(_ref_mono)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_packed_monos(_PACKED_POOL, 64), _packed_monos(_PACKED_POOL, 64))
def test_packed_monomials_match_the_tuple_reference(a, b):
    pa, pb = _packed(a), _packed(b)
    assert (_mono_decode(pa), _mono_decode(pb)) == (a, b)
    assert mono_degree(pa) == sum(e for _, e in a)
    ab = _ref_mono_mul(a, b)
    assert mono_mul(pa, pb) == _packed(ab) and _mono_decode(pa + pb) == ab
    assert (mono_div(_packed(ab), pb), mono_div(_packed(ab), pa)) == (pa, pb)
    q = _ref_mono_div(a, b)
    assert mono_div(pa, pb) == (None if q is None else _packed(q))
    ka, kb = _mono_order_key(pa), _mono_order_key(pb)
    ra, rb = _reference_order_key(a), _reference_order_key(b)
    assert ((ka < kb), (ka == kb)) == ((ra < rb), (ra == rb))


def test_packed_division_refuses_a_short_field():
    """b's degree fits under a's, but one of b's exponents does not."""
    a, b = ((holo(0, 1), 5),), ((holo(0, 1), 2), (anti(0, 1), 1))
    assert mono_div(_packed(a), _packed(b)) is None
    assert mono_div(_packed(b), _packed(a)) is None
    assert _mono_decode(mono_div(_packed(a), _packed(a[:1]))) == ()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_coeffs, _packed_monos(_SHIFTABLE_POOL, 64)), max_size=5))
def test_packed_terms_diff_conjugate_and_derivation_match_the_tuple_reference(
        pairs):
    ref = _ref_terms(pairs)
    e = Expr(ref)
    assert list(e.terms()) == sorted(ref.items(),
                                     key=lambda t: _reference_order_key(t[0]))
    assert e.term_map() == ref
    assert e.degree() == max((sum(x for _, x in m) for m in ref), default=0)
    for coord in _PACKED_POOL + [holo(5, 5)]:
        want = []
        for m, c in ref.items():
            exps = dict(m)
            if exps.get(coord):
                want.append((c * exps[coord], _ref_mono({**exps, coord: exps[coord] - 1})))
        assert e.diff(coord).term_map() == _ref_terms(want)
    assert e.conjugate().term_map() == {
        _ref_mono({x.conjugate(): n for x, n in m}): c.conjugate()
        for m, c in ref.items()}
    for time_scaled in (True, False):
        want = []
        for m, c in ref.items():
            exps = dict(m)
            for coord, n in m:
                lowered = {**exps, coord: n - 1}
                if coord == TIME:
                    want.append((c * n, m if time_scaled else _ref_mono(lowered)))
                else:
                    up = CoordId(coord.kind, coord.level + 1, coord.index)
                    lowered[up] = lowered.get(up, 0) + 1
                    want.append((c * n, _ref_mono(lowered)))
        assert _derive(e, time_scaled).term_map() == _ref_terms(want)

# -- binomial -----------------------------------------------------------------

@pytest.mark.parametrize("r,j,value", [
    (4, 2, 6),
    (0, 0, 1),
    (5, 0, 1),
    (5, 5, 1),
    (6, 3, 20),
])
def test_binomial(r, j, value):
    assert binomial(r, j) == value


@pytest.mark.parametrize("r,j", [(3, 5), (-1, 0), (2, -1)])
def test_binomial_rejects_out_of_range(r, j):
    with pytest.raises(ValueError):
        binomial(r, j)


# -- exact division ----------------------------------------------------------

def test_divide_exact():
    f = parse("z0_1^2 - zb0_1^2")
    g = parse("z0_1 - zb0_1")
    assert divide_exact(f, g) == parse("z0_1 + zb0_1")


def test_divide_exact_rejects_remainder():
    with pytest.raises(ExactDivisionError):
        divide_exact(parse("z0_1^2 + 1"), parse("z0_1 + 1"))


def _divide_by_heap(f, g):
    """divide_exact's general algorithm for any divisor, kept here as the
    reference for its one-term path: the leading term of the remainder,
    popped from a heap of order keys, is divided by g's leading term until
    nothing remains."""
    g_mono = min(g._terms, key=_mono_order_key)
    g_coeff = g._terms[g_mono]
    rest = dict(f._terms)
    heap = [(_mono_order_key(m), m) for m in rest]
    heapq.heapify(heap)
    quotient = {}
    while rest:
        r_mono = heapq.heappop(heap)[1]
        r_coeff = rest.get(r_mono)
        if r_coeff is None:
            continue
        q_mono = mono_div(r_mono, g_mono)
        if q_mono is None:
            raise ExactDivisionError(
                f"{format_expr(g)} does not divide {format_expr(f)}")
        q = r_coeff / g_coeff
        quotient[q_mono] = q
        for gm, gc in g._terms.items():
            m = mono_mul(q_mono, gm)
            s = rest.get(m)
            if s is None:
                rest[m] = -(q * gc)
                heapq.heappush(heap, (_mono_order_key(m), m))
            else:
                s = s - q * gc
                if s:
                    rest[m] = s
                else:
                    del rest[m]
    return _expr(quotient)


def _division_outcome(divide, f, g):
    try:
        return list(divide(f, g).term_map().items())
    except ExactDivisionError as exc:
        return str(exc)


_one_term_divisors = st.one_of(
    _fraction_coeffs.filter(bool).map(Expr.constant),      # Gaussian constants
    _monomials,                                            # pure monomials
    st.tuples(_fraction_coeffs.filter(bool), _monomials).map(
        lambda cm: cm[1].scale(cm[0])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fraction_exprs, _one_term_divisors, _fraction_exprs)
def test_one_term_division_matches_the_general_algorithm(q, g, r):
    """Dividing by one term gives the general algorithm's quotient, in the
    same term-map order, or its error text."""
    (g_mono,) = g._terms
    assert divide_exact(q * g, g) == q
    for f, divisible in ((q * g, True),
                         (q * g + r, all(mono_div(m, g_mono) is not None
                                         for m in r._terms))):
        got = _division_outcome(divide_exact, f, g)
        assert got == _division_outcome(_divide_by_heap, f, g)
        assert isinstance(got, list) == divisible



def _reference_divide(f, g):
    """divide_exact's algorithm on reference monomials: the least-keyed
    monomial of the rest is divided by g's until nothing remains."""
    g_terms = g.term_map()
    g_mono = min(g_terms, key=_reference_order_key)
    rest = f.term_map()
    quotient = {}
    while rest:
        r_mono = min(rest, key=_reference_order_key)
        q_mono = _ref_mono_div(r_mono, g_mono)
        if q_mono is None:
            raise ExactDivisionError(
                f"{format_expr(g)} does not divide {format_expr(f)}")
        q = rest[r_mono] / g_terms[g_mono]
        quotient[q_mono] = q
        for gm, gc in g_terms.items():
            m = _ref_mono_mul(q_mono, gm)
            left = rest.get(m, GRat(0)) - q * gc
            if left:
                rest[m] = left
            else:
                del rest[m]
    return _expr({_packed(m): c for m, c in quotient.items()})


# Pivots of two to six terms over five coordinates, two of them at the code
# limits, like the pairing factorisation's multi-term pivots.
_DIVISION_POOL = [TIME, holo(0, 1), anti(0, 1), holo(_LIMIT, _LIMIT), anti(3, _LIMIT)]
_DIVISION_COEFFS = [GRat(1), GRat(-2), GRat(0, 1), GRat(Fraction(1, 3)),
                    GRat(Fraction(-3, 2), 2)]


def _division_exprs(most):
    monos = st.lists(st.integers(0, 3), min_size=5, max_size=5).map(
        lambda exps: _ref_mono(dict(zip(_DIVISION_POOL, exps))))
    return st.lists(st.tuples(st.sampled_from(_DIVISION_COEFFS), monos),
                    min_size=1, max_size=most).map(
        lambda pairs: Expr(_ref_terms(pairs)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_division_exprs(3), _division_exprs(6), _division_exprs(3))
def test_multi_term_division_matches_the_tuple_reference(q, g, r):
    """Dividing by a pivot of several terms gives the reference's quotient,
    in the same term-map order, or its error text."""
    assume(len(g._terms) > 1 and len(g.coords()) > 2)
    assert divide_exact(q * g, g) == q
    for f in (q * g, q * g + r):
        got = _division_outcome(divide_exact, f, g)
        assert got == _division_outcome(_reference_divide, f, g)

# -- linear solver ------------------------------------------------------------

_X, _XB = Expr.atom(Z01), Expr.atom(ZB01)

# Rows ``{position: coefficient}`` and right-hand sides of ``sum(row[p]*x_p)
# == rhs``, with the solution or the error raised (type, text, attribute and
# its value).  Positions are named "a", "b".
_FACTOR_CASES = {
    # 2*a = z0_1^2: a whole polynomial, a = z0_1^2/2
    "polynomial-unknown": ([{0: Expr.constant(2)}], [_X ** 2],
                           [_X ** 2 * GRat(Fraction(1, 2))]),
    # a + b = 2*z0_1 and a - b = 2
    "square-system": ([{0: Expr.one(), 1: Expr.one()},
                       {0: Expr.one(), 1: Expr.constant(-1)}],
                      [2 * _X, Expr.constant(2)], [_X + 1, _X - 1]),
    # z0_1*a = z0_1*zb0_1 needs an exact polynomial division
    "nonconstant-pivot": ([{0: _X}], [_X * _XB], [_XB]),
    # a*z0_1 + b = 0 has the polynomial family a = -p, b = p*z0_1
    "underdetermined": ([{0: _X, 1: Expr.one()}], [Expr.zero()],
                        (UnderdeterminedError,
                         "underdetermined system; free unknowns: b",
                         "free", ("b",))),
    # a*z0_1 = 1 has no polynomial solution
    "inconsistent": ([{0: _X}], [Expr.one()],
                     (InconsistentSystemError,
                      "no polynomial solution for a [equation 0]: "
                      "z0_1 does not divide 1", "equation_index", 0)),
}


def _assert_factor_case(case):
    rows, rhs, expected = _FACTOR_CASES[case]
    width = 1 + max(p for row in rows for p in row)
    factor = PolyLinearFactor(rows, width)
    names = ["a", "b"][:width]
    if isinstance(expected, list):
        assert factor.solve(rhs, names) == expected
        return
    error, text, attribute, value = expected
    with pytest.raises(error) as err:
        factor.solve(rhs, names)
    assert str(err.value) == text
    assert getattr(err.value, attribute) == value


# One test per case keeps each case's test id.
def test_solve_poly_linear_polynomial_unknown():
    _assert_factor_case("polynomial-unknown")


def test_solve_poly_linear_square_system():
    _assert_factor_case("square-system")


def test_solve_poly_linear_nonconstant_pivot():
    _assert_factor_case("nonconstant-pivot")


def test_solve_poly_linear_underdetermined_family():
    _assert_factor_case("underdetermined")


def test_solve_poly_linear_inconsistent():
    _assert_factor_case("inconsistent")
