"""Kernel-level tests: Gaussian-rational arithmetic, the polynomial ring,
parsing/printing, differentiation, conjugation, and the exact linear solver.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcalc.charts import ChartSpec
from liftcalc.symkernel import (
    TIME,
    ConjugationError,
    CoordId,
    ExactDivisionError,
    Expr,
    GRat,
    InconsistentSystemError,
    Kind,
    NonlinearSystemError,
    ParseError,
    UnderdeterminedError,
    UnknownId,
    anti,
    binomial,
    divide_exact,
    format_expr,
    holo,
    parse,
    solve_poly_linear,
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
    assert (a * a.conjugate()).is_real()


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
    assert x.is_real() == (not rx[1])


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


def test_expr_conjugate_rejects_unknowns():
    u = UnknownId("u")
    with pytest.raises(ConjugationError):
        (Expr.atom(u) + 1).conjugate()


def test_expr_substitute():
    f = parse("z0_1^2 + z0_2")
    g = f.substitute({Z01: Expr.atom(Z11)})
    assert g == parse("z1_1^2 + z0_2")


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


def test_parse_refuses_powers_beyond_the_degree_limit():
    assert parse("z0_1^64").degree() == 64
    assert parse("(z0_1^8*zb0_1^8)^4").degree() == 64
    for text in ("z0_1^65", "(z0_1^8*zb0_1^8)^5", "(z0_1+zb0_1^2)^33"):
        with pytest.raises(ParseError, match="exceeds the limit 64"):
            parse(text)
    assert parse("(1+i)^200") == parse("(2*i)^100")


@pytest.mark.parametrize("bad,pos,message", [
    ("(3/2)^20000*z0_1", 6, "power of 40000 coefficient bits exceeds the limit 4096"),
    ("(3/2)^2000000", 6, "power of 4000000 coefficient bits exceeds the limit 4096"),
    ("2^2049", 2, "power of 4098 coefficient bits exceeds the limit 4096"),
    ("((3/2)^2000)^3", 13, "power of 9510 coefficient bits exceeds the limit 4096"),
    ("i^5000", 2, "power of 5000 coefficient bits exceeds the limit 4096"),
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
], ids=["superscript-digit", "arabic-indic-level", "superscript-exponent",
        "arabic-indic-denominator", "zero-index", "5000-digit-number"])
def test_parse_refuses_non_ascii_digits_and_malformed_numbers(bad, pos, message):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert (err.value.position, str(err.value)) == (
        pos, f"{message} (at position {pos})")


def test_parse_keeps_unicode_whitespace():
    assert parse("z0_1\u00a0+\u20031") == parse("z0_1 + 1")


def test_parse_rejects_unknown_token():
    with pytest.raises(ParseError):
        parse("q + 1")


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
    if any(c.kind == Kind.TIME for c in e.coords()):
        e = e.substitute({TIME: Expr.atom(Z02)})
    assert e.conjugate().conjugate() == e


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


# -- linear solver ------------------------------------------------------------

def _u(name):
    return UnknownId(name)


def test_solve_poly_linear_polynomial_unknown():
    # polynomial-unknown semantics: 2*a = z0_1^2 gives a = z0_1^2 / 2
    a = _u("a")
    x = Expr.atom(Z01)
    sol = solve_poly_linear([Expr.atom(a) * 2 - x ** 2], [a])
    assert sol[a] == x ** 2 * GRat(Fraction(1, 2))


def test_solve_poly_linear_square_system():
    # a + b = 2*z0_1 and a - b = 2  =>  a = z0_1 + 1, b = z0_1 - 1
    a, b = _u("a"), _u("b")
    x = Expr.atom(Z01)
    eqs = [Expr.atom(a) + Expr.atom(b) - 2 * x,
           Expr.atom(a) - Expr.atom(b) - 2]
    sol = solve_poly_linear(eqs, [a, b])
    assert sol[a] == x + 1
    assert sol[b] == x - 1


def test_solve_poly_linear_nonconstant_pivot():
    # z0_1 * a = z0_1 * zb0_1 needs an exact polynomial division
    a = _u("a")
    eq = Expr.atom(a) * Expr.atom(Z01) - Expr.atom(Z01) * Expr.atom(ZB01)
    sol = solve_poly_linear([eq], [a])
    assert sol[a] == Expr.atom(ZB01)


def test_solve_poly_linear_underdetermined_family():
    # a*z0_1 + b = 0 has the polynomial family a = -p, b = p*z0_1
    a, b = _u("a"), _u("b")
    eq = Expr.atom(a) * Expr.atom(Z01) + Expr.atom(b)
    with pytest.raises(UnderdeterminedError):
        solve_poly_linear([eq], [a, b])


def test_solve_poly_linear_inconsistent():
    # a*z0_1 = 1 has no polynomial solution
    a = _u("a")
    eq = Expr.atom(a) * Expr.atom(Z01) - 1
    with pytest.raises(InconsistentSystemError):
        solve_poly_linear([eq], [a])


def test_solve_poly_linear_names_the_first_inconsistent_equation():
    # a = 1 pivots; a = 2 and a = 3 both reduce to nonzero constants
    a = _u("a")
    eqs = [Expr.atom(a) - 1, Expr.atom(a) - 2, Expr.atom(a) - 3]
    with pytest.raises(InconsistentSystemError) as err:
        solve_poly_linear(eqs, [a])
    assert err.value.equation_index == 1


def test_solve_poly_linear_rejects_nonlinear():
    a = _u("a")
    with pytest.raises(NonlinearSystemError):
        solve_poly_linear([Expr.atom(a, 2) - 1], [a])


def test_unknowns_do_not_leak_into_results():
    a = _u("a")
    sol = solve_poly_linear([Expr.atom(a) - Expr.atom(Z01)], [a])
    assert not sol[a].unknowns()
