"""Tensor-field containers on a fixed chart: componentwise algebra,
pairings, connection coefficients, brackets."""

import operator

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.fields import (
    Bilinear,
    ConnectionCoeffs,
    EndoField,
    FieldError,
    OneForm,
    ScalarField,
    VectorField,
    format_bilinear,
    format_endo,
    format_oneform,
    format_vector,
    lie_bracket,
)
from liftcalc.symkernel import TIME, Expr, anti, holo, parse

C0 = ChartSpec(1, 0, False)
C2 = ChartSpec(2, 0, False)
CT = ChartSpec(1, 0, True)
Z = holo(0, 1)
Z2 = holo(0, 2)
ZB = anti(0, 1)
ZB2 = anti(0, 2)


def x(coord, n=1):
    return Expr.atom(coord, n)


# -- constructors validate ----------------------------------------------------

def test_components_must_live_on_the_chart():
    from liftcalc.charts import ChartError
    # off-chart keys are a field error, off-chart values a chart error
    with pytest.raises(FieldError):
        VectorField(C0, {holo(1, 1): Expr.one()})
    with pytest.raises(ChartError):
        OneForm(C0, {Z: parse("z1_1")})
    with pytest.raises(ChartError):
        ScalarField(C0, parse("t"))


def test_zero_components_are_dropped():
    Zf = VectorField(C0, {Z: Expr.zero(), ZB: Expr.one()})
    assert Z not in Zf.components
    assert Zf.component(Z).is_zero()


# -- scalar fields ------------------------------------------------------------

def test_scalar_algebra():
    f = ScalarField(C0, x(Z))
    g = ScalarField(C0, x(ZB))
    assert (f + g).value == x(Z) + x(ZB)
    assert (f * g).value == x(Z) * x(ZB)
    assert (f - f).value.is_zero()
    assert f.conjugate().value == x(ZB)


# -- vector fields ------------------------------------------------------------

def test_vector_apply_is_derivation():
    Zf = VectorField(C0, {Z: x(Z), ZB: Expr.one()})
    f = x(Z, 2)
    g = x(ZB)
    assert Zf.apply(f * g) == Zf.apply(f) * g + f * Zf.apply(g)
    assert Zf.apply(f) == 2 * x(Z, 2)


def test_vector_algebra_and_basis():
    e = VectorField.basis(C0, Z)
    assert e.apply(x(Z)) == Expr.one()
    assert e.apply(x(ZB)).is_zero()
    assert (e + e).component(Z) == Expr.from_value(2)
    assert (e - e).is_zero()
    assert e.scaled(x(ZB)).component(Z) == x(ZB)
    assert 2 * e == e + e


@pytest.mark.parametrize("left,op,right", [
    (VectorField.basis(C0, Z), operator.add, OneForm.differential_of(C0, Z)),
    (VectorField.basis(C0, Z), operator.sub, OneForm.differential_of(C0, Z)),
    (EndoField.identity(C0), operator.add, Bilinear(C0, {(Z, ZB): 1})),
    (VectorField.basis(C0, Z), operator.add, 1),
    (ScalarField(C0, 1), operator.add, 1),
    (ScalarField(C0, 1), operator.sub, VectorField.basis(C0, Z)),
], ids=["vector+oneform", "vector-oneform", "endo+bilinear", "vector+int",
        "scalar+int", "scalar-vector"])
def test_field_arithmetic_takes_only_its_own_class(left, op, right):
    # a field of another class is refused by Python, naming the operator,
    # instead of summed componentwise into the left operand's class
    symbol = {operator.add: "+", operator.sub: "-"}[op]
    with pytest.raises(TypeError) as err:
        op(left, right)
    assert str(err.value) == (
        f"unsupported operand type(s) for {symbol}: "
        f"'{type(left).__name__}' and '{type(right).__name__}'")


def test_vector_conjugate():
    Zf = VectorField(C0, {Z: parse("i*z0_1")})
    assert Zf.conjugate().component(ZB) == parse("-i*zb0_1")


# -- one-forms ----------------------------------------------------------------

def test_oneform_pairing():
    w = OneForm(C0, {Z: x(ZB), ZB: Expr.one()})
    Zf = VectorField(C0, {Z: x(Z)})
    assert w.pair(Zf) == x(Z) * x(ZB)
    assert OneForm.differential_of(C0, Z).pair(VectorField.basis(C0, Z)) \
        == Expr.one()


def test_oneform_pairing_chart_mismatch():
    w = OneForm(C0, {Z: Expr.one()})
    with pytest.raises(FieldError):
        w.pair(VectorField.basis(C2, Z))


# -- endomorphism fields -------------------------------------------------------

def test_endo_apply_and_compose():
    J = EndoField(C0, {(Z, Z): parse("i"), (ZB, ZB): parse("-i")})
    e = VectorField.basis(C0, Z)
    assert J.apply_vector(e) == e.scaled(parse("i"))
    assert J.compose(J) == EndoField.identity(C0).scaled(-1)
    assert J.compose(J).apply_vector(e) == e.scaled(-1)


def test_endo_apply_form_transposes():
    S = EndoField(C0, {(Z, ZB): x(Z)})
    w = OneForm(C0, {Z: Expr.one()})
    # (S^t w)(X) = w(S X): the only nonzero output lands on dzb0_1
    assert S.apply_form(w).component(ZB) == x(Z)


# -- bilinear forms ------------------------------------------------------------

def test_bilinear_evaluate():
    g = Bilinear(C0, {(Z, ZB): Expr.one(), (ZB, Z): Expr.one()})
    X = VectorField(C0, {Z: x(Z)})
    Y = VectorField(C0, {ZB: x(ZB)})
    assert g.evaluate(X, Y) == x(Z) * x(ZB)
    assert g.is_symmetric()
    assert not g.is_antisymmetric()


def test_bilinear_pullback_endo():
    g = Bilinear(C0, {(Z, ZB): Expr.one(), (ZB, Z): Expr.one()})
    J = EndoField(C0, {(Z, Z): parse("i"), (ZB, ZB): parse("-i")})
    # g(JX, JY) = g(X, Y) for the diagonal complex structure
    assert g.pullback_endo(J) == g


# -- connection coefficients ----------------------------------------------------

def test_connection_defaults_to_conjugate_bars():
    chart = ChartSpec(1, 1, True)
    conn = ConnectionCoeffs(chart, {(0, 1, 1): parse("i*z0_1")})
    assert conn.gammabar_at(0, 1, 1) == parse("-i*zb0_1")
    assert conn.gamma_at(0, 1, 1) == parse("i*z0_1")


def test_connection_explicit_bars_win():
    chart = ChartSpec(1, 1, True)
    conn = ConnectionCoeffs(chart, {(0, 1, 1): x(Z)},
                            {(0, 1, 1): x(ZB, 2)})
    assert conn.gammabar_at(0, 1, 1) == x(ZB, 2)


def test_connection_range_checks():
    chart = ChartSpec(1, 1, True)
    with pytest.raises(FieldError):
        ConnectionCoeffs(chart, {(1, 1, 1): Expr.one()})  # level r <= k-1
    with pytest.raises(FieldError):
        ConnectionCoeffs(chart, {(0, 2, 1): Expr.one()})  # index <= m


def test_connection_zero():
    chart = ChartSpec(2, 2, True)
    conn = ConnectionCoeffs.zero(chart)
    assert conn.gamma_at(0, 1, 2).is_zero()
    assert conn.gammabar_at(1, 2, 1).is_zero()


# -- lie bracket ----------------------------------------------------------------

def test_lie_bracket_of_coordinate_fields_vanishes():
    assert lie_bracket(VectorField.basis(C2, Z),
                       VectorField.basis(C2, Z2)).is_zero()


def test_lie_bracket_antisymmetric():
    X = VectorField(C0, {Z: x(Z, 2)})
    Y = VectorField(C0, {Z: x(ZB), ZB: x(Z)})
    assert lie_bracket(X, Y) == -lie_bracket(Y, X)


def test_lie_bracket_jacobi():
    X = VectorField(C0, {Z: x(Z)})
    Y = VectorField(C0, {ZB: x(Z)})
    W = VectorField(C0, {Z: x(ZB, 2)})
    total = (lie_bracket(X, lie_bracket(Y, W))
             + lie_bracket(Y, lie_bracket(W, X))
             + lie_bracket(W, lie_bracket(X, Y)))
    assert total.is_zero()


def test_lie_bracket_known_value():
    # [z d/dz, d/dz] = -d/dz
    X = VectorField(C0, {Z: x(Z)})
    Y = VectorField.basis(C0, Z)
    assert lie_bracket(X, Y) == Y.scaled(-1)


# -- rendering -------------------------------------------------------------------

def test_format_vector_sorted_and_stable():
    Zf = VectorField(CT, {ZB: Expr.one(), Z: x(Z), TIME: Expr.one()})
    assert format_vector(Zf) == ["d/dt: 1", "d/dz0_1: z0_1", "d/dzb0_1: 1"]
    assert format_vector(VectorField.zero(CT)) == ["0"]


def test_format_oneform():
    w = OneForm(C0, {ZB: x(Z)})
    assert format_oneform(w) == ["dzb0_1: z0_1"]


def test_format_endo_and_bilinear():
    S = EndoField(C0, {(Z, ZB): Expr.one()})
    assert format_endo(S) == ["d/dz0_1 <- d/dzb0_1: 1"]
    B = Bilinear(C0, {(ZB, Z): parse("2*z0_1")})
    assert format_bilinear(B) == ["dzb0_1 (x) dz0_1: 2*z0_1"]


V_MIXED = VectorField(CT, {ZB: -1, Z: 1, TIME: parse("2*z0_1")})
W_MIXED = OneForm(CT, {ZB: -1, Z: 1, TIME: parse("2*z0_1 - t")})
E_TWO = EndoField(CT, {(Z, Z): parse("i"), (ZB, Z): 1})
B_TWO = Bilinear(CT, {(Z, ZB): 1, (ZB, Z): 1})


@pytest.mark.parametrize("field,text", [
    (V_MIXED, "(2*z0_1)*d/dt + d/dz0_1 + -d/dzb0_1"),
    (W_MIXED, "(-t + 2*z0_1)*dt + dz0_1 + -dzb0_1"),
    (VectorField.zero(CT), "0"),
    (OneForm.zero(CT), "0"),
], ids=["vector", "oneform", "vector-zero", "oneform-zero"])
def test_compact_form_writes_unit_components_bare(field, text):
    assert field._compact() == text


@pytest.mark.parametrize("field,text", [
    (V_MIXED, "VectorField((2*z0_1)*d/dt + (1)*d/dz0_1 + (-1)*d/dzb0_1)"),
    (W_MIXED, "OneForm((-t + 2*z0_1)*dt + (1)*dz0_1 + (-1)*dzb0_1)"),
    (VectorField.zero(CT), "VectorField(0)"),
    (OneForm.zero(CT), "OneForm(0)"),
    (E_TWO, "EndoField(2 entries)"),
    (EndoField(CT, {}), "EndoField(0 entries)"),
    (B_TWO, "Bilinear(2 entries)"),
    (Bilinear(CT, {}), "Bilinear(0 entries)"),
], ids=["vector", "oneform", "vector-zero", "oneform-zero", "endo", "endo-zero",
        "bilinear", "bilinear-zero"])
def test_repr(field, text):
    assert repr(field) == text


# -- construction contracts -------------------------------------------------------

@pytest.mark.parametrize("make,message", [
    (lambda: VectorField(C0, {holo(1, 1): 1}),
     "vector component key z1_1 is not in the chart"),
    (lambda: VectorField(C0, {"z0_1": 1}),
     "vector components must be keyed by CoordId"),
    (lambda: OneForm(C0, {TIME: 1}),
     "one-form component key t is not in the chart"),
    (lambda: EndoField(C0, {(Z, anti(2, 1)): 1}),
     "endo entry key CoordId(zb2_1) is not a chart coordinate"),
    (lambda: EndoField(C0, {("z0_1", Z): 1}),
     "endo entry key z0_1 is not a chart coordinate"),
    (lambda: Bilinear(C0, {(TIME, Z): 1}),
     "bilinear entry key CoordId(t) is not a chart coordinate"),
], ids=["vector", "vector-not-coord", "oneform", "endo", "endo-not-coord",
        "bilinear"])
def test_off_chart_keys_are_field_errors(make, message):
    with pytest.raises(FieldError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("obj", [
    ScalarField(C0, 1), VectorField.zero(C0), OneForm.zero(C0),
    EndoField(C0, {}), Bilinear(C0, {}),
    ConnectionCoeffs.zero(C0),
], ids=lambda obj: type(obj).__name__)
def test_fields_are_immutable(obj):
    with pytest.raises(AttributeError) as err:
        obj.chart = C2
    assert str(err.value) == f"{type(obj).__name__} is immutable"
    assert obj.chart == C0


@pytest.mark.parametrize("make,message", [
    (lambda: EndoField(C0, {(Z,): 1}),
     "endo entry key (CoordId(z0_1),) is not a pair of coordinates"),
    (lambda: Bilinear(C0, {(Z, ZB, Z): 1}),
     "bilinear entry key (CoordId(z0_1), CoordId(zb0_1), CoordId(z0_1)) "
     "is not a pair of coordinates"),
    (lambda: Bilinear(C0, {Z: 1}),
     "bilinear entry key CoordId(z0_1) is not a pair of coordinates"),
    (lambda: ConnectionCoeffs(ChartSpec(1, 1, True), {(0, 1): 1}),
     "gamma key (0, 1) is not a (level, i, j) triple"),
    (lambda: ConnectionCoeffs(ChartSpec(1, 1, True), {}, {0: 1}),
     "gammabar key 0 is not a (level, i, j) triple"),
], ids=["endo-short", "bilinear-long", "bilinear-bare", "gamma", "gammabar"])
def test_malformed_keys_are_field_errors(make, message):
    with pytest.raises(FieldError) as err:
        make()
    assert str(err.value) == message
