"""Refusals and paths that no other test runs, each pinned to its exact
text, and through ``cli.main`` to its exit code and an empty stdout.

The command-line cases cover the manifest grammar (duplicates, scalar and
rank-2 entries, booleans, explicit ``gammabar`` entries) and the flag
checks of ``lift``, ``frame`` and ``table``.  The library cases cover the
step, order and split checks of the function lifts and the closed forms,
their time-component check, the routes with no constructor, and the input
checks of ``compare_proposition`` and of the structure operators.
"""

import pytest

from liftcalc import lifts as L
from liftcalc.charts import ChartSpec
from liftcalc.cli import main
from liftcalc.fields import (
    Bilinear,
    ConnectionCoeffs,
    EndoField,
    OneForm,
    ScalarField,
    VectorField,
)
from liftcalc.structures import (
    StructureError,
    build_Jk,
    build_Jk_star,
    fundamental_bilinear,
    star_apply,
)
from liftcalc.symkernel import TIME, Expr, anti, holo, parse
from liftcalc.verify import VerifyError, compare_proposition

C0 = ChartSpec(1, 0, True)
Z0, ZB0 = holo(0, 1), anti(0, 1)


def run(capsys, tmp_path, text, *argv):
    """``main(argv)`` with the manifest `text` (if any) passed as
    ``--manifest``; returns (exit code, stdout, stderr)."""
    if text is not None:
        path = tmp_path / "m.manifest"
        path.write_text(text)
        argv = (*argv, "--manifest", str(path))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(code, text):
    return code, "", f"error: {text}\n"


# -- manifests ---------------------------------------------------------------

LIFT_Z = ("lift", "--field", "Z", "--kind", "v", "--k", "1")
LIFT_F = ("lift", "--field", "f", "--kind", "v", "--k", "1")


@pytest.mark.parametrize("text,argv,message", [
    ("m: 1\n\nfield Z:\n  type: vector\n  z0_1: 1\n  z0_1: 2\n", LIFT_Z,
     "line 6: duplicate entry 'z0_1' in field 'Z'"),
    ("m: 1\n\nfield f:\n  type: scalar\n  value: z0_1\n  z0_1: 1\n", LIFT_F,
     "field 'f': scalar fields take exactly one 'value:' entry"),
    ("m: 1\n\nfield f:\n  type: scalar\n  z0_1: 1\n", LIFT_F,
     "field 'f': scalar fields take exactly one 'value:' entry"),
    ("m: 1\n\nfield J:\n  type: endo\n  z0_1: i\n",
     ("lift", "--field", "J", "--kind", "v", "--k", "1"),
     "line 5: field 'J' entries need two comma-separated coordinate names, "
     "got 'z0_1'"),
    ("m: 1\n\nfield G:\n  type: bilinear\n  z0_1, zb0_1, t: 1\n",
     ("lift", "--field", "G", "--kind", "v", "--k", "1"),
     "line 5: field 'G' entries need two comma-separated coordinate names, "
     "got 'z0_1, zb0_1, t'"),
    ("m: 1\nproduct: yes\n", LIFT_F,
     "line 2: product must be 'true' or 'false', got 'yes'"),
    ("m: 1\n\nconnection:\n  gamma 0 1 1: 1\n  gamma 0 1 1: 2\n", LIFT_F,
     "line 5: duplicate connection entry 'gamma 0 1 1'"),
    ("m: 1\n\nconnection:\n  gamma 0 1 1: 1\n\nconnection:\n"
     "  gamma 0 1 1: 2\n", LIFT_F, "line 6: duplicate connection block"),
    ("m: 1\n\nfield f:\n  type: scalar\n  value: 1\n\nfield f:\n"
     "  type: scalar\n  value: 2\n", LIFT_F, "line 7: duplicate field 'f'"),
], ids=["field-entry", "scalar-extra-entry", "scalar-without-value",
        "endo-one-name", "bilinear-three-names", "bad-boolean",
        "connection-entry", "connection-block", "field"])
def test_manifest_refusals_are_exit_3(capsys, tmp_path, text, argv, message):
    assert run(capsys, tmp_path, text, *argv) == refused(3, message)


def test_an_explicit_product_true_is_a_time_chart(capsys, tmp_path):
    text = "m: 1\nk: 1\nproduct: true\n\nfield f:\n  type: scalar\n" \
           "  value: t*z0_1\n"
    assert run(capsys, tmp_path, text, "lift", "--field", "f",
               "--kind", "h") == (0, "f^{H^1} = t*z0_1 - z0_1\n", "")


CONN_WITH_BARS = """\
m: 1
k: 1

field Z:
  type: vector
  z0_1: 1
  zb0_1: 1

connection:
  gamma 0 1 1: z0_1
  gammabar 0 1 1: 2*zb0_1
"""


def test_explicit_gammabar_entries_replace_the_conjugates(capsys, tmp_path):
    # The conjugate of gamma would be zb0_1; the manifest's 2*zb0_1 is read.
    assert run(capsys, tmp_path, CONN_WITH_BARS, "frame") == (0, """\
frame m=1 k=1 time=yes connection=manifest
d/dt
D[0,1] = d/dz0_1 + (-z0_1)*d/dz1_1
Dbar[0,1] = d/dzb0_1 + (-2*zb0_1)*d/dzb1_1
V[0,1] = d/dz1_1
Vbar[0,1] = d/dzb1_1
dt
theta[0,1] = dz0_1
thetabar[0,1] = dzb0_1
eta[0,1] = (z0_1)*dz0_1 + dz1_1
etabar[0,1] = (2*zb0_1)*dzb0_1 + dzb1_1
""", "")
    assert run(capsys, tmp_path, CONN_WITH_BARS, "lift", "--field", "Z",
               "--kind", "h") == (0, """\
Z^{H^1}:
  d/dz0_1: 1
  d/dz1_1: -z0_1
  d/dzb0_1: 1
  d/dzb1_1: -2*zb0_1
""", "")


BASIC = """\
m: 1
k: 2

field Z:
  type: vector
  t: 1
  z0_1: z0_1

field w:
  type: oneform
  z0_1: z0_1
"""


@pytest.mark.parametrize("field,out", [
    ("Z", "Z^{H^2}:\n  d/dt: 1\n  d/dz0_1: z0_1\n"),
    ("w", "w^{H^2}:\n  dz2_1: z0_1\n"),
])
def test_a_horizontal_lift_without_a_connection_block_uses_zero(
        capsys, tmp_path, field, out):
    assert run(capsys, tmp_path, BASIC, "lift", "--field", field,
               "--kind", "h") == (0, out, "")


@pytest.mark.parametrize("r,s", [("-1", "3"), ("3", "-1")])
def test_a_negative_split_is_a_usage_error(capsys, tmp_path, r, s):
    assert run(capsys, tmp_path, BASIC, "lift", "--field", "w", "--kind",
               "cv", "--r", r, "--s", s) == refused(
        2, "--r and --s must be >= 0")


# -- frame and table -----------------------------------------------------------

NO_K = "m: 1\n\nconnection:\n  gamma 0 1 1: z0_1\n"
NO_TIME = "m: 1\nproduct: false\n\nconnection:\n  gamma 0 1 1: z0_1\n"


@pytest.mark.parametrize("text,argv,message", [
    (NO_K, ("frame", "--m", "2", "--k", "1"),
     "--m 2 contradicts manifest m=1"),
    (NO_K, ("frame",),
     "no extension order: pass --k or declare k in the manifest"),
    (None, ("table", "--m", "0", "--k", "1"), "--m and --k must be >= 1"),
    (NO_K, ("table", "--m", "2", "--k", "1"),
     "--m 2 contradicts manifest m=1"),
    (NO_TIME, ("table", "--m", "1", "--k", "1"),
     "a connection table needs a chart with a time coordinate"),
    (NO_K, ("table", "--m", "1", "--k", "1", "--no-time"),
     "a connection table needs a chart with a time coordinate"),
], ids=["frame-m", "frame-no-k", "table-m-0", "table-m", "table-no-time",
        "table-flag-no-time"])
def test_frame_and_table_usage_errors(capsys, tmp_path, text, argv, message):
    assert run(capsys, tmp_path, text, *argv) == refused(2, message)


# -- lifts -------------------------------------------------------------------

F = ScalarField(C0, parse("z0_1"))
Z_T = VectorField(C0, {TIME: parse("z0_1"), Z0: Expr.one()})
W_T = OneForm(C0, {TIME: parse("z0_1"), Z0: Expr.one()})
Z1 = VectorField(C0, {Z0: Expr.one()})
W1 = OneForm(C0, {Z0: Expr.one()})


@pytest.mark.parametrize("call,message", [
    (lambda: L.fn_vertical(F, -1),
     "vertical lift takes a non-negative step count"),
    (lambda: L.fn_complete(F, -1),
     "complete lift takes a non-negative step count"),
    (lambda: L.fn_complete_vertical(F, -1, 1),
     "lift step counts must be non-negative"),
    (lambda: L.fn_complete_vertical(F, 1, -1),
     "lift step counts must be non-negative"),
    (lambda: L.vf_vertical_closed(Z1, -1), "lift order must be non-negative"),
    (lambda: L.of_vertical_closed(W1, -1), "lift order must be non-negative"),
    (lambda: L.vf_complete_closed(Z1, -1), "lift order must be non-negative"),
    (lambda: L.of_complete_closed(W1, -1), "lift order must be non-negative"),
    (lambda: L.vf_cv_closed(Z1, -1, 2), "lift split must be non-negative"),
    (lambda: L.vf_cv_closed(Z1, 2, -1), "lift split must be non-negative"),
    (lambda: L.of_cv_closed(W1, -1, 2), "lift split must be non-negative"),
    (lambda: L.of_cv_closed(W1, 2, -1), "lift split must be non-negative"),
    (lambda: L.vf_complete_closed(Z_T, 2),
     "closed-form complete lift requires a constant time component, "
     "got z0_1"),
    (lambda: L.of_complete_closed(W_T, 2),
     "closed-form complete lift requires a constant time component, "
     "got z0_1"),
    (lambda: L.vf_cv_closed(Z_T, 1, 1),
     "closed-form complete-vertical lift requires a constant time "
     "component, got z0_1"),
    (lambda: L.of_cv_closed(W_T, 1, 1),
     "closed-form complete-vertical lift requires a constant time "
     "component, got z0_1"),
    (lambda: L.gamma_gradient(ScalarField(ChartSpec(1, 0, False),
                                          parse("z0_1"))),
     "gamma_gradient requires a chart with a time coordinate"),
    (lambda: L.fn_horizontal(F, 0), "horizontal lift needs k >= 1"),
    (lambda: L.basis_lift_rows(1, 0), "basis tables need k >= 1"),
    (lambda: L._lift(F, "x", 1), "no 'x'-lift of a ScalarField"),
    (lambda: L._lift(ConnectionCoeffs.zero(C0.extend(1)), "v", 1),
     "no 'v'-lift of a ConnectionCoeffs"),
    (lambda: L._lift_closed(Z1, "h", 1), "no closed-form 'h'-lift"),
    (lambda: L._lift_closed(W1, "x", 1), "no closed-form 'x'-lift"),
    (lambda: L.t11_lift_solve(EndoField(C0, {(Z0, Z0): 1}), "c", 0),
     "determined lifts need k >= 1"),
    (lambda: L.t02_lift_solve(Bilinear(C0, {(Z0, ZB0): 1}), "v", 0),
     "determined lifts need k >= 1"),
], ids=["fn-vertical", "fn-complete", "fn-cv-r", "fn-cv-s", "vf-vertical",
        "of-vertical", "vf-complete", "of-complete", "vf-cv-r", "vf-cv-s",
        "of-cv-r", "of-cv-s", "vf-complete-time", "of-complete-time",
        "vf-cv-time", "of-cv-time", "gradient-time-free", "horizontal-k-0",
        "basis-k-0", "lift-scalar-kind", "lift-class", "closed-h",
        "closed-kind", "t11-k-0", "t02-k-0"])
def test_lift_refusals(call, message):
    with pytest.raises(L.LiftError) as err:
        call()
    assert str(err.value) == message


# -- comparisons and structures -----------------------------------------------

@pytest.mark.parametrize("m,k,samples,message", [
    (0, 2, 2, "m and k must both be at least 1"),
    (1, 0, 2, "m and k must both be at least 1"),
    (1, 2, 0, "samples must be at least 1"),
])
def test_compare_proposition_refusals(m, k, samples, message):
    with pytest.raises(VerifyError) as err:
        compare_proposition("P322", m, k, samples=samples)
    assert str(err.value) == message


def test_structure_operators_refuse_a_chart_mismatch():
    chart, other = ChartSpec(1, 1, False), ChartSpec(1, 2, False)
    with pytest.raises(StructureError) as err:
        star_apply(build_Jk_star(chart), OneForm(other, {Z0: 1}))
    assert str(err.value) == "operator and form live on different charts"
    with pytest.raises(StructureError) as err:
        fundamental_bilinear(Bilinear(other, {(Z0, ZB0): 1}), build_Jk(chart))
    assert str(err.value) == "metric and operator live on different charts"
