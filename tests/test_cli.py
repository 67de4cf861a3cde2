"""Command-line surface: manifest parsing, the five subcommands, exit
codes, and byte-stable golden outputs."""

import os
import pathlib
import subprocess
import sys

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.cli import ManifestError, load_manifest, main
from liftcalc.fields import ScalarField
from liftcalc.lifts import (
    basis_lift_rows,
    fn_complete_vertical,
    fn_horizontal,
    fn_vertical,
    of_complete_closed,
    of_cv_closed,
    of_horizontal,
    of_lift_solve,
    of_vertical_closed,
    t02_lift_solve,
    t11_lift_solve,
    vf_cv_closed,
    vf_lift_solve,
    vf_vertical_closed,
)
from liftcalc.symkernel import format_expr, parse

GOLDEN = pathlib.Path(__file__).parent / "golden"

BASIC = """\
# one holomorphic coordinate, product chart
m: 1
k: 2

field f:
  type: scalar
  value: z0_1

field g:
  type: scalar
  value: z0_1^2

field Z:
  type: vector
  t: 1
  z0_1: z0_1

field w:
  type: oneform
  z0_1: z0_1
"""

WITH_CONN = """\
m: 1
k: 1

field Z:
  type: vector
  z0_1: 1

connection:
  gamma 0 1 1: z0_1
"""

TENSORS = """\
m: 1
product: false

field J:
  type: endo
  z0_1, z0_1: i
  zb0_1, zb0_1: -i

field h:
  type: bilinear
  z0_1, zb0_1: 1
  zb0_1, z0_1: 1
"""


# One field of each rank-0/1 type and one endo field on a product chart,
# t-dependent where the route allows it, and a connection with both
# transition levels of k = 2.
ROUTES = """\
m: 1
k: 2

field f:
  type: scalar
  value: t*z0_1^2 + zb0_1

field Z:
  type: vector
  t: 1
  z0_1: z0_1*zb0_1
  zb0_1: z0_1^2

field w:
  type: oneform
  z0_1: z0_1^2
  zb0_1: t*z0_1

field J:
  type: endo
  z0_1, z0_1: i
  zb0_1, zb0_1: -i

connection:
  gamma 0 1 1: z0_1
  gamma 1 1 1: zb0_1
"""


@pytest.fixture
def routes(tmp_path):
    p = tmp_path / "routes.manifest"
    p.write_text(ROUTES)
    return str(p)


@pytest.fixture
def basic(tmp_path):
    p = tmp_path / "basic.manifest"
    p.write_text(BASIC)
    return str(p)


@pytest.fixture
def with_conn(tmp_path):
    p = tmp_path / "conn.manifest"
    p.write_text(WITH_CONN)
    return str(p)


@pytest.fixture
def tensors(tmp_path):
    p = tmp_path / "tensors.manifest"
    p.write_text(TENSORS)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- manifest parsing --------------------------------------------------------------

def test_manifest_round_trip(basic):
    man = load_manifest(basic)
    assert man.m == 1 and man.k == 2 and man.product
    assert set(man.fields) == {"f", "g", "Z", "w"}


def test_manifest_connection(with_conn):
    man = load_manifest(with_conn)
    assert man.has_connection
    chart = man.base_chart().extend(1)
    conn = man.connection(chart)
    assert conn.gamma_at(0, 1, 1) == parse("z0_1")
    # bars default to the conjugate
    assert conn.gammabar_at(0, 1, 1) == parse("zb0_1")


def test_manifest_no_time(tensors):
    man = load_manifest(tensors)
    assert not man.product
    assert man.k is None


@pytest.mark.parametrize("text,fragment", [
    ("k: 1\n", "missing the required 'm:'"),
    ("m: zero\n", "must be an integer"),
    ("m: 1\nm: 2\n", "duplicate key"),
    ("m: 1\nunknown: 3\n", "unknown top-level key"),
    ("m: 1\n\nfield f:\n  value: 1\n", "missing 'type:'"),
    ("m: 1\n\nfield f:\n  type: widget\n  value: 1\n", "unknown type"),
    ("m: 1\n\nfield Z:\n  type: vector\n  z0_2: 1\n", "not a coordinate"),
    ("m: 1\n\nblock:\n  a: 1\n", "unknown block"),
    ("m: 1\n  stray: 1\n", "outside any block"),
    ("m: 1\nnocolon\n", "expected 'key: value'"),
    ("m: 1\n\nconnection:\n  gamma 0 1: 1\n", "connection entries"),
    ("m: \u0661\n", "line 1: m must be an integer, got '\u0661'"),
    ("m: 1\nk: 1_0\n", "line 2: k must be an integer, got '1_0'"),
    ("m: 1\n\nconnection:\n  gamma \u0660 1 1: 1\n",
     "line 4: connection level must be an integer, got '\u0660'"),
    ("m: -1\n", "manifest key 'm' must be >= 1"),
    ("m: 1\nk: -1\n", "manifest key 'k' must be >= 1"),
])
def test_manifest_errors(tmp_path, text, fragment):
    p = tmp_path / "bad.manifest"
    p.write_text(text)
    with pytest.raises(ManifestError) as err:
        load_manifest(str(p))
    assert fragment in str(err.value)


def test_manifest_integer_past_the_int_limit_is_refused(tmp_path):
    # int() refuses more than 4,300 digits; that is the manifest's refusal
    # too, not a traceback.
    p = tmp_path / "huge.manifest"
    p.write_text("m: " + "1" * 5000 + "\n")
    with pytest.raises(ManifestError, match="^line 1: m must be an integer, got '1111"):
        load_manifest(str(p))


def test_manifest_missing_file():
    with pytest.raises(ManifestError):
        load_manifest("/nonexistent/path.manifest")


@pytest.mark.parametrize("argv_tail", [
    ("lift", "--field", "f", "--kind", "v", "--k", "1"),
    ("frame", "--k", "1"),
], ids=["lift", "frame"])
def test_manifest_that_is_not_utf8_is_exit_3(tmp_path, capsys, argv_tail):
    p = tmp_path / "m.manifest"
    p.write_bytes(b"m: 1\n\xff\n")
    code, out, err = run(capsys, argv_tail[0], "--manifest", str(p),
                         *argv_tail[1:])
    assert (code, out) == (3, "")
    assert err == (f"error: cannot read manifest {str(p)!r}: 'utf-8' codec "
                   f"can't decode byte 0xff in position 5: invalid start "
                   f"byte\n")


def test_manifest_ignores_a_leading_bom(tmp_path, capsys):
    p = tmp_path / "m.manifest"
    p.write_bytes("\ufeffm: 1\n\nfield f:\n  type: scalar\n  value: z0_1\n"
                  .encode("utf-8"))
    code, out, err = run(capsys, "lift", "--manifest", str(p),
                         "--field", "f", "--kind", "v", "--k", "1")
    assert (code, out, err) == (0, "f^{v^1} = z0_1\n", "")


# -- lift ---------------------------------------------------------------------------

def test_lift_scalar_complete(basic, capsys):
    code, out, _ = run(capsys, "lift", "--manifest", basic,
                       "--field", "f", "--kind", "c", "--k", "2")
    assert code == 0
    assert out == "f^{c^2} = z2_1\n"


def test_lift_uses_manifest_k_as_default(basic, capsys):
    code, out, _ = run(capsys, "lift", "--manifest", basic,
                       "--field", "f", "--kind", "c")
    assert code == 0
    assert out == "f^{c^2} = z2_1\n"


def test_lift_vector_solver_vs_closed(basic, capsys):
    code, out, _ = run(capsys, "lift", "--manifest", basic,
                       "--field", "Z", "--kind", "c", "--k", "2")
    assert code == 0
    assert out.splitlines() == [
        "Z^{c^2}:",
        "  d/dt: 1",
        "  d/dz0_1: z0_1",
        "  d/dz1_1: z1_1",
        "  d/dz2_1: z2_1",
    ]
    code, out, _ = run(capsys, "lift", "--manifest", basic,
                       "--field", "Z", "--kind", "c", "--k", "2",
                       "--closed-form")
    assert code == 0
    assert "  d/dz1_1: 2*z1_1" in out.splitlines()


def test_lift_cv_split(basic, capsys):
    code, out, _ = run(capsys, "lift", "--manifest", basic,
                       "--field", "w", "--kind", "cv", "--r", "1", "--s", "1")
    assert code == 0
    assert out.splitlines() == ["w^{c^1 v^1}:", "  dz0_1: z1_1",
                                "  dz1_1: z0_1"]


def test_lift_horizontal_with_connection(with_conn, capsys):
    code, out, _ = run(capsys, "lift", "--manifest", with_conn,
                       "--field", "Z", "--kind", "h")
    assert code == 0
    assert out.splitlines() == ["Z^{H^1}:", "  d/dz0_1: 1",
                                "  d/dz1_1: -z0_1"]


def test_lift_endo(tensors, capsys):
    code, out, _ = run(capsys, "lift", "--manifest", tensors,
                       "--field", "J", "--kind", "c", "--k", "1")
    assert code == 0
    assert "  d/dz1_1 <- d/dz1_1: i" in out.splitlines()


def test_lift_endo_with_a_time_input(tmp_path, capsys):
    # The (1,1) lift solves its own defining equations only; a dt part of
    # the tensor composed with a covector is no reason to refuse it.
    p = tmp_path / "timed.manifest"
    p.write_text("m: 1\nk: 1\n\nfield P:\n  type: endo\n  z0_1, t: z0_1\n")
    code, out, _ = run(capsys, "lift", "--manifest", str(p),
                       "--field", "P", "--kind", "c")
    assert code == 0
    assert out.splitlines() == ["P^{c^1}:", "  d/dz0_1 <- d/dt: z0_1",
                                "  d/dz1_1 <- d/dt: z1_1"]


def test_lift_output_components_reparse(basic, capsys):
    _, out, _ = run(capsys, "lift", "--manifest", basic,
                    "--field", "g", "--kind", "c", "--k", "2")
    value = out.split(" = ", 1)[1].strip()
    assert parse(value) == parse("2*z0_1*z2_1 + 2*z1_1^2")


def _printed(name, symbol, res):
    """What `lift` prints for the library's result `res`."""
    if isinstance(res, ScalarField):
        return f"{name}^{{{symbol}}} = {format_expr(res.value)}\n"
    return "".join([f"{name}^{{{symbol}}}:\n"]
                   + [f"  {line}\n" for line in res._lines()])


@pytest.mark.parametrize("name,argv_tail,symbol,route", [
    ("f", ("--kind", "v"), "v^2", lambda f, conn: fn_vertical(f, 2)),
    ("f", ("--kind", "cv", "--r", "1", "--s", "1"), "c^1 v^1",
     lambda f, conn: fn_complete_vertical(f, 1, 1)),
    ("f", ("--kind", "h"), "H^2", lambda f, conn: fn_horizontal(f, 2)),
    ("Z", ("--kind", "v"), "v^2", lambda Z, conn: vf_lift_solve(Z, "v", 2)),
    ("Z", ("--kind", "cv", "--r", "1", "--s", "1"), "c^1 v^1",
     lambda Z, conn: vf_lift_solve(Z, "cv", 2, r=1, s=1)),
    ("Z", ("--kind", "v", "--closed-form"), "v^2",
     lambda Z, conn: vf_vertical_closed(Z, 2)),
    ("Z", ("--kind", "cv", "--r", "1", "--s", "1", "--closed-form"),
     "c^1 v^1", lambda Z, conn: vf_cv_closed(Z, 1, 1)),
    ("w", ("--kind", "h"), "H^2", lambda w, conn: of_horizontal(w, conn)),
    ("w", ("--kind", "v"), "v^2", lambda w, conn: of_lift_solve(w, "v", 2)),
    ("w", ("--kind", "c"), "c^2", lambda w, conn: of_lift_solve(w, "c", 2)),
    ("w", ("--kind", "v", "--closed-form"), "v^2",
     lambda w, conn: of_vertical_closed(w, 2)),
    ("w", ("--kind", "c", "--closed-form"), "c^2",
     lambda w, conn: of_complete_closed(w, 2)),
    ("w", ("--kind", "cv", "--r", "1", "--s", "1", "--closed-form"),
     "c^1 v^1", lambda w, conn: of_cv_closed(w, 1, 1)),
    ("J", ("--kind", "v"), "v^2", lambda J, conn: t11_lift_solve(J, "v", 2)),
], ids=["scalar-v", "scalar-cv", "scalar-h", "vector-v", "vector-cv",
        "vector-closed-v", "vector-closed-cv", "oneform-h", "oneform-v",
        "oneform-c", "oneform-closed-v", "oneform-closed-c",
        "oneform-closed-cv", "endo-v"])
def test_lift_prints_the_library_route(routes, capsys, name, argv_tail,
                                       symbol, route):
    manifest = load_manifest(routes)
    conn = manifest.connection(manifest.base_chart().extend(2))
    expected = _printed(name, symbol, route(manifest.fields[name], conn))
    code, out, err = run(capsys, "lift", "--manifest", routes,
                         "--field", name, *argv_tail)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("kind", ["v", "c"])
def test_lift_bilinear_prints_the_library_route(tensors, capsys, kind):
    h = load_manifest(tensors).fields["h"]
    expected = _printed("h", f"{kind}^1", t02_lift_solve(h, kind, 1))
    code, out, err = run(capsys, "lift", "--manifest", tensors,
                         "--field", "h", "--kind", kind, "--k", "1")
    assert (code, out, err) == (0, expected, "")


def test_table_with_a_manifest_connection(routes, capsys):
    manifest = load_manifest(routes)
    conn = manifest.connection(ChartSpec(1, 0, True).extend(2))
    expected = "".join(f"{label} = {value}\n" for label, value
                       in basis_lift_rows(1, 2, has_time=True, conn=conn))
    code, out, err = run(capsys, "table", "--m", "1", "--k", "2",
                         "--manifest", routes)
    assert (code, out, err) == (0, expected, "")
    assert "(d/dz0_1)^{H^2} = d/dz0_1 + (-z0_1)*d/dz1_1" in out.splitlines()


# -- lift usage errors ------------------------------------------------------------------

@pytest.mark.parametrize("argv_tail,code", [
    (("--field", "f", "--kind", "cv", "--k", "2"), 2),           # no r/s
    (("--field", "f", "--kind", "cv", "--r", "1", "--s", "2",
      "--k", "2"), 2),                                           # r+s != k
    (("--field", "f", "--kind", "v", "--r", "1", "--k", "1"), 2),  # stray r
    (("--field", "f", "--kind", "v"), 2),                        # k unset…
    (("--field", "f", "--kind", "c", "--k", "0"), 2),            # bad k
    (("--field", "f", "--kind", "c", "--k", "1",
      "--closed-form"), 2),                                      # scalar
    (("--field", "missing", "--kind", "c", "--k", "1"), 3),      # no field
])
def test_lift_error_codes(tmp_path, capsys, argv_tail, code):
    p = tmp_path / "m.manifest"
    # no k in the manifest so the "k unset" case triggers
    p.write_text("m: 1\n\nfield f:\n  type: scalar\n  value: z0_1\n")
    got = main(["lift", "--manifest", str(p), *argv_tail])
    capsys.readouterr()
    assert got == code


def test_lift_refuses_a_power_beyond_the_degree_limit(tmp_path, capsys):
    p = tmp_path / "m.manifest"
    p.write_text("m: 1\n\nfield f:\n  type: scalar\n"
                 "  value: (z0_1+zb0_1+z0_1*zb0_1+1)^200\n")
    code, _, err = run(capsys, "lift", "--manifest", str(p),
                       "--field", "f", "--kind", "c", "--k", "1")
    assert code == 3
    assert "power of degree 400 exceeds the limit 64" in err


@pytest.mark.parametrize("value,message", [
    ("(3/2)^20000*z0_1",
     "power of 40000 coefficient bits exceeds the limit 4096 (at position 6)"),
    ("2\u00b2*z0_1", "unexpected character '\u00b2*z0' (at position 1)"),
    ("z\u0663_1", "unexpected character 'z\u0663_1' (at position 0)"),
])
def test_lift_refuses_huge_constant_powers_and_non_ascii_digits(
        tmp_path, capsys, value, message):
    p = tmp_path / "m.manifest"
    p.write_text(f"m: 1\n\nfield f:\n  type: scalar\n  value: {value}\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "lift", "--manifest", str(p),
                         "--field", "f", "--kind", "c", "--k", "1")
    assert code == 3
    assert out == ""
    assert message in err


@pytest.mark.parametrize("value,message", [
    ("(3/2)^2048*(3/2)^2048*(3/2)^2048*(3/2)^2048*(3/2)^2048*z0_1",
     "coefficient of 9739 bits exceeds the limit 8192 (at position 22)"),
    ("(z0_1+z0_2+z0_3+zb0_1+zb0_2+zb0_3+t+1)^12",
     "expansion of 50388 terms exceeds the limit 10000 (at position 39)"),
], ids=["coefficient-bits", "term-count"])
def test_lift_refuses_over_budget_terms(tmp_path, capsys, value, message):
    p = tmp_path / "m.manifest"
    p.write_text(f"m: 3\n\nfield f:\n  type: scalar\n  value: {value}\n")
    code, out, err = run(capsys, "lift", "--manifest", str(p),
                         "--field", "f", "--kind", "c", "--k", "1")
    assert code == 3
    assert out == ""
    assert message in err


def test_lift_refuses_nesting_beyond_the_depth_limit(tmp_path, capsys):
    p = tmp_path / "m.manifest"
    value = "(" * 1000 + "z0_1" + ")" * 1000
    p.write_text(f"m: 1\n\nfield f:\n  type: scalar\n  value: {value}\n")
    code, out, err = run(capsys, "lift", "--manifest", str(p),
                         "--field", "f", "--kind", "c", "--k", "1")
    assert (code, out) == (3, "")
    assert err == ("error: nesting depth 101 exceeds the limit 100 "
                   "(at position 100)\n")


def test_lift_engine_error_is_exit_4(tmp_path, capsys):
    p = tmp_path / "m.manifest"
    p.write_text("m: 1\n\nfield Z:\n  type: vector\n  t: z0_1\n")
    code, _, err = run(capsys, "lift", "--manifest", str(p),
                       "--field", "Z", "--kind", "c", "--k", "1")
    assert code == 4
    assert "error:" in err


def test_lift_too_large_to_print_is_exit_4(tmp_path, capsys):
    # Each coefficient parses (8,077 bits); the horizontal lift multiplies
    # two of them past what an int prints as under the default digit limit.
    big = "(3/2)^2048*(3/2)^2048*(3/2)^1000*z0_1"
    p = tmp_path / "m.manifest"
    p.write_text(f"m: 1\nfield Z:\n  type: vector\n  z0_1: {big}\n"
                 f"connection:\n  gamma 0 1 1: {big}\n")
    code, out, err = run(capsys, "lift", "--manifest", str(p),
                         "--field", "Z", "--kind", "h", "--k", "1")
    assert (code, out) == (4, "")
    assert err == ("error: coefficient of 16154 bits is too large to print "
                   "(limit 14280)\n")


def test_lift_h_requires_product_manifest(tensors, capsys):
    code, _, err = run(capsys, "lift", "--manifest", tensors,
                       "--field", "J", "--kind", "h", "--k", "1")
    assert code == 2


def test_lift_endo_rejects_cv(tensors, capsys):
    code, _, _ = run(capsys, "lift", "--manifest", tensors,
                     "--field", "J", "--kind", "cv", "--r", "1", "--s", "1")
    assert code == 2


@pytest.mark.parametrize("fixture,argv_tail,text", [
    ("tensors", ("--field", "h", "--kind", "cv", "--r", "1", "--s", "0"),
     "error: bilinear fields lift with --kind v or c only\n"),
    ("routes", ("--field", "Z", "--kind", "h", "--closed-form"),
     "error: --closed-form does not combine with --kind h (the horizontal "
     "lift is already a direct construction)\n"),
    ("basic", ("--field", "w", "--kind", "cv", "--r", "1", "--s", "2"),
     "error: manifest k=2 contradicts --r 1 + --s 2\n"),
    ("basic", ("--field", "w", "--kind", "cv", "--k", "3", "--r", "1", "--s", "1"),
     "error: --k 3 contradicts --r 1 + --s 1\n"),
], ids=["bilinear-cv", "closed-form-h", "cv-against-manifest-k", "cv-against-flag-k"])
def test_lift_route_usage_errors(request, capsys, fixture, argv_tail, text):
    code, out, err = run(capsys, "lift", "--manifest",
                         request.getfixturevalue(fixture), *argv_tail)
    assert (code, out, err) == (2, "", text)


@pytest.mark.parametrize("argv_tail", [
    ("--kind", "c", "--k", "1"),
    ("--kind", "cv", "--r", "1", "--s", "0"),
], ids=["c", "cv"])
def test_lift_oneform_with_dt_is_exit_4(tmp_path, capsys, argv_tail):
    p = tmp_path / "m.manifest"
    p.write_text("m: 1\n\nfield w:\n  type: oneform\n  t: 2\n  z0_1: z0_1\n")
    code, out, err = run(capsys, "lift", "--manifest", str(p),
                         "--field", "w", *argv_tail)
    kind = argv_tail[1]
    assert (code, out) == (4, "")
    assert err == (f"error: one-form {kind}-lift requires a zero time "
                   f"component, got 2\n")


def test_parse_error_in_manifest_is_exit_3(tmp_path, capsys):
    p = tmp_path / "m.manifest"
    p.write_text("m: 1\n\nfield f:\n  type: scalar\n  value: z0_1 + )\n")
    code, _, err = run(capsys, "lift", "--manifest", str(p),
                       "--field", "f", "--kind", "v", "--k", "1")
    assert code == 3
    assert "error:" in err


# -- check / compare -------------------------------------------------------------------

# The vectors and one-forms goldens carry every CONFLICT witness of their
# suites (V6, V8, V9, V15, O8, O12, O14).
@pytest.mark.parametrize("argv,golden", [
    (("functions", "--seed", "7", "--samples", "25"),
     "check_functions_m1_k2_seed7.txt"),
    (("vectors", "--seed", "7", "--with-time"),
     "check_vectors_m1_k2_seed7_time.txt"),
    (("oneforms", "--seed", "7", "--with-time"),
     "check_oneforms_m1_k2_seed7_time.txt"),
], ids=["functions", "vectors", "oneforms"])
def test_check_exit_zero_and_golden(capsys, argv, golden):
    code, out, _ = run(capsys, "check", argv[0], "--m", "1", "--k", "2",
                       *argv[1:])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_check_all_golden_at_m2(capsys):
    # two complex dimensions: every frame, basis and structure table runs
    # over more than one index, and all seven suites share one generator
    code, out, _ = run(capsys, "check", "all", "--m", "2", "--k", "2",
                       "--seed", "3", "--samples", "1", "--with-time")
    assert code == 0
    assert out == (GOLDEN / "check_all_m2_k2_seed3_time.txt").read_text()


def test_check_oneforms_above_the_degree_one_fields(capsys):
    # At m = 1, k = 6 the pairing solves its square ladder; both stages of
    # degree <= 2 fields used to leave the top level free (exit 4).
    code, out, err = run(capsys, "check", "oneforms", "--m", "1", "--k", "6",
                         "--seed", "0")
    assert (code, err) == (0, "")
    assert "0 FAIL" in out.splitlines()[-2]


def test_check_warns_on_conflicts(capsys):
    code, out, _ = run(capsys, "check", "functions", "--m", "1", "--k", "1",
                       "--with-time")
    assert code == 0  # documented conflicts do not fail the run
    assert "warning: 4 documented-conflict clauses" in out


def test_check_exit_one_on_failures(capsys, monkeypatch):
    # engine failures are exit 1: substitute a report carrying one
    class Stub:
        n_conflict = 0
        n_fail = 1

        def render(self):
            return "stub"

    import liftcalc.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_suite",
                        lambda *a, **k: Stub())
    code, out, _ = run(capsys, "check", "functions", "--m", "1", "--k", "1")
    assert code == 1
    assert out == "stub\n"


@pytest.mark.parametrize("argv,text", [
    (("--m", "1048576", "--k", "1"),
     "error: complex dimension m=1048576 exceeds the limit 1048575\n"),
    (("--m", "1", "--k", "1048576"),
     "error: extension order k=1048576 exceeds the limit 1048575\n"),
], ids=["m", "k"])
def test_frame_refuses_charts_beyond_the_code_range(capsys, argv, text):
    code, out, err = run(capsys, "frame", *argv)
    assert (code, out, err) == (3, "", text)


@pytest.mark.parametrize("argv,text", [
    (("--m", "0", "--k", "1"), "error: --m must be >= 1\n"),
    (("--m", "1", "--k", "-1"), "error: --k must be >= 1\n"),
    (("--m", "0", "--k", "0"), "error: --m must be >= 1\n"),
], ids=["m", "k", "both"])
def test_frame_refuses_low_m_and_k_as_usage_errors(capsys, argv, text):
    assert run(capsys, "frame", *argv) == (2, "", text)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_frame_refuses_a_low_k_with_a_manifest(with_conn, capsys, k):
    assert run(capsys, "frame", "--manifest", with_conn, "--k", k) == \
        (2, "", "error: --k must be >= 1\n")


def test_lift_refuses_a_coordinate_beyond_the_code_range(tmp_path, capsys):
    p = tmp_path / "m.manifest"
    p.write_text("m: 1\n\nfield f:\n  type: scalar\n"
                 "  value: z0_1 + z1048576_1\n")
    code, out, err = run(capsys, "lift", "--manifest", str(p),
                         "--field", "f", "--kind", "c", "--k", "1")
    assert code == 3
    assert out == ""
    assert ("coordinate level or index exceeds the limit 1048575 "
            "(at position 7)") in err


def test_check_output_does_not_depend_on_the_hash_seed():
    """Reports come from term maps and sets keyed by hashes; their text must
    not follow the interpreter's string-hash randomisation."""
    root = pathlib.Path(__file__).resolve().parent.parent
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "liftcalc.cli", "check", "all", "--m", "1",
             "--k", "1", "--seed", "0"],
            cwd=root, env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        outs.append(done.stdout)
    assert outs[0]
    assert outs[0] == outs[1]


def test_check_rejects_bad_arguments(capsys):
    code, _, err = run(capsys, "check", "functions", "--m", "0", "--k", "1")
    assert code == 2


# P333 carries four MISMATCH witnesses on the one-form cv route.
@pytest.mark.parametrize("prop", ["P322", "P333"])
def test_compare_golden_and_exit_zero(capsys, prop):
    code, out, _ = run(capsys, "compare", prop, "--m", "1", "--k", "2")
    assert code == 0  # a mismatch verdict is a result, not an error
    assert out == (GOLDEN / f"compare_{prop}_m1_k2.txt").read_text()


def test_compare_match_case(capsys):
    code, out, _ = run(capsys, "compare", "P321", "--m", "1", "--k", "1")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: MATCH"


def test_compare_k_cap_is_usage_error(capsys):
    code, _, err = run(capsys, "compare", "P321", "--m", "1", "--k", "5")
    assert code == 2


def test_compare_at_the_k_cap(capsys):
    code, out, _ = run(capsys, "compare", "P321", "--m", "2", "--k", "4")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: MATCH"


# -- frame / table -----------------------------------------------------------------------

def test_frame_golden(capsys):
    code, out, _ = run(capsys, "frame", "--m", "1", "--k", "1")
    assert code == 0
    assert out == (GOLDEN / "frame_m1_k1.txt").read_text()


def test_frame_with_manifest_connection(with_conn, capsys):
    code, out, _ = run(capsys, "frame", "--manifest", with_conn)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "frame m=1 k=1 time=yes connection=manifest"
    assert "D[0,1] = d/dz0_1 + (-z0_1)*d/dz1_1" in lines
    assert "eta[0,1] = (z0_1)*dz0_1 + dz1_1" in lines


def test_frame_requires_m_and_k(capsys):
    assert run(capsys, "frame", "--k", "1")[0] == 2
    assert run(capsys, "frame", "--m", "1")[0] == 2


def test_table_golden(capsys):
    code, out, _ = run(capsys, "table", "--m", "1", "--k", "2")
    assert code == 0
    assert out == (GOLDEN / "table_m1_k2.txt").read_text()


def test_table_no_time(capsys):
    code, out, _ = run(capsys, "table", "--m", "1", "--k", "1", "--no-time")
    assert code == 0
    assert "t" not in out
    assert "(d/dz0_1)^{v^1} = d/dz1_1" in out.splitlines()


# -- top-level ------------------------------------------------------------------------------

def test_usage_exit_codes(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["lift"]) == 2  # missing required flags
    capsys.readouterr()
    assert main(["check", "nosuite", "--m", "1", "--k", "1"]) == 2
    capsys.readouterr()


# int() also reads non-ASCII digits and underscores; the integer flags, like
# manifest integers, take signed ASCII digits only.
@pytest.mark.parametrize("argv,flag,value", [
    (("table", "--m", "\u0661", "--k", "1_0"), "--m", "\u0661"),
    (("table", "--m", "1", "--k", "1_0"), "--k", "1_0"),
    (("check", "functions", "--m", "1", "--k", "1", "--seed", "\u0663"), "--seed", "\u0663"),
    (("check", "functions", "--m", "1", "--k", "1", "--samples", "1_0"), "--samples", "1_0"),
    (("compare", "P321", "--m", "+\u0661", "--k", "1"), "--m", "+\u0661"),
    (("frame", "--m", "1", "--k", " 1"), "--k", " 1"),
    (("lift", "--manifest", "m", "--field", "f", "--kind", "cv", "--r", "1_0"), "--r", "1_0"),
    (("lift", "--manifest", "m", "--field", "f", "--kind", "cv", "--s", "\u0662"), "--s", "\u0662"),
], ids=["table-m", "table-k", "seed", "samples", "compare-m", "frame-k", "r", "s"])
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: invalid int value: {value!r}" in err


def test_integer_flags_take_signed_ascii_digits(capsys):
    assert run(capsys, "table", "--m", "+1", "--k", "02")[:2] == \
        run(capsys, "table", "--m", "1", "--k", "2")[:2]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_outputs_are_byte_stable(capsys):
    a = run(capsys, "check", "vectors", "--m", "1", "--k", "1", "--seed", "5")
    b = run(capsys, "check", "vectors", "--m", "1", "--k", "1", "--seed", "5")
    assert a == b
