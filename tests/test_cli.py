"""Command-line surface: manifest parsing, the five subcommands, exit
codes, and byte-stable golden outputs."""

import pathlib

import pytest

from liftcalc.cli import ManifestError, load_manifest, main
from liftcalc.symkernel import parse

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
])
def test_manifest_errors(tmp_path, text, fragment):
    p = tmp_path / "bad.manifest"
    p.write_text(text)
    with pytest.raises(ManifestError) as err:
        load_manifest(str(p))
    assert fragment in str(err.value)


def test_manifest_missing_file():
    with pytest.raises(ManifestError):
        load_manifest("/nonexistent/path.manifest")


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


def test_lift_output_components_reparse(basic, capsys):
    _, out, _ = run(capsys, "lift", "--manifest", basic,
                    "--field", "g", "--kind", "c", "--k", "2")
    value = out.split(" = ", 1)[1].strip()
    assert parse(value) == parse("2*z0_1*z2_1 + 2*z1_1^2")


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


def test_lift_engine_error_is_exit_4(tmp_path, capsys):
    p = tmp_path / "m.manifest"
    p.write_text("m: 1\n\nfield Z:\n  type: vector\n  t: z0_1\n")
    code, _, err = run(capsys, "lift", "--manifest", str(p),
                       "--field", "Z", "--kind", "c", "--k", "1")
    assert code == 4
    assert "error:" in err


def test_lift_h_requires_product_manifest(tensors, capsys):
    code, _, err = run(capsys, "lift", "--manifest", tensors,
                       "--field", "J", "--kind", "h", "--k", "1")
    assert code == 2


def test_lift_endo_rejects_cv(tensors, capsys):
    code, _, _ = run(capsys, "lift", "--manifest", tensors,
                     "--field", "J", "--kind", "cv", "--r", "1", "--s", "1")
    assert code == 2


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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_outputs_are_byte_stable(capsys):
    a = run(capsys, "check", "vectors", "--m", "1", "--k", "1", "--seed", "5")
    b = run(capsys, "check", "vectors", "--m", "1", "--k", "1", "--seed", "5")
    assert a == b
