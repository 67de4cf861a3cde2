"""Command-line front end.

Five subcommands drive the package without writing Python:

``lift``
    read a manifest file, pick one of its declared fields, and print the
    requested lift (solver route by default, ``--closed-form`` for the
    direct constructors where one exists);
``check``
    run one identity suite (or all of them) and print the clause report;
    exits nonzero only on undocumented failures;
``compare``
    build one lift both ways — defining equations and closed form — and
    print the match/mismatch report;
``frame``
    print the connection-adapted frame and coframe of an order-k chart;
``table``
    print the coordinate-basis lift table.

Exit codes: 0 success (including a MISMATCH verdict, which is a result,
not an error), 1 suite failure, 2 usage error, 3 input/parse error,
4 engine error (a lift or solve that cannot be completed).

Manifest files are plain text: ``key: value`` lines at top level, with
``field NAME:`` and ``connection:`` opening indented blocks.  See the
README for the full grammar.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from .charts import ChartError, ChartSpec
from .fields import (
    Bilinear,
    ConnectionCoeffs,
    EndoField,
    FieldError,
    OneForm,
    ScalarField,
    VectorField,
)
from .lifts import (
    LiftError,
    _lift,
    _lift_closed,
    adapted_frame,
    basis_lift_rows,
)
from .structures import StructureError
from .symkernel import (
    CoordId,
    Expr,
    LinearSolveError,
    ParseError,
    SymKernelError,
    format_expr,
    parse,
)
from .verify import (
    COMPARISONS,
    SUITES,
    VerifyError,
    compare_proposition,
    run_suite,
)


class ManifestError(Exception):
    """Structurally invalid manifest file."""


class _UsageError(Exception):
    """Flag combination the command cannot honour (exit code 2)."""


# -- manifest ----------------------------------------------------------------

_FIELD_TYPES = ("scalar", "vector", "oneform", "endo", "bilinear")


class Manifest:
    """Parsed manifest: a base chart, named fields on it, and optional
    connection coefficients (kept symbolic until an extension order is
    fixed, because their level index is bounded by k)."""

    def __init__(self, m: int, k: int | None, product: bool,
                 fields: dict[str, object],
                 gamma: dict[tuple[int, int, int], Expr],
                 gammabar: dict[tuple[int, int, int], Expr] | None,
                 has_connection: bool):
        self.m = m
        self.k = k
        self.product = product
        self.fields = fields
        self._gamma = gamma
        self._gammabar = gammabar
        self.has_connection = has_connection

    def base_chart(self) -> ChartSpec:
        return ChartSpec(self.m, 0, self.product)

    def connection(self, target: ChartSpec) -> ConnectionCoeffs:
        """Materialise the declared coefficients on an order-k chart
        (zero connection when the manifest has no block)."""
        if not self.has_connection:
            return ConnectionCoeffs.zero(target)
        return ConnectionCoeffs(target, self._gamma, self._gammabar)


def _split_kv(line: str, lineno: int) -> tuple[str, str]:
    if ":" not in line:
        raise ManifestError(f"line {lineno}: expected 'key: value', got {line!r}")
    key, _, value = line.partition(":")
    return key.strip(), value.strip()


def _parse_blocks(text: str) -> tuple[dict[str, tuple[str, int]],
                                      list[tuple[str, int, list[tuple[str, str, int]]]]]:
    """Split manifest text into top-level simple keys and indented blocks.

    Returns (simple, blocks) where simple maps key -> (value, lineno) and
    blocks is a list of (header, lineno, [(key, value, lineno), ...]).
    """
    simple: dict[str, tuple[str, int]] = {}
    blocks: list[tuple[str, int, list[tuple[str, str, int]]]] = []
    current: list[tuple[str, str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indented = raw[0] in (" ", "\t")
        if indented:
            if current is None:
                raise ManifestError(
                    f"line {lineno}: indented line outside any block")
            key, value = _split_kv(stripped, lineno)
            current.append((key, value, lineno))
            continue
        key, value = _split_kv(stripped, lineno)
        if value == "":
            current = []
            blocks.append((key, lineno, current))
        else:
            current = None
            if key in simple:
                raise ManifestError(f"line {lineno}: duplicate key {key!r}")
            simple[key] = (value, lineno)
    return simple, blocks


def _ascii_int(value: str) -> int:
    """The integer of signed ASCII digits (``int()`` also takes '1_0' and
    non-ASCII digits); a ValueError for any other text.  Manifest integers
    and the integer flags both read through it."""
    if re.fullmatch(r"[+-]?[0-9]+", value) is None:
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


# argparse names the type in its refusal ("invalid int value: 'x'").
_ascii_int.__name__ = "int"


def _parse_int(value: str, lineno: int, what: str) -> int:
    try:
        return _ascii_int(value)
    except ValueError:
        raise ManifestError(
            f"line {lineno}: {what} must be an integer, got {value!r}") from None


def _parse_bool(value: str, lineno: int, what: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ManifestError(
        f"line {lineno}: {what} must be 'true' or 'false', got {value!r}")


def _build_field(name: str, chart: ChartSpec,
                 entries: list[tuple[str, str, int]], header_line: int):
    table = dict()
    for key, value, lineno in entries:
        if key in table:
            raise ManifestError(f"line {lineno}: duplicate entry {key!r} "
                                f"in field {name!r}")
        table[key] = (value, lineno)
    if "type" not in table:
        raise ManifestError(
            f"line {header_line}: field {name!r} is missing 'type:'")
    ftype, _ = table.pop("type")
    if ftype not in _FIELD_TYPES:
        raise ManifestError(
            f"field {name!r}: unknown type {ftype!r} "
            f"(expected one of {', '.join(_FIELD_TYPES)})")
    coords = {c.name: c for c in chart.coordinates()}

    def coord(token: str, lineno: int) -> CoordId:
        c = coords.get(token)
        if c is None:
            raise ManifestError(
                f"line {lineno}: {token!r} is not a coordinate of the "
                f"base chart (m={chart.m}, "
                f"{'with' if chart.has_time else 'no'} time)")
        return c

    if ftype == "scalar":
        if set(table) != {"value"}:
            raise ManifestError(
                f"field {name!r}: scalar fields take exactly one "
                f"'value:' entry")
        value, _ = table["value"]
        return ScalarField(chart, parse(value))

    if ftype in ("vector", "oneform"):
        comps = {}
        for token, (value, lineno) in table.items():
            comps[coord(token, lineno)] = parse(value)
        cls = VectorField if ftype == "vector" else OneForm
        return cls(chart, comps)

    # endo / bilinear: keys are "name, name" pairs
    entries2 = {}
    for token, (value, lineno) in table.items():
        parts = [p.strip() for p in token.split(",")]
        if len(parts) != 2:
            raise ManifestError(
                f"line {lineno}: field {name!r} entries need two "
                f"comma-separated coordinate names, got {token!r}")
        pair = (coord(parts[0], lineno), coord(parts[1], lineno))
        entries2[pair] = parse(value)
    cls = EndoField if ftype == "endo" else Bilinear
    return cls(chart, entries2)


def _build_connection(entries: list[tuple[str, str, int]]
                      ) -> tuple[dict, dict | None]:
    gamma: dict[tuple[int, int, int], Expr] = {}
    gammabar: dict[tuple[int, int, int], Expr] = {}
    saw_bar = False
    for key, value, lineno in entries:
        parts = key.split()
        if len(parts) != 4 or parts[0] not in ("gamma", "gammabar"):
            raise ManifestError(
                f"line {lineno}: connection entries look like "
                f"'gamma R I J: expr' or 'gammabar R I J: expr', got {key!r}")
        r = _parse_int(parts[1], lineno, "connection level")
        i = _parse_int(parts[2], lineno, "connection index")
        j = _parse_int(parts[3], lineno, "connection index")
        target = gamma if parts[0] == "gamma" else gammabar
        if parts[0] == "gammabar":
            saw_bar = True
        if (r, i, j) in target:
            raise ManifestError(f"line {lineno}: duplicate connection "
                                f"entry {key!r}")
        target[(r, i, j)] = parse(value)
    # with no explicit bars the conjugates are derived at materialisation
    return gamma, (gammabar if saw_bar else None)


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path!r}: {exc}") from exc
    simple, blocks = _parse_blocks(text)

    if "m" not in simple:
        raise ManifestError("manifest is missing the required 'm:' key")
    m = _parse_int(*simple["m"], what="m")
    if m < 1:
        raise ManifestError("manifest key 'm' must be >= 1")
    k = None
    if "k" in simple:
        k = _parse_int(*simple["k"], what="k")
        if k < 1:
            raise ManifestError("manifest key 'k' must be >= 1")
    product = True
    if "product" in simple:
        product = _parse_bool(*simple["product"], what="product")
    for key in simple:
        if key not in ("m", "k", "product"):
            raise ManifestError(f"unknown top-level key {key!r}")

    chart = ChartSpec(m, 0, product)
    fields: dict[str, object] = {}
    gamma: dict[tuple[int, int, int], Expr] = {}
    gammabar: dict[tuple[int, int, int], Expr] | None = None
    has_connection = False
    for header, lineno, entries in blocks:
        if header == "connection":
            if has_connection:
                raise ManifestError(
                    f"line {lineno}: duplicate connection block")
            gamma, gammabar = _build_connection(entries)
            has_connection = True
            continue
        parts = header.split()
        if len(parts) != 2 or parts[0] != "field":
            raise ManifestError(
                f"line {lineno}: unknown block {header!r} (expected "
                f"'field NAME:' or 'connection:')")
        name = parts[1]
        if name in fields:
            raise ManifestError(f"line {lineno}: duplicate field {name!r}")
        fields[name] = _build_field(name, chart, entries, lineno)
    return Manifest(m, k, product, fields, gamma, gammabar, has_connection)


# -- lift command ------------------------------------------------------------

def _lift_symbol(kind: str, k: int, r: int | None, s: int | None) -> str:
    if kind == "v":
        return f"v^{k}"
    if kind == "c":
        return f"c^{k}"
    if kind == "cv":
        return f"c^{r} v^{s}"
    return f"H^{k}"


def _resolve_order(args, manifest: Manifest) -> tuple[int, int | None, int | None]:
    r = args.r
    s = args.s
    if args.kind != "cv":
        if r is not None or s is not None:
            raise _UsageError("--r/--s apply only to --kind cv")
    k = args.k if args.k is not None else manifest.k
    if args.kind == "cv":
        if r is None or s is None:
            raise _UsageError("--kind cv needs both --r and --s")
        if r < 0 or s < 0:
            raise _UsageError("--r and --s must be >= 0")
        if k is None:
            k = r + s
        elif k != r + s:
            given = f"--k {k}" if args.k is not None else f"manifest k={k}"
            raise _UsageError(f"{given} contradicts --r {r} + --s {s}")
    if k is None:
        raise _UsageError("no extension order: pass --k or declare k in "
                          "the manifest")
    if k < 1:
        raise _UsageError("--k must be >= 1")
    return k, r, s


def cmd_lift(args) -> int:
    manifest = load_manifest(args.manifest)
    if args.field not in manifest.fields:
        raise ManifestError(
            f"manifest declares no field named {args.field!r} "
            f"(has: {', '.join(sorted(manifest.fields)) or 'none'})")
    obj = manifest.fields[args.field]
    kind = args.kind
    k, r, s = _resolve_order(args, manifest)

    if kind == "h" and not manifest.product:
        raise _UsageError("--kind h needs a manifest with product: true")
    if args.closed_form and not isinstance(obj, (VectorField, OneForm)):
        raise _UsageError("--closed-form applies only to vector and "
                          "oneform fields")
    if args.closed_form and kind == "h":
        raise _UsageError("--closed-form does not combine with --kind h "
                          "(the horizontal lift is already a direct "
                          "construction)")

    if isinstance(obj, (EndoField, Bilinear)) and kind not in ("v", "c"):
        noun = "endo" if isinstance(obj, EndoField) else "bilinear"
        raise _UsageError(f"{noun} fields lift with --kind v or c only")
    # Only a horizontal rank-1 lift reads the connection, so a connection
    # block that does not fit order k fails no other lift.
    conn = None
    if kind == "h" and isinstance(obj, (VectorField, OneForm)):
        conn = manifest.connection(manifest.base_chart().extend(k))
    res = _lift_closed(obj, kind, k, r=r, s=s) if args.closed_form \
        else _lift(obj, kind, k, r=r, s=s, conn=conn)
    head = f"{args.field}^{{{_lift_symbol(kind, k, r, s)}}}"
    if isinstance(obj, ScalarField):
        print(f"{head} = {format_expr(res.value)}")
        return 0
    lines = res._lines()   # before the header: formatting can refuse
    print(f"{head}:")
    for line in lines:
        print(f"  {line}")
    return 0


# -- check / compare ---------------------------------------------------------

def cmd_check(args) -> int:
    report = run_suite(args.suite, args.m, args.k, seed=args.seed,
                       samples=args.samples, t_free=not args.with_time)
    print(report.render())
    if report.n_conflict:
        plural = "s" if report.n_conflict != 1 else ""
        print(f"warning: {report.n_conflict} documented-conflict "
              f"clause{plural}")
    return 1 if report.n_fail else 0


def cmd_compare(args) -> int:
    report = compare_proposition(args.prop, args.m, args.k, seed=args.seed,
                                 samples=args.samples)
    print(report.render())
    return 0


# -- frame / table -----------------------------------------------------------

def _frame_chart(args) -> tuple[ChartSpec, ConnectionCoeffs, str]:
    manifest = load_manifest(args.manifest) if args.manifest else None
    if manifest is not None:
        m, product = manifest.m, manifest.product
        if args.m is not None and args.m != m:
            raise _UsageError(f"--m {args.m} contradicts manifest m={m}")
        k = args.k if args.k is not None else manifest.k
        if k is None:
            raise _UsageError("no extension order: pass --k or declare k "
                              "in the manifest")
    else:
        if args.m is None:
            raise _UsageError("--m is required without a manifest")
        if args.k is None:
            raise _UsageError("--k is required without a manifest")
        m, k, product = args.m, args.k, True
    if m < 1:
        raise _UsageError("--m must be >= 1")
    if k < 1:
        raise _UsageError("--k must be >= 1")
    chart = ChartSpec(m, 0, product).extend(k)
    if manifest is not None and manifest.has_connection:
        return chart, manifest.connection(chart), "manifest"
    return chart, ConnectionCoeffs.zero(chart), "zero"


def cmd_frame(args) -> int:
    chart, conn, label = _frame_chart(args)
    frame = adapted_frame(chart, conn)
    print(f"frame m={chart.m} k={chart.k} "
          f"time={'yes' if chart.has_time else 'no'} connection={label}")
    for head, families in (
            ("d/dt", (("D", frame.D), ("Dbar", frame.Dbar),
                      ("V", frame.V), ("Vbar", frame.Vbar))),
            ("dt", (("theta", frame.theta), ("thetabar", frame.thetabar),
                    ("eta", frame.eta), ("etabar", frame.etabar)))):
        if chart.has_time:
            print(head)
        for family, table in families:
            for level in range(chart.k):
                for i in range(1, chart.m + 1):
                    print(f"{family}[{level},{i}] = "
                          f"{table[(level, i)]._compact()}")
    return 0


def cmd_table(args) -> int:
    if args.k < 1 or args.m < 1:
        raise _UsageError("--m and --k must be >= 1")
    conn = None
    has_time = not args.no_time
    if args.manifest:
        manifest = load_manifest(args.manifest)
        if manifest.m != args.m:
            raise _UsageError(f"--m {args.m} contradicts manifest "
                              f"m={manifest.m}")
        has_time = manifest.product and not args.no_time
        if manifest.has_connection:
            if not has_time:
                raise _UsageError("a connection table needs a chart with "
                                  "a time coordinate")
            conn = manifest.connection(ChartSpec(args.m, 0, True)
                                       .extend(args.k))
    rows = basis_lift_rows(args.m, args.k, has_time=has_time, conn=conn)
    for label, value in rows:
        print(f"{label} = {value}")
    return 0


# -- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftcalc",
        description="exact lift calculus on order-k extension charts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="lift one field declared in a manifest")
    p.add_argument("--manifest", required=True, help="manifest file")
    p.add_argument("--field", required=True, help="field name to lift")
    p.add_argument("--kind", required=True, choices=("v", "c", "cv", "h"),
                   help="vertical, complete, complete-vertical, horizontal")
    p.add_argument("--k", type=_ascii_int, help="extension order "
                   "(default: manifest k)")
    p.add_argument("--r", type=_ascii_int, help="complete steps (kind cv)")
    p.add_argument("--s", type=_ascii_int, help="vertical steps (kind cv)")
    p.add_argument("--closed-form", action="store_true", dest="closed_form",
                   help="use the direct closed-form constructor instead "
                   "of the defining-equation solver")
    p.set_defaults(run=cmd_lift)

    p = sub.add_parser("check", help="run an identity suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--m", type=_ascii_int, required=True, help="base dimension")
    p.add_argument("--k", type=_ascii_int, required=True, help="extension order")
    p.add_argument("--seed", type=_ascii_int, default=0, help="corpus seed")
    p.add_argument("--samples", type=_ascii_int, help="samples per clause "
                   "(default: per-suite)")
    p.add_argument("--with-time", action="store_true", dest="with_time",
                   help="draw t-dependent scalars (default corpora are "
                   "t-free)")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("compare", help="defining equations vs closed form")
    p.add_argument("prop", choices=COMPARISONS)
    p.add_argument("--m", type=_ascii_int, required=True, help="base dimension")
    p.add_argument("--k", type=_ascii_int, required=True, help="extension order")
    p.add_argument("--seed", type=_ascii_int, default=0, help="corpus seed")
    p.add_argument("--samples", type=_ascii_int, default=2,
                   help="fields per comparison")
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("frame", help="print the adapted frame and coframe")
    p.add_argument("--m", type=_ascii_int, help="base dimension")
    p.add_argument("--k", type=_ascii_int, help="extension order")
    p.add_argument("--manifest", help="manifest supplying m / k / "
                   "connection coefficients")
    p.set_defaults(run=cmd_frame)

    p = sub.add_parser("table", help="print the coordinate-basis lift table")
    p.add_argument("--m", type=_ascii_int, required=True, help="base dimension")
    p.add_argument("--k", type=_ascii_int, required=True, help="extension order")
    p.add_argument("--no-time", action="store_true", dest="no_time",
                   help="drop the time coordinate (and horizontal rows)")
    p.add_argument("--manifest", help="manifest supplying connection "
                   "coefficients for the horizontal rows")
    p.set_defaults(run=cmd_table)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.run(args)
    except (_UsageError, VerifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ManifestError, ParseError, ChartError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LiftError, StructureError, LinearSolveError,
            SymKernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
