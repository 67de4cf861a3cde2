"""Identity-suite runner and closed-form comparator.

This module turns the calculus implemented in :mod:`liftcalc.lifts` and
:mod:`liftcalc.structures` on itself: every algebraic law the engine is
supposed to satisfy is encoded as a *clause*, evaluated symbolically on
seeded random corpora, and reported line by line.  Nothing here is numeric
— a clause passes only when both sides agree in Expr normal form.

Three outcomes are possible per clause:

``PASS``
    every sample satisfied the identity exactly;
``FAIL``
    a sample violated it and no documented reason exists — an engine bug;
``CONFLICT``
    a sample violated it but the violation is a documented discrepancy of
    the source calculus (the clause carries a note saying why).  Conflicts
    are reported, never hidden, and never treated as engine failures.

:func:`run_suite` evaluates one of seven fixed clause lists (or all of
them); :func:`compare_proposition` builds the same lift twice — once
through the defining-equation solver, once through the closed-form
constructor — and reports the first differing component.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .charts import ChartSpec
from .fields import (
    AltForm,
    Bilinear,
    ConnectionCoeffs,
    EndoField,
    OneForm,
    ScalarField,
    VectorField,
    lie_bracket,
)
from .lifts import (
    LiftError,
    adapted_frame,
    fn_complete,
    fn_complete_vertical,
    fn_horizontal,
    fn_vertical,
    of_complete_closed,
    of_cv_closed,
    of_horizontal,
    of_lift_solve,
    of_vertical_closed,
    t02_lift_solve,
    t11_defining_residuals,
    t11_lift_solve,
    vf_complete_closed,
    vf_cv_closed,
    vf_horizontal,
    vf_lift_solve,
    vf_vertical_closed,
)
from .structures import (
    HermitianPackage,
    build_Jk,
    build_Jk_star,
    fundamental_bilinear,
    hermitian_check,
    kaehler_closed,
    kaehler_form,
    star_apply,
)
from .symkernel import TIME, CoordId, Expr, ExprLike, GRat, Kind, binomial, format_expr


class VerifyError(Exception):
    """Bad arguments to the suite runner or comparator."""


SUITES = ("functions", "vectors", "oneforms", "tensors", "structures",
          "brackets", "frames")

DEFAULT_SAMPLES = {
    "functions": 25,
    "vectors": 5,
    "oneforms": 5,
    "tensors": 3,
    "structures": 3,
    "brackets": 5,
    "frames": 5,
}

COMPARISONS = ("P321", "P322", "P323", "P331", "P332", "P333")

#: Behavioral name shown in comparison report headers.
COMPARISON_SUBJECTS = {
    "P321": "vector-vertical",
    "P322": "vector-complete",
    "P323": "vector-complete-vertical",
    "P331": "oneform-vertical",
    "P332": "oneform-complete",
    "P333": "oneform-complete-vertical",
}


# ---------------------------------------------------------------------------
# corpus generation


class FieldGen:
    """Seeded generator of random polynomial fields on a base chart.

    Every draw goes through a single :class:`random.Random` stream, so a
    fixed seed fixes the entire corpus, in order.  Coefficients are small
    Gaussian rationals (numerators and denominators bounded by
    ``coeff_bound``) and monomials have degree at most ``max_degree``, which
    keeps expression growth bounded through iterated lifts.

    ``t_free`` governs *scalar* draws only: with ``t_free=False`` random
    scalars may involve the shared coordinate t.  Component expressions of
    vectors, one-forms, tensors, and connections always stay free of t —
    the solvers pin non-scalar t-behaviour separately, and every documented
    t-discrepancy of the calculus is a statement about scalar inputs.
    """

    def __init__(self, seed: int = 0, *, max_degree: int = 2,
                 coeff_bound: int = 5, t_free: bool = True):
        if max_degree < 0:
            raise VerifyError("max_degree must be >= 0")
        if coeff_bound < 1:
            raise VerifyError("coeff_bound must be >= 1")
        self.seed = seed
        self.max_degree = max_degree
        self.coeff_bound = coeff_bound
        self.t_free = t_free
        self.rng = random.Random(seed)

    # -- scalars ------------------------------------------------------

    def rational(self) -> Fraction:
        b = self.coeff_bound
        return Fraction(self.rng.randint(-b, b), self.rng.randint(1, b))

    def coefficient(self) -> GRat:
        return GRat(self.rational(), self.rational())

    def expr(self, chart: ChartSpec, *, allow_time: bool | None = None) -> Expr:
        """Random polynomial in the chart's level-0 coordinates (and t when
        the chart has it and ``allow_time`` holds; default: t enters exactly
        when the chart has time and the generator is not t-free)."""
        if allow_time is None:
            allow_time = chart.has_time and not self.t_free
        atoms = [c for c in chart.coordinates()
                 if c.kind != Kind.TIME and c.level == 0]
        if allow_time and chart.has_time:
            atoms.append(TIME)
        total = Expr.zero()
        for _ in range(self.rng.randint(1, 3)):
            term = Expr.from_value(self.coefficient())
            for _ in range(self.rng.randint(0, self.max_degree)):
                term = term * Expr.atom(self.rng.choice(atoms))
            total = total + term
        return total

    def scalar(self, chart: ChartSpec) -> ScalarField:
        return ScalarField(chart, self.expr(chart))

    # -- fields -------------------------------------------------------

    def vector(self, chart: ChartSpec, *,
               time_component: ExprLike | None = None) -> VectorField:
        """Random vector field; on a time chart the t-component defaults to
        the constant 1 (pass 0 to suppress it)."""
        comps: dict[CoordId, Expr] = {}
        for c in chart.coordinates():
            if c.kind == Kind.TIME:
                continue
            comps[c] = self.expr(chart, allow_time=False)
        if chart.has_time:
            tc = Expr.one() if time_component is None \
                else Expr.from_value(time_component)
            comps[TIME] = tc
        return VectorField(chart, comps)

    def oneform(self, chart: ChartSpec, *,
                time_component: ExprLike | None = None) -> OneForm:
        """Random one-form; on a time chart the dt-component defaults to the
        constant 1 (pass 0 to suppress it)."""
        comps: dict[CoordId, Expr] = {}
        for c in chart.coordinates():
            if c.kind == Kind.TIME:
                continue
            comps[c] = self.expr(chart, allow_time=False)
        if chart.has_time:
            tc = Expr.one() if time_component is None \
                else Expr.from_value(time_component)
            comps[TIME] = tc
        return OneForm(chart, comps)

    def endo(self, chart: ChartSpec) -> EndoField:
        coords = [c for c in chart.coordinates() if c.kind != Kind.TIME]
        entries = {(a, b): self.expr(chart, allow_time=False)
                   for a in coords for b in coords}
        return EndoField(chart, entries)

    def bilinear(self, chart: ChartSpec, *, symmetric: bool = True) -> Bilinear:
        coords = [c for c in chart.coordinates() if c.kind != Kind.TIME]
        entries: dict[tuple[CoordId, CoordId], Expr] = {}
        if symmetric:
            for i, a in enumerate(coords):
                for b in coords[i:]:
                    v = self.expr(chart, allow_time=False)
                    entries[(a, b)] = v
                    if a != b:
                        entries[(b, a)] = v
        else:
            for a in coords:
                for b in coords:
                    entries[(a, b)] = self.expr(chart, allow_time=False)
        return Bilinear(chart, entries)

    def hermitian(self, chart: ChartSpec) -> Bilinear:
        """Symmetric bilinear with mixed-type entries only; such a metric is
        automatically compatible with the diagonal complex structure."""
        entries: dict[tuple[CoordId, CoordId], Expr] = {}
        for a in chart.holo_coords(0):
            for b in chart.anti_coords(0):
                v = self.expr(chart, allow_time=False)
                entries[(a, b)] = v
                entries[(b, a)] = v
        return Bilinear(chart, entries)

    def potential_metric(self, chart: ChartSpec) -> Bilinear:
        """Hermitian metric whose coefficient matrix is the mixed Hessian of
        a random polynomial potential.  The associated two-form of such a
        metric is closed; the structures suite *checks* that rather than
        assuming it."""
        potential = self.expr(chart, allow_time=False) \
            * self.expr(chart, allow_time=False)
        entries: dict[tuple[CoordId, CoordId], Expr] = {}
        for a in chart.holo_coords(0):
            for b in chart.anti_coords(0):
                v = potential.diff(a).diff(b)
                entries[(a, b)] = v
                entries[(b, a)] = v
        return Bilinear(chart, entries)

    def connection(self, chart: ChartSpec) -> ConnectionCoeffs:
        """Random transition coefficients on an extension chart; conjugate
        entries mirror the holomorphic ones."""
        gamma = {}
        for r in range(chart.k):
            for i in range(1, chart.m + 1):
                for j in range(1, chart.m + 1):
                    gamma[(r, i, j)] = self.expr(chart, allow_time=False)
        return ConnectionCoeffs(chart, gamma)


# ---------------------------------------------------------------------------
# report machinery


@dataclass(frozen=True)
class ClauseOutcome:
    """One rendered line of a suite report."""

    clause_id: str
    locus: str
    status: str  # PASS | FAIL | CONFLICT
    samples: int
    witness: str | None = None
    note: str | None = None

    def render(self) -> str:
        line = (f"clause {self.clause_id} locus={self.locus} "
                f"status={self.status} samples={self.samples}")
        if self.witness is not None:
            line += f" witness: {self.witness}"
        if self.note is not None:
            line += f" note: {self.note}"
        return line


@dataclass(frozen=True)
class CheckReport:
    """Deterministic text report of one suite run (or a concatenation)."""

    title: str
    outcomes: tuple[ClauseOutcome, ...]

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def n_pass(self) -> int:
        return self._count("PASS")

    @property
    def n_fail(self) -> int:
        return self._count("FAIL")

    @property
    def n_conflict(self) -> int:
        return self._count("CONFLICT")

    @property
    def ok(self) -> bool:
        """True when no clause FAILed (documented conflicts do not count)."""
        return self.n_fail == 0

    def render(self) -> str:
        lines = [self.title]
        lines.extend(o.render() for o in self.outcomes)
        lines.append(f"summary: {len(self.outcomes)} clauses, "
                     f"{self.n_pass} PASS, {self.n_fail} FAIL, "
                     f"{self.n_conflict} CONFLICT")
        return "\n".join(lines)


@dataclass(frozen=True)
class Clause:
    """A single checkable law.

    ``run(ctx)`` returns ``(evaluated, witness)``: how many samples were
    evaluated (evaluation stops at the first violation) and the first
    counterexample in canonical text, or None.  A clause whose
    ``conflict_note`` is set turns a violation into CONFLICT instead of
    FAIL; the note explains the documented discrepancy.  Status is always
    computed from the run — a flagged clause whose samples all pass
    reports PASS."""

    clause_id: str
    locus: str
    run: Callable[["SuiteContext"], tuple[int, str | None]]
    conflict_note: str | None = None


@dataclass
class SuiteContext:
    """Everything a clause runner needs: chart pair, sample budget, the
    shared generator, and (on product charts) one random connection."""

    m: int
    k: int
    samples: int
    gen: FieldGen
    chart0: ChartSpec
    chartk: ChartSpec
    conn: ConnectionCoeffs | None = None


def _evaluate(clause: Clause, ctx: SuiteContext) -> ClauseOutcome:
    evaluated, witness = clause.run(ctx)
    if witness is None:
        return ClauseOutcome(clause.clause_id, clause.locus, "PASS", evaluated)
    if clause.conflict_note is not None:
        return ClauseOutcome(clause.clause_id, clause.locus, "CONFLICT",
                             evaluated, witness, clause.conflict_note)
    return ClauseOutcome(clause.clause_id, clause.locus, "FAIL",
                         evaluated, witness)


# ---------------------------------------------------------------------------
# witness rendering


def _sf_str(f: ScalarField) -> str:
    return format_expr(f.value)


def _witness(inputs: Sequence[tuple[str, str]], slot: str,
             left: Expr, right: Expr) -> str:
    parts = [f"{name} = {text}" for name, text in inputs]
    parts.append(f"{slot}: left = {format_expr(left)}; right = {format_expr(right)}")
    return "; ".join(parts)


def _check(inputs: Sequence[tuple[str, str]], left, right) -> str | None:
    """Witness of the first difference between two values of one shape
    (scalar field, expression, or a component-map field), or None when they
    are equal."""
    if left == right:
        return None
    if isinstance(left, ScalarField):
        left, right = left.value, right.value
    if isinstance(left, Expr):
        return _witness(inputs, "value", left, right)
    first = left._first_difference(right)
    return None if first is None else _witness(inputs, *first)


# ---------------------------------------------------------------------------
# small lift helpers shared by several suites


def _sf_lift(f: ScalarField, kind: str, k: int) -> ScalarField:
    if kind == "v":
        return fn_vertical(f, k)
    if kind == "c":
        return fn_complete(f, k)
    raise VerifyError(f"unknown scalar lift kind {kind!r}")


def _sample_loop(ctx: SuiteContext,
                 one: Callable[[], str | None],
                 probes: Sequence[Callable[[], str | None]] = (),
                 ) -> tuple[int, str | None]:
    """Run optional deterministic probes, then up to ``ctx.samples`` random
    draws; stop at the first witness.  Returns (evaluated, witness)."""
    evaluated = 0
    for probe in probes:
        evaluated += 1
        witness = probe()
        if witness is not None:
            return evaluated, witness
    for _ in range(ctx.samples):
        evaluated += 1
        witness = one()
        if witness is not None:
            return evaluated, witness
    return evaluated, None


def _t_probe_allowed(ctx: SuiteContext) -> bool:
    """Whether the canonical t-dependent probes should run: only when the
    corpus itself is allowed to contain t."""
    return ctx.chart0.has_time and not ctx.gen.t_free


_T_NOTE = ("documented conflict: the identity holds only for inputs free "
           "of t")
_PAIR_NOTE = ("documented conflict: the (r,s) and (s,r) lifts are "
              "different objects already on coordinate inputs")


def _tfree_scalar(gen: FieldGen, chart: ChartSpec) -> ScalarField:
    """Scalar draw that never involves t.  Scale factors multiply into
    component expressions, and components stay t-free by the generator's
    contract, so scale clauses use this regardless of ``t_free``."""
    return ScalarField(chart, gen.expr(chart, allow_time=False))


def _cv_splits(k: int) -> list[tuple[int, int]]:
    return [(r, k - r) for r in range(k + 1)]


# ---------------------------------------------------------------------------
# functions suite


def _functions_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    chart0 = ctx.chart0

    def probe_t_z() -> ScalarField:
        z = next(iter(chart0.holo_coords(0)))
        return ScalarField(chart0, Expr.atom(TIME) * Expr.atom(z))

    def run_add_vertical(ctx: SuiteContext):
        def one():
            f, g = ctx.gen.scalar(chart0), ctx.gen.scalar(chart0)
            return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                          fn_vertical(f + g, k),
                          fn_vertical(f, k) + fn_vertical(g, k))
        return _sample_loop(ctx, one)

    def run_mul_vertical(ctx: SuiteContext):
        def one():
            f, g = ctx.gen.scalar(chart0), ctx.gen.scalar(chart0)
            return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                          fn_vertical(f * g, k),
                          fn_vertical(f, k) * fn_vertical(g, k))
        return _sample_loop(ctx, one)

    def run_add_complete(ctx: SuiteContext):
        def one():
            f, g = ctx.gen.scalar(chart0), ctx.gen.scalar(chart0)
            return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                          fn_complete(f + g, k),
                          fn_complete(f, k) + fn_complete(g, k))
        return _sample_loop(ctx, one)

    def run_mul_complete(ctx: SuiteContext):
        def one():
            f, g = ctx.gen.scalar(chart0), ctx.gen.scalar(chart0)
            left = fn_complete(f * g, k)
            right = ScalarField(ctx.chartk, Expr.zero())
            for j in range(k + 1):
                term = fn_complete_vertical(f, k - j, j) \
                    * fn_complete_vertical(g, j, k - j)
                right = right + ScalarField(ctx.chartk,
                                            term.value * binomial(k, j))
            return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                          left, right)
        return _sample_loop(ctx, one)

    def run_dz_exchange(kind: str):
        def run(ctx: SuiteContext):
            def one():
                f = ctx.gen.scalar(chart0)
                lifted = fn_complete(f, k)
                for i in range(1, ctx.m + 1):
                    for c0 in (CoordId(Kind.HOLO, 0, i),
                               CoordId(Kind.ANTI, 0, i)):
                        ck = CoordId(c0.kind, k if kind == "v" else 0, i)
                        left = _sf_lift(
                            ScalarField(chart0, f.value.diff(c0)), kind, k)
                        right = ScalarField(ctx.chartk,
                                            lifted.value.diff(ck))
                        w = _check(
                            [("f", _sf_str(f)), ("coordinate", c0.name)],
                            left, right)
                        if w is not None:
                            return w
                return None
            return _sample_loop(ctx, one)
        return run

    def run_dt_exchange(kind: str):
        def run(ctx: SuiteContext):
            def check(f: ScalarField):
                left = _sf_lift(ScalarField(chart0, f.value.diff(TIME)),
                                kind, k)
                right = ScalarField(ctx.chartk,
                                    fn_complete(f, k).value.diff(TIME))
                return _check([("f", _sf_str(f))], left, right)
            probes = [lambda: check(probe_t_z())] if _t_probe_allowed(ctx) \
                else []
            return _sample_loop(ctx, lambda: check(ctx.gen.scalar(chart0)),
                                probes)
        return run

    def run_horizontal_zero(ctx: SuiteContext):
        def check(f: ScalarField):
            left = fn_horizontal(f, k)
            return _check([("f", _sf_str(f))], left,
                          ScalarField(ctx.chartk, Expr.zero()))
        probes = [lambda: check(ScalarField(chart0, Expr.atom(TIME)))] \
            if _t_probe_allowed(ctx) else []
        return _sample_loop(ctx, lambda: check(ctx.gen.scalar(chart0)),
                            probes)

    def run_add_horizontal(ctx: SuiteContext):
        def one():
            f, g = ctx.gen.scalar(chart0), ctx.gen.scalar(chart0)
            return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                          fn_horizontal(f + g, k),
                          fn_horizontal(f, k) + fn_horizontal(g, k))
        return _sample_loop(ctx, one)

    def run_mul_horizontal_zero(ctx: SuiteContext):
        def check(f: ScalarField, g: ScalarField):
            return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                          fn_horizontal(f * g, k),
                          ScalarField(ctx.chartk, Expr.zero()))
        def probe():
            z = next(iter(chart0.holo_coords(0)))
            return check(ScalarField(chart0, Expr.atom(TIME)),
                         ScalarField(chart0, Expr.atom(z)))
        probes = [probe] if _t_probe_allowed(ctx) else []
        return _sample_loop(
            ctx, lambda: check(ctx.gen.scalar(chart0),
                               ctx.gen.scalar(chart0)), probes)

    def run_cv_order_swap(ctx: SuiteContext):
        def one():
            f = ctx.gen.scalar(chart0)
            for r, s in _cv_splits(k):
                left = fn_vertical(fn_complete(f, r), s)
                right = fn_complete(fn_vertical(f, s), r)
                w = _check([("f", _sf_str(f)), ("split", f"({r},{s})")],
                           left, right)
                if w is not None:
                    return w
            return None
        return _sample_loop(ctx, one)

    def run_cv_endpoints(ctx: SuiteContext):
        def one():
            f = ctx.gen.scalar(chart0)
            w = _check([("f", _sf_str(f)), ("split", f"({k},0)")],
                       fn_complete_vertical(f, k, 0), fn_complete(f, k))
            if w is not None:
                return w
            return _check([("f", _sf_str(f)), ("split", f"(0,{k})")],
                          fn_complete_vertical(f, 0, k), fn_vertical(f, k))
        return _sample_loop(ctx, one)

    return [
        Clause("F1", "fn-add-vertical", run_add_vertical),
        Clause("F2", "fn-mul-vertical", run_mul_vertical),
        Clause("F3", "fn-add-complete", run_add_complete),
        Clause("F4", "fn-mul-complete-binomial", run_mul_complete),
        Clause("F5", "fn-dz-exchange-vertical", run_dz_exchange("v"),
               conflict_note=_T_NOTE),
        Clause("F6", "fn-dz-exchange-complete", run_dz_exchange("c"),
               conflict_note=_T_NOTE),
        Clause("F7", "fn-dt-exchange-vertical", run_dt_exchange("v"),
               conflict_note=_T_NOTE),
        Clause("F8", "fn-dt-exchange-complete", run_dt_exchange("c"),
               conflict_note=_T_NOTE),
        Clause("F9", "fn-horizontal-zero", run_horizontal_zero,
               conflict_note=_T_NOTE),
        Clause("F10", "fn-add-horizontal", run_add_horizontal),
        Clause("F11", "fn-mul-horizontal-zero", run_mul_horizontal_zero,
               conflict_note=_T_NOTE),
        Clause("F12", "fn-cv-order-swap", run_cv_order_swap),
        Clause("F13", "fn-cv-endpoints", run_cv_endpoints),
    ]


# ---------------------------------------------------------------------------
# vectors suite


def _vectors_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    chart0 = ctx.chart0

    def run_add(kind: str):
        def run(ctx: SuiteContext):
            def one():
                Z, W = ctx.gen.vector(chart0), ctx.gen.vector(chart0)
                if kind == "h":
                    lift = lambda X: vf_horizontal(X, ctx.conn)
                else:
                    lift = lambda X: vf_lift_solve(X, kind, k)
                return _check([("Z", Z._inline()), ("W", W._inline())],
                              lift(Z + W), lift(Z) + lift(W))
            return _sample_loop(ctx, one)
        return run

    def run_scale_vertical(ctx: SuiteContext):
        def one():
            f = _tfree_scalar(ctx.gen, chart0)
            Z = ctx.gen.vector(chart0)
            left = vf_lift_solve(Z.scaled(f.value), "v", k)
            right = vf_lift_solve(Z, "v", k).scaled(fn_vertical(f, k).value)
            return _check([("f", _sf_str(f)), ("Z", Z._inline())],
                          left, right)
        return _sample_loop(ctx, one)

    def run_scale_complete(ctx: SuiteContext):
        def one():
            f = _tfree_scalar(ctx.gen, chart0)
            Z = ctx.gen.vector(chart0, time_component=0)
            left = vf_lift_solve(Z.scaled(f.value), "c", k)
            right = VectorField.zero(ctx.chartk)
            for j in range(k + 1):
                fl = fn_complete_vertical(f, k - j, j).value
                Zl = vf_lift_solve(Z, "cv", k, r=j, s=k - j)
                right = right + Zl.scaled(fl * binomial(k, j))
            return _check([("f", _sf_str(f)), ("Z", Z._inline())],
                          left, right)
        return _sample_loop(ctx, one)

    def run_action(lift_kind: str, fn_kind: str, zero_rhs: bool = False,
                   probe_expr: Callable[[], Expr] | None = None):
        def run(ctx: SuiteContext):
            def check(f: ScalarField, Z: VectorField):
                if lift_kind == "h":
                    Zl = vf_horizontal(Z, ctx.conn)
                else:
                    Zl = vf_lift_solve(Z, lift_kind, k)
                left = ScalarField(ctx.chartk,
                                   Zl.apply(_sf_lift(f, fn_kind, k).value))
                if zero_rhs:
                    right = ScalarField(ctx.chartk, Expr.zero())
                else:
                    right = fn_vertical(
                        ScalarField(chart0, Z.apply(f.value)), k) \
                        if fn_kind == "v" or lift_kind == "v" \
                        else fn_complete(
                            ScalarField(chart0, Z.apply(f.value)), k)
                return _check([("f", _sf_str(f)), ("Z", Z._inline())],
                              left, right)
            probes = []
            if probe_expr is not None and _t_probe_allowed(ctx):
                probes = [lambda: check(ScalarField(chart0, probe_expr()),
                                        ctx.gen.vector(chart0))]
            return _sample_loop(
                ctx, lambda: check(ctx.gen.scalar(chart0),
                                   ctx.gen.vector(chart0)), probes)
        return run

    def run_basis_complete(ctx: SuiteContext):
        rows = 0
        for c0 in _base_fiber_coords(chart0):
            Z = VectorField.basis(chart0, c0)
            expect = VectorField.basis(ctx.chartk, c0)
            for label, lifted in (("defining", vf_lift_solve(Z, "c", k)),
                                  ("closed", vf_complete_closed(Z, k))):
                rows += 1
                w = _check([("input", f"d/d{c0.name}"),
                            ("route", label)], lifted, expect)
                if w is not None:
                    return rows, w
        rows += 1
        T = VectorField.basis(chart0, TIME)
        w = _check([("input", "d/dt"), ("route", "defining")],
                   vf_lift_solve(T, "c", k),
                   VectorField.basis(ctx.chartk, TIME))
        return rows, w

    def run_basis_vertical(ctx: SuiteContext):
        rows = 0
        for c0 in _base_fiber_coords(chart0):
            Z = VectorField.basis(chart0, c0)
            expect = VectorField.basis(
                ctx.chartk, CoordId(c0.kind, k, c0.index))
            for label, lifted in (("defining", vf_lift_solve(Z, "v", k)),
                                  ("closed", vf_vertical_closed(Z, k))):
                rows += 1
                w = _check([("input", f"d/d{c0.name}"),
                            ("route", label)], lifted, expect)
                if w is not None:
                    return rows, w
        rows += 1
        T = VectorField.basis(chart0, TIME)
        w = _check([("input", "d/dt"), ("route", "defining")],
                   vf_lift_solve(T, "v", k),
                   VectorField.basis(ctx.chartk, TIME))
        return rows, w

    def run_basis_horizontal_time(ctx: SuiteContext):
        T = VectorField.basis(chart0, TIME)
        w = _check([("input", "d/dt")], vf_horizontal(T, ctx.conn),
                   VectorField.basis(ctx.chartk, TIME))
        return 1, w

    def run_basis_horizontal(ctx: SuiteContext):
        frame = adapted_frame(ctx.chartk, ctx.conn)
        rows = 0
        for i in range(1, ctx.m + 1):
            for c0, guide in ((CoordId(Kind.HOLO, 0, i), frame.D[(0, i)]),
                              (CoordId(Kind.ANTI, 0, i),
                               frame.Dbar[(0, i)])):
                rows += 1
                Z = VectorField.basis(chart0, c0)
                w = _check([("input", f"d/d{c0.name}")],
                           vf_horizontal(Z, ctx.conn), guide)
                if w is not None:
                    return rows, w
        return rows, None

    def run_cv_pair_swap(ctx: SuiteContext):
        def one():
            Z = ctx.gen.vector(chart0, time_component=0)
            for r, s in _cv_splits(k):
                if r >= s:
                    continue
                w = _check(
                    [("Z", Z._inline()), ("split", f"({r},{s}) vs ({s},{r})")],
                    vf_lift_solve(Z, "cv", k, r=r, s=s),
                    vf_lift_solve(Z, "cv", k, r=s, s=r))
                if w is not None:
                    return w
            return None
        return _sample_loop(ctx, one)

    def run_scale_cv(ctx: SuiteContext):
        def one():
            f = _tfree_scalar(ctx.gen, chart0)
            Z = ctx.gen.vector(chart0, time_component=0)
            for r, s in _cv_splits(k):
                left = vf_lift_solve(Z.scaled(f.value), "cv", k, r=r, s=s)
                right = VectorField.zero(ctx.chartk)
                for h in range(r + 1):
                    fl = fn_complete_vertical(f, r - h, s + h).value
                    Zl = vf_lift_solve(Z, "cv", k, r=h, s=k - h)
                    right = right + Zl.scaled(fl * binomial(r, h))
                w = _check([("f", _sf_str(f)), ("Z", Z._inline()),
                            ("split", f"({r},{s})")], left, right)
                if w is not None:
                    return w
            return None
        return _sample_loop(ctx, one)

    return [
        Clause("V1", "vf-add-vertical", run_add("v")),
        Clause("V2", "vf-add-complete", run_add("c")),
        Clause("V3", "vf-add-horizontal", run_add("h")),
        Clause("V4", "vf-scale-vertical", run_scale_vertical),
        Clause("V5", "vf-scale-complete-binomial", run_scale_complete),
        Clause("V6", "vf-action-vv-zero",
               run_action("v", "v", zero_rhs=True,
                          probe_expr=lambda: Expr.atom(TIME)),
               conflict_note=_T_NOTE),
        Clause("V7", "vf-action-cv", run_action("c", "v")),
        Clause("V8", "vf-action-vc",
               run_action("v", "c",
                          probe_expr=lambda: Expr.atom(TIME, 2)),
               conflict_note=_T_NOTE),
        Clause("V9", "vf-action-cc",
               run_action("c", "c",
                          probe_expr=lambda: Expr.atom(TIME, 2)),
               conflict_note=_T_NOTE),
        Clause("V10", "vf-action-hv", run_action("h", "v")),
        Clause("V11", "vf-basis-complete-table", run_basis_complete),
        Clause("V12", "vf-basis-vertical-table", run_basis_vertical),
        Clause("V13", "vf-basis-horizontal-time", run_basis_horizontal_time),
        Clause("V14", "vf-basis-horizontal-table", run_basis_horizontal),
        Clause("V15", "vf-cv-pair-swap", run_cv_pair_swap,
               conflict_note=_PAIR_NOTE),
        Clause("V16", "vf-scale-cv-expansion", run_scale_cv),
    ]


def _base_fiber_coords(chart0: ChartSpec) -> list[CoordId]:
    return list(chart0.holo_coords(0)) + list(chart0.anti_coords(0))


# ---------------------------------------------------------------------------
# one-forms suite


def _oneforms_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    chart0 = ctx.chart0
    level_note = ("documented conflict: the engine's horizontal covector "
                  "uses the top transition level; the tabulated row names "
                  "the bottom one, and the two agree only at k = 1")
    cross_note = ("documented conflict: horizontal covectors pair "
                  "nontrivially with horizontal fields across levels once "
                  "k >= 2")

    def run_add(kind: str):
        def run(ctx: SuiteContext):
            def one():
                tc = None if kind == "v" else 0
                u = ctx.gen.oneform(chart0, time_component=tc)
                w = ctx.gen.oneform(chart0, time_component=tc)
                if kind == "h":
                    lift = lambda a: of_horizontal(a, ctx.conn)
                else:
                    lift = lambda a: of_lift_solve(a, kind, k)
                return _check([("u", u._inline()), ("w", w._inline())],
                              lift(u + w), lift(u) + lift(w))
            return _sample_loop(ctx, one)
        return run

    def run_scale_vertical(ctx: SuiteContext):
        def one():
            f = _tfree_scalar(ctx.gen, chart0)
            w = ctx.gen.oneform(chart0)
            left = of_lift_solve(w.scaled(f.value), "v", k)
            right = of_lift_solve(w, "v", k).scaled(fn_vertical(f, k).value)
            return _check([("f", _sf_str(f)), ("w", w._inline())],
                          left, right)
        return _sample_loop(ctx, one)

    def run_scale_complete(ctx: SuiteContext):
        def one():
            f = _tfree_scalar(ctx.gen, chart0)
            w = ctx.gen.oneform(chart0, time_component=0)
            left = of_lift_solve(w.scaled(f.value), "c", k)
            right = OneForm.zero(ctx.chartk)
            for j in range(k + 1):
                fl = fn_complete_vertical(f, k - j, j).value
                wl = of_lift_solve(w, "cv", k, r=j, s=k - j)
                right = right + wl.scaled(fl * binomial(k, j))
            return _check([("f", _sf_str(f)), ("w", w._inline())],
                          left, right)
        return _sample_loop(ctx, one)

    def run_action(form_kind: str, vec_kind: str, zero_rhs: bool = False):
        def run(ctx: SuiteContext):
            def one():
                tc = None if form_kind == "v" else 0
                w = ctx.gen.oneform(chart0, time_component=tc)
                Z = ctx.gen.vector(chart0)
                if form_kind == "h":
                    wl = of_horizontal(w, ctx.conn)
                else:
                    wl = of_lift_solve(w, form_kind, k)
                if vec_kind == "h":
                    Zl = vf_horizontal(Z, ctx.conn)
                else:
                    Zl = vf_lift_solve(Z, vec_kind, k)
                left = ScalarField(ctx.chartk, wl.pair(Zl))
                if zero_rhs:
                    right = ScalarField(ctx.chartk, Expr.zero())
                else:
                    base = ScalarField(chart0, w.pair(Z))
                    out_kind = "c" if (form_kind == "c" and vec_kind == "c") \
                        else "v"
                    right = _sf_lift(base, out_kind, k)
                return _check([("w", w._inline()), ("Z", Z._inline())],
                              left, right)
            return _sample_loop(ctx, one)
        return run

    def run_basis_vertical(ctx: SuiteContext):
        rows = 0
        for c0 in _base_fiber_coords(chart0):
            w0 = OneForm.differential_of(chart0, c0)
            expect = OneForm.differential_of(ctx.chartk, c0)
            for label, lifted in (("defining", of_lift_solve(w0, "v", k)),
                                  ("closed", of_vertical_closed(w0, k))):
                rows += 1
                wit = _check([("input", f"d{c0.name}"),
                              ("route", label)], lifted, expect)
                if wit is not None:
                    return rows, wit
        rows += 1
        dt = OneForm.differential_of(chart0, TIME)
        wit = _check([("input", "dt"), ("route", "defining")],
                     of_lift_solve(dt, "v", k),
                     OneForm.differential_of(ctx.chartk, TIME))
        return rows, wit

    def run_basis_complete(ctx: SuiteContext):
        rows = 0
        for c0 in _base_fiber_coords(chart0):
            w0 = OneForm.differential_of(chart0, c0)
            expect = OneForm.differential_of(
                ctx.chartk, CoordId(c0.kind, k, c0.index))
            for label, lifted in (("defining", of_lift_solve(w0, "c", k)),
                                  ("closed", of_complete_closed(w0, k))):
                rows += 1
                wit = _check([("input", f"d{c0.name}"),
                              ("route", label)], lifted, expect)
                if wit is not None:
                    return rows, wit
        rows += 1
        dt = OneForm.differential_of(chart0, TIME)
        wit = _check([("input", "dt"), ("route", "closed")],
                     of_complete_closed(dt, k),
                     OneForm.differential_of(ctx.chartk, TIME))
        return rows, wit

    def run_basis_horizontal(ctx: SuiteContext):
        frame = adapted_frame(ctx.chartk, ctx.conn)
        rows = 0
        for i in range(1, ctx.m + 1):
            for c0, eta in ((CoordId(Kind.HOLO, 0, i), frame.eta[(0, i)]),
                            (CoordId(Kind.ANTI, 0, i),
                             frame.etabar[(0, i)])):
                rows += 1
                w0 = OneForm.differential_of(chart0, c0)
                wit = _check([("input", f"d{c0.name}")],
                             of_horizontal(w0, ctx.conn), eta)
                if wit is not None:
                    return rows, wit
        return rows, None

    def run_rejects_dt(ctx: SuiteContext):
        dt = OneForm.differential_of(chart0, TIME)
        try:
            of_horizontal(dt, ctx.conn)
        except LiftError:
            return 1, None
        return 1, "input = dt; a horizontal lift was produced instead of " \
                  "the expected rejection"

    def run_cv_pair_swap(ctx: SuiteContext):
        def one():
            w = ctx.gen.oneform(chart0, time_component=0)
            for r, s in _cv_splits(k):
                if r >= s:
                    continue
                wit = _check(
                    [("w", w._inline()), ("split", f"({r},{s}) vs ({s},{r})")],
                    of_lift_solve(w, "cv", k, r=r, s=s),
                    of_lift_solve(w, "cv", k, r=s, s=r))
                if wit is not None:
                    return wit
            return None
        return _sample_loop(ctx, one)

    def run_scale_cv(ctx: SuiteContext):
        def one():
            f = _tfree_scalar(ctx.gen, chart0)
            w = ctx.gen.oneform(chart0, time_component=0)
            for r, s in _cv_splits(k):
                left = of_lift_solve(w.scaled(f.value), "cv", k, r=r, s=s)
                right = OneForm.zero(ctx.chartk)
                for h in range(r + 1):
                    fl = fn_complete_vertical(f, r - h, s + h).value
                    wl = of_lift_solve(w, "cv", k, r=h, s=k - h)
                    right = right + wl.scaled(fl * binomial(r, h))
                wit = _check([("f", _sf_str(f)), ("w", w._inline()),
                              ("split", f"({r},{s})")], left, right)
                if wit is not None:
                    return wit
            return None
        return _sample_loop(ctx, one)

    return [
        Clause("O1", "of-add-vertical", run_add("v")),
        Clause("O2", "of-add-complete", run_add("c")),
        Clause("O3", "of-add-horizontal", run_add("h")),
        Clause("O4", "of-scale-vertical", run_scale_vertical),
        Clause("O5", "of-scale-complete-binomial", run_scale_complete),
        Clause("O6", "of-action-vc", run_action("v", "c")),
        Clause("O7", "of-action-cc", run_action("c", "c")),
        Clause("O8", "of-action-hh-zero", run_action("h", "h", zero_rhs=True),
               conflict_note=cross_note if k >= 2 else None),
        Clause("O9", "of-action-hv", run_action("h", "v")),
        Clause("O10", "of-basis-vertical-table", run_basis_vertical),
        Clause("O11", "of-basis-complete-table", run_basis_complete),
        Clause("O12", "of-basis-horizontal-table", run_basis_horizontal,
               conflict_note=level_note if k >= 2 else None),
        Clause("O13", "of-horizontal-rejects-time", run_rejects_dt),
        Clause("O14", "of-cv-pair-swap", run_cv_pair_swap,
               conflict_note=_PAIR_NOTE),
        Clause("O15", "of-scale-cv-expansion", run_scale_cv),
    ]


# ---------------------------------------------------------------------------
# tensors suite


def _tensors_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    chart0 = ctx.chart0
    vert_note = ("documented conflict: the vertical covector pairing "
                 "annihilates every level-0 component, so the composition "
                 "law cannot survive the vertical lift")
    mixed_note = ("documented conflict: pairing two complete lifts does "
                  "not drop to a vertical lift")

    def run_defining(kind: str):
        def run(ctx: SuiteContext):
            def one():
                phi = ctx.gen.endo(chart0)
                xi = ctx.gen.vector(chart0)
                lifted = t11_lift_solve(phi, kind, k)
                left = lifted.apply_vector(vf_lift_solve(xi, "c", k))
                right = vf_lift_solve(phi.apply_vector(xi), kind, k)
                return _check([("phi entries", _endo_str(phi)),
                               ("xi", xi._inline())], left, right)
            return _sample_loop(ctx, one)
        return run

    def run_form_pairing(kind: str):
        def run(ctx: SuiteContext):
            def one():
                phi = ctx.gen.endo(chart0)
                eta = ctx.gen.oneform(chart0)
                lifted = t11_lift_solve(phi, kind, k)
                left = lifted.apply_form(of_lift_solve(eta, kind, k))
                right = of_lift_solve(phi.apply_form(eta), kind, k)
                return _check([("phi entries", _endo_str(phi)),
                               ("eta", eta._inline())], left, right)
            return _sample_loop(ctx, one)
        return run

    def run_mixed_literal(ctx: SuiteContext):
        def one():
            phi = ctx.gen.endo(chart0)
            xi = ctx.gen.vector(chart0)
            lifted = t11_lift_solve(phi, "c", k)
            left = lifted.apply_vector(vf_lift_solve(xi, "c", k))
            right = vf_lift_solve(phi.apply_vector(xi), "v", k)
            return _check([("phi entries", _endo_str(phi)),
                           ("xi", xi._inline())], left, right)
        return _sample_loop(ctx, one)

    def run_t02(kind: str):
        def run(ctx: SuiteContext):
            def one():
                G = ctx.gen.bilinear(chart0)
                X, Y = ctx.gen.vector(chart0), ctx.gen.vector(chart0)
                lifted = t02_lift_solve(G, kind, k)
                left = lifted.evaluate(vf_lift_solve(X, "c", k),
                                       vf_lift_solve(Y, "c", k))
                right = _sf_lift(ScalarField(chart0, G.evaluate(X, Y)),
                                 kind, k).value
                return _check([("X", X._inline()), ("Y", Y._inline())],
                              left, right)
            return _sample_loop(ctx, one)
        return run

    return [
        Clause("T1", "t11-vertical-defining", run_defining("v")),
        Clause("T2", "t11-vertical-form-pairing", run_form_pairing("v"),
               conflict_note=vert_note),
        Clause("T3", "t11-complete-defining", run_defining("c")),
        Clause("T4", "t11-complete-form-pairing", run_form_pairing("c")),
        Clause("T5", "t11-complete-mixed-pairing", run_mixed_literal,
               conflict_note=mixed_note),
        Clause("T6", "t02-vertical-defining", run_t02("v")),
        Clause("T7", "t02-complete-defining", run_t02("c")),
    ]


def _endo_str(phi: EndoField) -> str:
    keys = sorted(phi.entries, key=lambda ab: (ab[0].sort_key(),
                                               ab[1].sort_key()))
    parts = [f"[{a.name},{b.name}]={format_expr(phi.entries[(a, b)])}"
             for a, b in keys]
    return "{" + ", ".join(parts) + "}" if parts else "0"


# ---------------------------------------------------------------------------
# structures suite


_J_CACHE: dict[tuple[int, str, int], EndoField] = {}


def _lifted_J(m: int, kind: str, k: int) -> EndoField:
    key = (m, kind, k)
    if key not in _J_CACHE:
        chart0 = ChartSpec(m, 0, False)
        _J_CACHE[key] = t11_lift_solve(build_Jk(chart0), kind, k)
    return _J_CACHE[key]


def _structures_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    m = ctx.m
    chart0 = ctx.chart0
    chartk = ctx.chartk
    coincide_note = ("recorded comparison: agreement between the solved "
                     "lift and the direct diagonal construction is "
                     "reported, not assumed")

    def run_square(builder):
        def run(ctx: SuiteContext):
            S = builder(chartk)
            w = _check([("chart", f"m={m} k={k}")], S.compose(S),
                       EndoField.identity(chartk).scaled(Expr.zero()
                                                         - Expr.one()))
            return 1, w
        return run

    def run_lift_residuals(ctx: SuiteContext):
        J0 = build_Jk(chart0)
        for kind in ("v", "c"):
            residuals = t11_defining_residuals(J0, _lifted_J(m, kind, k),
                                               kind, k)
            bad = [e for e in residuals if not e.is_zero()]
            if bad:
                return 2, f"kind = {kind}; residual = {format_expr(bad[0])}"
        return 2, None

    def run_lift_square(ctx: SuiteContext):
        J = _lifted_J(m, "c", k)
        w = _check([("kind", "c")], J.compose(J),
                   EndoField.identity(chartk).scaled(Expr.zero()
                                                     - Expr.one()))
        return 1, w

    def run_lift_coincides(ctx: SuiteContext):
        w = _check([("kind", "c")], _lifted_J(m, "c", k),
                   build_Jk(chartk))
        return 1, w

    def run_star_duality(ctx: SuiteContext):
        J = build_Jk(chartk)
        Jstar = build_Jk_star(chartk)
        def one():
            alpha = OneForm(chartk, {c: ctx.gen.expr(chartk)
                                     for c in chartk.coordinates()})
            xi = VectorField(chartk, {c: ctx.gen.expr(chartk)
                                      for c in chartk.coordinates()})
            left = star_apply(Jstar, alpha).pair(xi)
            right = alpha.pair(J.apply_vector(xi))
            return _check([("alpha", alpha._inline()),
                           ("xi", xi._inline())], left, right)
        return _sample_loop(ctx, one)

    def run_metric_compat(kind: str):
        def run(ctx: SuiteContext):
            def one():
                g = ctx.gen.hermitian(chart0)
                gk = t02_lift_solve(g, kind, k)
                Jk = _lifted_J(m, "c", k)
                if hermitian_check(gk, Jk):
                    return None
                return _check([("metric", "mixed-entry symmetric")],
                              gk.pullback_endo(Jk), gk)
            return _sample_loop(ctx, one)
        return run

    def run_form_exchange(ctx: SuiteContext):
        def one():
            g = ctx.gen.hermitian(chart0)
            phi0 = fundamental_bilinear(g, build_Jk(chart0))
            Jk = _lifted_J(m, "c", k)
            for kind in ("v", "c"):
                left = t02_lift_solve(phi0, kind, k)
                right = fundamental_bilinear(t02_lift_solve(g, kind, k), Jk)
                w = _check([("kind", kind)], left, right)
                if w is not None:
                    return w
            return None
        return _sample_loop(ctx, one)

    def run_closedness(ctx: SuiteContext):
        J0 = build_Jk(chart0)
        metrics = [("flat", HermitianPackage.flat(m).metric)]
        for idx in range(ctx.samples):
            metrics.append((f"potential[{idx + 1}]",
                            ctx.gen.potential_metric(chart0)))
        rows = 0
        for label, g in metrics:
            phi0 = fundamental_bilinear(g, J0)
            rows += 1
            if not kaehler_closed(kaehler_form(g, J0)):
                return rows, f"metric = {label}; the base two-form is " \
                             f"not closed"
            for kind in ("v", "c"):
                rows += 1
                lifted = t02_lift_solve(phi0, kind, k)
                if not kaehler_closed(AltForm.from_bilinear(lifted)):
                    return rows, f"metric = {label}; kind = {kind}; the " \
                                 f"lifted two-form has nonzero differential"
        return rows, None

    return [
        Clause("S1", "structure-square", run_square(build_Jk)),
        Clause("S2", "costructure-square", run_square(build_Jk_star)),
        Clause("S3", "structure-lift-defining", run_lift_residuals),
        Clause("S4", "structure-lift-square", run_lift_square),
        Clause("S5", "structure-lift-coincides-diagonal", run_lift_coincides,
               conflict_note=coincide_note),
        Clause("S6", "costructure-duality", run_star_duality),
        Clause("S7", "metric-compat-vertical", run_metric_compat("v")),
        Clause("S8", "metric-compat-complete", run_metric_compat("c")),
        Clause("S9", "fundamental-form-exchange", run_form_exchange),
        Clause("S10", "fundamental-form-closed", run_closedness),
    ]


# ---------------------------------------------------------------------------
# brackets suite


def _brackets_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    chart0 = ctx.chart0

    def run_vv(ctx: SuiteContext):
        def one():
            Z, W = ctx.gen.vector(chart0), ctx.gen.vector(chart0)
            bracket = lie_bracket(vf_lift_solve(Z, "v", k),
                                  vf_lift_solve(W, "v", k))
            return _check([("Z", Z._inline()), ("W", W._inline())],
                          bracket, VectorField.zero(ctx.chartk))
        return _sample_loop(ctx, one)

    def run_cc(ctx: SuiteContext):
        def one():
            Z, W = ctx.gen.vector(chart0), ctx.gen.vector(chart0)
            left = lie_bracket(vf_lift_solve(Z, "c", k),
                               vf_lift_solve(W, "c", k))
            right = vf_lift_solve(lie_bracket(Z, W), "c", k)
            return _check([("Z", Z._inline()), ("W", W._inline())],
                          left, right)
        return _sample_loop(ctx, one)

    def run_mixed(ctx: SuiteContext):
        def one():
            Z, W = ctx.gen.vector(chart0), ctx.gen.vector(chart0)
            Zv, Zc = vf_lift_solve(Z, "v", k), vf_lift_solve(Z, "c", k)
            Wv, Wc = vf_lift_solve(W, "v", k), vf_lift_solve(W, "c", k)
            expect = vf_lift_solve(lie_bracket(Z, W), "v", k)
            w = _check([("Z", Z._inline()), ("W", W._inline()),
                        ("order", "[Z^v, W^c]")],
                       lie_bracket(Zv, Wc), expect)
            if w is not None:
                return w
            return _check([("Z", Z._inline()), ("W", W._inline()),
                           ("order", "[Z^c, W^v]")],
                          lie_bracket(Zc, Wv), expect)
        return _sample_loop(ctx, one)

    return [
        Clause("B1", "bracket-vertical-vanishes", run_vv),
        Clause("B2", "bracket-complete-complete", run_cc),
        Clause("B3", "bracket-mixed-vertical", run_mixed),
    ]


# ---------------------------------------------------------------------------
# frames suite


def _frames_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    chart0 = ctx.chart0
    cross_note = ("documented conflict: transition covectors pair "
                  "nontrivially with guide fields at other levels once "
                  "k >= 2")

    def frame(ctx: SuiteContext):
        return adapted_frame(ctx.chartk, ctx.conn)

    def levels_idx(ctx: SuiteContext):
        return [(r, i) for r in range(ctx.k)
                for i in range(1, ctx.m + 1)]

    def run_time_rows(ctx: SuiteContext):
        fr = frame(ctx)
        dt = OneForm.differential_of(ctx.chartk, TIME)
        T = VectorField.basis(ctx.chartk, TIME)
        rows = 1
        if dt.pair(T) != Expr.one():
            return rows, "dt(d/dt): left = " + format_expr(dt.pair(T)) + \
                "; right = 1"
        for (r, i) in levels_idx(ctx):
            for family, name in ((fr.D, "D"), (fr.Dbar, "Dbar"),
                                 (fr.V, "V"), (fr.Vbar, "Vbar")):
                rows += 1
                got = dt.pair(family[(r, i)])
                if not got.is_zero():
                    return rows, f"dt({name}[{r},{i}]): left = " \
                        f"{format_expr(got)}; right = 0"
        return rows, None

    def run_pairing(theta_of, fields_of, expect_diag: bool, label: str):
        def run(ctx: SuiteContext):
            fr = frame(ctx)
            thetas, fields = theta_of(fr), fields_of(fr)
            rows = 0
            for (r, i) in levels_idx(ctx):
                for j in range(1, ctx.m + 1):
                    rows += 1
                    got = thetas[(r, i)].pair(fields[(r, j)])
                    want = Expr.one() if (expect_diag and i == j) \
                        else Expr.zero()
                    if got != want:
                        return rows, (f"{label} at level {r}, "
                                      f"indices ({i},{j}): left = "
                                      f"{format_expr(got)}; "
                                      f"right = {format_expr(want)}")
            return rows, None
        return run

    def run_reconstruction(ctx: SuiteContext):
        fr = frame(ctx)
        def one():
            Z = ctx.gen.vector(chart0)
            lifted = vf_horizontal(Z, ctx.conn)
            rebuilt = VectorField(ctx.chartk, {TIME: Z.component(TIME)})
            for i in range(1, ctx.m + 1):
                zc = CoordId(Kind.HOLO, 0, i)
                zbc = CoordId(Kind.ANTI, 0, i)
                rebuilt = rebuilt + fr.D[(0, i)].scaled(Z.component(zc)) \
                    + fr.Dbar[(0, i)].scaled(Z.component(zbc))
            w = _check([("Z", Z._inline())], lifted, rebuilt)
            if w is not None:
                return w
            for i in range(1, ctx.m + 1):
                zc = CoordId(Kind.HOLO, 0, i)
                got = fr.theta[(0, i)].pair(lifted)
                if got != Z.component(zc):
                    return (f"Z = {Z._inline()}; theta[0,{i}](Z^H): left = "
                            f"{format_expr(got)}; "
                            f"right = {format_expr(Z.component(zc))}")
            return None
        return _sample_loop(ctx, one)

    def run_cross_level(ctx: SuiteContext):
        fr = frame(ctx)
        rows = 0
        for (r, i) in levels_idx(ctx):
            for (s, j) in levels_idx(ctx):
                rows += 1
                got = fr.eta[(r, i)].pair(fr.D[(s, j)])
                want = Expr.zero()
                if got != want:
                    return rows, (f"eta[{r},{i}](D[{s},{j}]): left = "
                                  f"{format_expr(got)}; right = 0")
        return rows, None

    return [
        Clause("FR1", "frame-time-duality", run_time_rows),
        Clause("FR2", "frame-theta-guide-diagonal",
               run_pairing(lambda fr: fr.theta, lambda fr: fr.D, True,
                           "theta(D)")),
        Clause("FR3", "frame-theta-upright-zero",
               run_pairing(lambda fr: fr.theta, lambda fr: fr.V, False,
                           "theta(V)")),
        Clause("FR4", "frame-eta-upright-diagonal",
               run_pairing(lambda fr: fr.eta, lambda fr: fr.V, True,
                           "eta(V)")),
        Clause("FR5", "frame-eta-guide-same-level",
               run_pairing(lambda fr: fr.eta, lambda fr: fr.D, False,
                           "eta(D)")),
        Clause("FR6", "frame-horizontal-reconstruction", run_reconstruction),
        Clause("FR7", "frame-full-biorthogonality", run_cross_level,
               conflict_note=cross_note if k >= 2 else None),
    ]


# ---------------------------------------------------------------------------
# run_suite


_SUITE_BUILDERS = {
    "functions": _functions_clauses,
    "vectors": _vectors_clauses,
    "oneforms": _oneforms_clauses,
    "tensors": _tensors_clauses,
    "structures": _structures_clauses,
    "brackets": _brackets_clauses,
    "frames": _frames_clauses,
}

#: Suites whose identities live on the product chart (with the shared t).
_PRODUCT_SUITES = frozenset({"functions", "vectors", "oneforms", "frames"})

#: Suites that need a random connection drawn up front.
_CONNECTION_SUITES = frozenset({"vectors", "oneforms", "frames"})


def run_suite(suite: str, m: int, k: int, gen: FieldGen | None = None,
              samples: int | None = None, *, seed: int = 0,
              t_free: bool = True) -> CheckReport:
    """Evaluate one clause list (or all of them) on seeded random corpora.

    Identical arguments produce byte-identical reports.  ``gen`` overrides
    the default generator built from ``seed``/``t_free``; ``samples``
    overrides the per-suite default sample count."""
    if suite not in SUITES and suite != "all":
        raise VerifyError(f"unknown suite {suite!r}; expected one of "
                          f"{', '.join(SUITES)} or all")
    if m < 1 or k < 1:
        raise VerifyError("m and k must both be at least 1")
    if samples is not None and samples < 1:
        raise VerifyError("samples must be at least 1")
    if gen is None:
        gen = FieldGen(seed, t_free=t_free)

    if suite == "all":
        outcomes: list[ClauseOutcome] = []
        for name in SUITES:
            outcomes.extend(
                run_suite(name, m, k, gen=gen, samples=samples).outcomes)
        shown = samples if samples is not None else "default"
        title = (f"suite=all m={m} k={k} seed={gen.seed} samples={shown} "
                 f"t_free={gen.t_free}")
        return CheckReport(title, tuple(outcomes))

    n = samples if samples is not None else DEFAULT_SAMPLES[suite]
    has_time = suite in _PRODUCT_SUITES
    chart0 = ChartSpec(m, 0, has_time)
    chartk = chart0.extend(k)
    conn = gen.connection(chartk) if suite in _CONNECTION_SUITES else None
    ctx = SuiteContext(m, k, n, gen, chart0, chartk, conn)
    clauses = _SUITE_BUILDERS[suite](ctx)
    outcomes = tuple(_evaluate(c, ctx) for c in clauses)
    title = (f"suite={suite} m={m} k={k} seed={gen.seed} samples={n} "
             f"t_free={gen.t_free}")
    return CheckReport(title, outcomes)


# ---------------------------------------------------------------------------
# closed-form comparison


@dataclass(frozen=True)
class CompareCase:
    """One field (and, for two-step lifts, one split) compared along both
    construction routes."""

    label: str
    status: str  # MATCH | MISMATCH
    witness: str | None = None

    def render(self) -> str:
        line = f"case {self.label} status={self.status}"
        if self.witness is not None:
            line += f" witness: {self.witness}"
        return line


@dataclass(frozen=True)
class CompareReport:
    """Deterministic text report of one defining-vs-closed comparison."""

    title: str
    cases: tuple[CompareCase, ...]

    @property
    def n_mismatch(self) -> int:
        return sum(1 for c in self.cases if c.status == "MISMATCH")

    @property
    def verdict(self) -> str:
        return "MATCH" if self.n_mismatch == 0 else "MISMATCH"

    def render(self) -> str:
        lines = [self.title]
        lines.extend(c.render() for c in self.cases)
        if self.n_mismatch == 0:
            lines.append("verdict: MATCH")
        else:
            lines.append(f"verdict: MISMATCH ({self.n_mismatch} of "
                         f"{len(self.cases)} cases differ)")
        return "\n".join(lines)


def _compare_diff(label: str, defining, closed) -> CompareCase:
    w = _check([], defining, closed)
    if w is None:
        return CompareCase(label, "MATCH")
    # Re-render the slot text with route names instead of left/right.
    w = w.replace("left = ", "defining = ").replace("right = ", "closed = ")
    return CompareCase(label, "MISMATCH", w.lstrip("; "))


def compare_proposition(prop: str, m: int, k: int,
                        gen: FieldGen | None = None, *, seed: int = 0,
                        samples: int = 2,
                        fields: Sequence[VectorField | OneForm] | None = None,
                        ) -> CompareReport:
    """Build a lift twice — through the defining-equation solver and through
    the closed-form constructor — and report the first differing component
    per case.  ``fields`` overrides the random corpus with explicit base
    fields (vector fields for P32x, one-forms for P33x)."""
    if prop not in COMPARISONS:
        raise VerifyError(f"unknown comparison {prop!r}; expected one of "
                          f"{', '.join(COMPARISONS)}")
    if m < 1 or k < 1:
        raise VerifyError("m and k must both be at least 1")
    if k > 4:
        raise VerifyError("comparisons are limited to k <= 4 (solver cost)")
    if samples < 1:
        raise VerifyError("samples must be at least 1")
    if gen is None:
        gen = FieldGen(seed)
    chart0 = ChartSpec(m, 0, True)

    vector_prop = prop.startswith("P32")
    if fields is None:
        if vector_prop:
            tc = 0 if prop == "P323" else None
            corpus: list = [gen.vector(chart0, time_component=tc)
                            for _ in range(samples)]
        else:
            tc = None if prop == "P331" else 0
            corpus = [gen.oneform(chart0, time_component=tc)
                      for _ in range(samples)]
    else:
        corpus = list(fields)

    name = "Z" if vector_prop else "w"
    cases: list[CompareCase] = []
    for idx, field in enumerate(corpus, start=1):
        if prop == "P321":
            cases.append(_compare_diff(
                f"{name}[{idx}]", vf_lift_solve(field, "v", k),
                vf_vertical_closed(field, k)))
        elif prop == "P322":
            cases.append(_compare_diff(
                f"{name}[{idx}]", vf_lift_solve(field, "c", k),
                vf_complete_closed(field, k)))
        elif prop == "P323":
            for r, s in _cv_splits(k):
                cases.append(_compare_diff(
                    f"{name}[{idx}] split=({r},{s})",
                    vf_lift_solve(field, "cv", k, r=r, s=s),
                    vf_cv_closed(field, r, s)))
        elif prop == "P331":
            cases.append(_compare_diff(
                f"{name}[{idx}]", of_lift_solve(field, "v", k),
                of_vertical_closed(field, k)))
        elif prop == "P332":
            cases.append(_compare_diff(
                f"{name}[{idx}]", of_lift_solve(field, "c", k),
                of_complete_closed(field, k)))
        else:  # P333
            for r, s in _cv_splits(k):
                cases.append(_compare_diff(
                    f"{name}[{idx}] split=({r},{s})",
                    of_lift_solve(field, "cv", k, r=r, s=s),
                    of_cv_closed(field, r, s)))

    subject = COMPARISON_SUBJECTS[prop]
    title = (f"compare={prop} subject={subject} m={m} k={k} seed={gen.seed} "
             f"samples={len(corpus)}")
    return CompareReport(title, tuple(cases))
