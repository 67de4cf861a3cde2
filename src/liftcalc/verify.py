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
constructor — and reports the first differing component.  Vector fields
and one-forms share one rank-1 family record (``_Rank1Family``), so every
clause and comparison the two have in common is written once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
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
    lift_J0,
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

    def _rank1(self, cls, chart: ChartSpec, time_component: ExprLike | None):
        """Random t-free components on every coordinate but t; on a time
        chart the t-component defaults to the constant 1."""
        comps = {c: self.expr(chart, allow_time=False)
                 for c in chart.coordinates() if c.kind != Kind.TIME}
        if chart.has_time:
            comps[TIME] = Expr.one() if time_component is None \
                else Expr.from_value(time_component)
        return cls(chart, comps)

    def vector(self, chart: ChartSpec, *,
               time_component: ExprLike | None = None) -> VectorField:
        """Random vector field; ``time_component=0`` drops d/dt."""
        return self._rank1(VectorField, chart, time_component)

    def oneform(self, chart: ChartSpec, *,
                time_component: ExprLike | None = None) -> OneForm:
        """Random one-form; ``time_component=0`` drops dt."""
        return self._rank1(OneForm, chart, time_component)

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
    draws = [*probes, *[one] * ctx.samples]
    for evaluated, draw in enumerate(draws, start=1):
        witness = draw()
        if witness is not None:
            return evaluated, witness
    return len(draws), None


def _t_probe_allowed(ctx: SuiteContext) -> bool:
    """Whether the canonical t-dependent probes should run: only when the
    corpus itself is allowed to contain t."""
    return ctx.chart0.has_time and not ctx.gen.t_free


_T_NOTE = ("documented conflict: the identity holds only for inputs free "
           "of t")
_PAIR_NOTE = ("documented conflict: the (r,s) and (s,r) lifts are "
              "different objects already on coordinate inputs")


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

    def run_homomorphism(lift, op):
        """lift(f op g) == lift(f) op lift(g) on random scalar pairs."""
        def run(ctx: SuiteContext):
            def one():
                f, g = ctx.gen.scalar(chart0), ctx.gen.scalar(chart0)
                return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                              lift(op(f, g), k), op(lift(f, k), lift(g, k)))
            return _sample_loop(ctx, one)
        return run

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
        Clause("F1", "fn-add-vertical", run_homomorphism(fn_vertical, add)),
        Clause("F2", "fn-mul-vertical", run_homomorphism(fn_vertical, mul)),
        Clause("F3", "fn-add-complete", run_homomorphism(fn_complete, add)),
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
        Clause("F10", "fn-add-horizontal",
               run_homomorphism(fn_horizontal, add)),
        Clause("F11", "fn-mul-horizontal-zero", run_mul_horizontal_zero,
               conflict_note=_T_NOTE),
        Clause("F12", "fn-cv-order-swap", run_cv_order_swap),
        Clause("F13", "fn-cv-endpoints", run_cv_endpoints),
    ]


# ---------------------------------------------------------------------------
# vector fields and one-forms: one rank-1 family


@dataclass(frozen=True)
class _Rank1Family:
    """What the vector and one-form calculi differ in.

    The lifts of vector fields and of one-forms are dual constructions, so
    every clause and comparison the two share is written once against this
    record.  The lift functions sit in lambdas, which look them up in this
    module at call time: a wrapper installed on the module's name (as the
    benchmark's layer trace installs one) then sees every call."""

    cls: type                           # VectorField | OneForm
    draw_method: str                    # the FieldGen method of a corpus draw
    dt_free_kinds: frozenset[str]       # lift kinds drawn with no t-component
    solve: Callable                     # (field, kind, k, *, r, s) -> field
    horizontal: Callable                # (field, connection) -> field
    closed_forms: dict[str, Callable]   # kind -> closed-form constructor
    element: Callable                   # (chart, coordinate) -> basis element
    halves: tuple[str, str]             # adapted-frame fields of holo / anti
    pair_names: tuple[str, str]         # witness names of a drawn pair
    name: str                           # witness name of one drawn field

    def draw(self, gen: FieldGen, chart: ChartSpec, kind: str):
        """Corpus draw for a lift of ``kind``."""
        tc = 0 if kind in self.dt_free_kinds else None
        return getattr(gen, self.draw_method)(chart, time_component=tc)

    def label(self, coord: CoordId) -> str:
        return self.cls._LABEL.format(coord.name)

    def lift(self, field, kind: str, ctx: SuiteContext):
        if kind == "h":
            return self.horizontal(field, ctx.conn)
        return self.solve(field, kind, ctx.k)

    def closed(self, field, kind: str, k: int, *,
               r: int | None = None, s: int | None = None):
        if kind == "cv":
            return self.closed_forms["cv"](field, r, s)
        return self.closed_forms[kind](field, k)


_VECTORS = _Rank1Family(
    VectorField, "vector", frozenset({"cv"}),
    solve=lambda *args, **split: vf_lift_solve(*args, **split),
    horizontal=lambda Z, conn: vf_horizontal(Z, conn),
    closed_forms={"v": lambda Z, k: vf_vertical_closed(Z, k),
                  "c": lambda Z, k: vf_complete_closed(Z, k),
                  "cv": lambda Z, r, s: vf_cv_closed(Z, r, s)},
    element=VectorField.basis, halves=("D", "Dbar"), pair_names=("Z", "W"),
    name="Z")

_ONEFORMS = _Rank1Family(
    OneForm, "oneform", frozenset({"c", "cv", "h"}),
    solve=lambda *args, **split: of_lift_solve(*args, **split),
    horizontal=lambda w, conn: of_horizontal(w, conn),
    closed_forms={"v": lambda w, k: of_vertical_closed(w, k),
                  "c": lambda w, k: of_complete_closed(w, k),
                  "cv": lambda w, r, s: of_cv_closed(w, r, s)},
    element=OneForm.differential_of, halves=("eta", "etabar"),
    pair_names=("u", "w"), name="w")


def _rank1_add(fam: _Rank1Family, kind: str):
    def run(ctx: SuiteContext):
        def one():
            X = fam.draw(ctx.gen, ctx.chart0, kind)
            Y = fam.draw(ctx.gen, ctx.chart0, kind)
            x, y = fam.pair_names
            return _check([(x, X._inline()), (y, Y._inline())],
                          fam.lift(X + Y, kind, ctx),
                          fam.lift(X, kind, ctx) + fam.lift(Y, kind, ctx))
        return _sample_loop(ctx, one)
    return run


def _cv_expansion(fam: _Rank1Family, f: ScalarField, X, r: int, s: int,
                  ctx: SuiteContext):
    """The binomial side of the (r,s) scale law: the sum over h of
    C(r,h) * f^{cv(r-h,s+h)} * X^{cv(h,k-h)}."""
    k = ctx.k
    right = fam.cls.zero(ctx.chartk)
    for h in range(r + 1):
        fl = fn_complete_vertical(f, r - h, s + h).value
        Xl = fam.solve(X, "cv", k, r=h, s=k - h)
        right = right + Xl.scaled(fl * binomial(r, h))
    return right


def _rank1_scale(fam: _Rank1Family, kind: str):
    """(fX)^v = f^v X^v; (fX)^c and every (fX)^{cv(r,s)} expand into
    complete-vertical lifts of f and X, drawn with no t-component.  The
    factor f never involves t, whatever ``t_free`` says: it multiplies into
    component expressions, which stay t-free by the generator's contract."""
    def run(ctx: SuiteContext):
        k = ctx.k

        def one():
            f = ScalarField(ctx.chart0,
                            ctx.gen.expr(ctx.chart0, allow_time=False))
            X = fam.draw(ctx.gen, ctx.chart0, "v" if kind == "v" else "cv")
            inputs = [("f", _sf_str(f)), (fam.name, X._inline())]
            if kind == "v":
                return _check(inputs, fam.solve(X.scaled(f.value), "v", k),
                              fam.solve(X, "v", k).scaled(
                                  fn_vertical(f, k).value))
            if kind == "c":
                return _check(inputs, fam.solve(X.scaled(f.value), "c", k),
                              _cv_expansion(fam, f, X, k, 0, ctx))
            for r, s in _cv_splits(k):
                left = fam.solve(X.scaled(f.value), "cv", k, r=r, s=s)
                w = _check(inputs + [("split", f"({r},{s})")], left,
                           _cv_expansion(fam, f, X, r, s, ctx))
                if w is not None:
                    return w
            return None
        return _sample_loop(ctx, one)
    return run


def _rank1_basis_table(fam: _Rank1Family, kind: str, to_level_k: bool,
                       t_route: str):
    """Each level-0 basis element lifts to the same element at level 0 (or
    at level k), along the defining route and the closed-form route; the t
    row is checked along ``t_route``."""
    def run(ctx: SuiteContext):
        k, chart0 = ctx.k, ctx.chart0
        route = {"defining": lambda X: fam.solve(X, kind, k),
                 "closed": lambda X: fam.closed(X, kind, k)}
        rows = 0
        for c0 in chart0.holo_coords(0) + chart0.anti_coords(0):
            X = fam.element(chart0, c0)
            expect = fam.element(
                ctx.chartk, CoordId(c0.kind, k, c0.index) if to_level_k else c0)
            for label in ("defining", "closed"):
                rows += 1
                w = _check([("input", fam.label(c0)), ("route", label)],
                           route[label](X), expect)
                if w is not None:
                    return rows, w
        T = fam.element(chart0, TIME)
        return rows + 1, _check([("input", fam.label(TIME)), ("route", t_route)],
                                route[t_route](T), fam.element(ctx.chartk, TIME))
    return run


def _rank1_basis_horizontal(fam: _Rank1Family):
    """The horizontal lift of each level-0 basis element is the level-0
    member of the matching adapted-frame half."""
    def run(ctx: SuiteContext):
        frame = adapted_frame(ctx.chartk, ctx.conn)
        holo, anti = (getattr(frame, half) for half in fam.halves)
        rows = 0
        for i in range(1, ctx.m + 1):
            for c0, guide in ((CoordId(Kind.HOLO, 0, i), holo[(0, i)]),
                              (CoordId(Kind.ANTI, 0, i), anti[(0, i)])):
                rows += 1
                w = _check([("input", fam.label(c0))],
                           fam.horizontal(fam.element(ctx.chart0, c0),
                                          ctx.conn), guide)
                if w is not None:
                    return rows, w
        return rows, None
    return run


def _rank1_cv_pair_swap(fam: _Rank1Family):
    def run(ctx: SuiteContext):
        k = ctx.k

        def one():
            X = fam.draw(ctx.gen, ctx.chart0, "cv")
            for r, s in _cv_splits(k):
                if r >= s:
                    continue
                w = _check(
                    [(fam.name, X._inline()),
                     ("split", f"({r},{s}) vs ({s},{r})")],
                    fam.solve(X, "cv", k, r=r, s=s),
                    fam.solve(X, "cv", k, r=s, s=r))
                if w is not None:
                    return w
            return None
        return _sample_loop(ctx, one)
    return run


# ---------------------------------------------------------------------------
# vectors suite


def _vectors_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    chart0 = ctx.chart0
    F = _VECTORS

    def run_action(lift_kind: str, fn_kind: str, zero_rhs: bool = False,
                   probe_expr: Callable[[], Expr] | None = None):
        def run(ctx: SuiteContext):
            def check(f: ScalarField, Z: VectorField):
                Zl = F.lift(Z, lift_kind, ctx)
                left = ScalarField(ctx.chartk,
                                   Zl.apply(_sf_lift(f, fn_kind, k).value))
                if zero_rhs:
                    right = ScalarField(ctx.chartk, Expr.zero())
                else:
                    out_kind = "v" if "v" in (lift_kind, fn_kind) else "c"
                    right = _sf_lift(ScalarField(chart0, Z.apply(f.value)),
                                     out_kind, k)
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

    def run_basis_horizontal_time(ctx: SuiteContext):
        T = VectorField.basis(chart0, TIME)
        w = _check([("input", "d/dt")], vf_horizontal(T, ctx.conn),
                   VectorField.basis(ctx.chartk, TIME))
        return 1, w

    return [
        Clause("V1", "vf-add-vertical", _rank1_add(F, "v")),
        Clause("V2", "vf-add-complete", _rank1_add(F, "c")),
        Clause("V3", "vf-add-horizontal", _rank1_add(F, "h")),
        Clause("V4", "vf-scale-vertical", _rank1_scale(F, "v")),
        Clause("V5", "vf-scale-complete-binomial", _rank1_scale(F, "c")),
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
        Clause("V11", "vf-basis-complete-table",
               _rank1_basis_table(F, "c", False, "defining")),
        Clause("V12", "vf-basis-vertical-table",
               _rank1_basis_table(F, "v", True, "defining")),
        Clause("V13", "vf-basis-horizontal-time", run_basis_horizontal_time),
        Clause("V14", "vf-basis-horizontal-table", _rank1_basis_horizontal(F)),
        Clause("V15", "vf-cv-pair-swap", _rank1_cv_pair_swap(F),
               conflict_note=_PAIR_NOTE),
        Clause("V16", "vf-scale-cv-expansion", _rank1_scale(F, "cv")),
    ]


# ---------------------------------------------------------------------------
# one-forms suite


def _oneforms_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    chart0 = ctx.chart0
    F = _ONEFORMS
    level_note = ("documented conflict: the engine's horizontal covector "
                  "uses the top transition level; the tabulated row names "
                  "the bottom one, and the two agree only at k = 1")
    cross_note = ("documented conflict: horizontal covectors pair "
                  "nontrivially with horizontal fields across levels once "
                  "k >= 2")

    def run_action(form_kind: str, vec_kind: str, zero_rhs: bool = False):
        def run(ctx: SuiteContext):
            def one():
                w = F.draw(ctx.gen, chart0, form_kind)
                Z = ctx.gen.vector(chart0)
                wl = F.lift(w, form_kind, ctx)
                Zl = _VECTORS.lift(Z, vec_kind, ctx)
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

    def run_rejects_dt(ctx: SuiteContext):
        dt = OneForm.differential_of(chart0, TIME)
        try:
            of_horizontal(dt, ctx.conn)
        except LiftError:
            return 1, None
        return 1, "input = dt; a horizontal lift was produced instead of " \
                  "the expected rejection"

    return [
        Clause("O1", "of-add-vertical", _rank1_add(F, "v")),
        Clause("O2", "of-add-complete", _rank1_add(F, "c")),
        Clause("O3", "of-add-horizontal", _rank1_add(F, "h")),
        Clause("O4", "of-scale-vertical", _rank1_scale(F, "v")),
        Clause("O5", "of-scale-complete-binomial", _rank1_scale(F, "c")),
        Clause("O6", "of-action-vc", run_action("v", "c")),
        Clause("O7", "of-action-cc", run_action("c", "c")),
        Clause("O8", "of-action-hh-zero", run_action("h", "h", zero_rhs=True),
               conflict_note=cross_note if k >= 2 else None),
        Clause("O9", "of-action-hv", run_action("h", "v")),
        Clause("O10", "of-basis-vertical-table",
               _rank1_basis_table(F, "v", False, "defining")),
        Clause("O11", "of-basis-complete-table",
               _rank1_basis_table(F, "c", True, "closed")),
        Clause("O12", "of-basis-horizontal-table", _rank1_basis_horizontal(F),
               conflict_note=level_note if k >= 2 else None),
        Clause("O13", "of-horizontal-rejects-time", run_rejects_dt),
        Clause("O14", "of-cv-pair-swap", _rank1_cv_pair_swap(F),
               conflict_note=_PAIR_NOTE),
        Clause("O15", "of-scale-cv-expansion", _rank1_scale(F, "cv")),
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

    def run_defining(kind: str, out_kind: str | None = None):
        """phi^kind(xi^c) == (phi xi)^out_kind; out_kind defaults to kind."""
        def run(ctx: SuiteContext):
            def one():
                phi = ctx.gen.endo(chart0)
                xi = ctx.gen.vector(chart0)
                lifted = t11_lift_solve(phi, kind, k)
                left = lifted.apply_vector(vf_lift_solve(xi, "c", k))
                right = vf_lift_solve(phi.apply_vector(xi), out_kind or kind, k)
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
        Clause("T5", "t11-complete-mixed-pairing", run_defining("c", "v"),
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


def _structures_clauses(ctx: SuiteContext) -> list[Clause]:
    k = ctx.k
    m = ctx.m
    chart0 = ctx.chart0
    chartk = ctx.chartk
    chart_inputs = [("chart", f"m={m} k={k}")]
    coincide_note = ("recorded comparison: agreement between the solved "
                     "lift and the direct diagonal construction is "
                     "reported, not assumed")

    def run_square(structure: Callable[[], EndoField],
                   inputs: Sequence[tuple[str, str]]):
        def run(ctx: SuiteContext):
            S = structure()
            w = _check(inputs, S.compose(S),
                       EndoField.identity(chartk).scaled(Expr.zero()
                                                         - Expr.one()))
            return 1, w
        return run

    def run_lift_residuals(ctx: SuiteContext):
        J0 = build_Jk(chart0)
        for kind in ("v", "c"):
            residuals = t11_defining_residuals(J0, lift_J0(m, kind, k),
                                               kind, k)
            bad = [e for e in residuals if not e.is_zero()]
            if bad:
                return 2, f"kind = {kind}; residual = {format_expr(bad[0])}"
        return 2, None

    def run_lift_coincides(ctx: SuiteContext):
        w = _check([("kind", "c")], lift_J0(m, "c", k),
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
                Jk = lift_J0(m, "c", k)
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
            Jk = lift_J0(m, "c", k)
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
        Clause("S1", "structure-square",
               run_square(lambda: build_Jk(chartk), chart_inputs)),
        Clause("S2", "costructure-square",
               run_square(lambda: build_Jk_star(chartk), chart_inputs)),
        Clause("S3", "structure-lift-defining", run_lift_residuals),
        Clause("S4", "structure-lift-square",
               run_square(lambda: lift_J0(m, "c", k), [("kind", "c")])),
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


#: The family and lift kind each comparison builds along both routes.
_PROPOSITIONS = {
    "P321": (_VECTORS, "v"), "P322": (_VECTORS, "c"), "P323": (_VECTORS, "cv"),
    "P331": (_ONEFORMS, "v"), "P332": (_ONEFORMS, "c"), "P333": (_ONEFORMS, "cv"),
}


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

    fam, kind = _PROPOSITIONS[prop]
    corpus = list(fields) if fields is not None \
        else [fam.draw(gen, chart0, kind) for _ in range(samples)]
    splits = _cv_splits(k) if kind == "cv" else [(None, None)]
    cases: list[CompareCase] = []
    for idx, field in enumerate(corpus, start=1):
        for r, s in splits:
            label = f"{fam.name}[{idx}]"
            if r is not None:
                label += f" split=({r},{s})"
            cases.append(_compare_diff(
                label, fam.solve(field, kind, k, r=r, s=s),
                fam.closed(field, kind, k, r=r, s=s)))

    subject = COMPARISON_SUBJECTS[prop]
    title = (f"compare={prop} subject={subject} m={m} k={k} seed={gen.seed} "
             f"samples={len(corpus)}")
    return CompareReport(title, tuple(cases))
