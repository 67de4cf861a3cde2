"""Identity-suite runner and closed-form comparator.

This module turns the calculus implemented in :mod:`liftcalc.lifts` and
:mod:`liftcalc.structures` on itself: every algebraic law the engine is
supposed to satisfy is encoded as a *clause*, evaluated symbolically on
seeded random corpora, and reported line by line.  Nothing here is numeric
— a clause passes only when both sides agree in Expr normal form.

A clause is a generator of cases (corpus samples, deterministic probes or
table rows), each yielding a witness or None; ``_evaluate`` alone counts
the cases and stops at the first witness.  Three outcomes are possible per
clause:

``PASS``
    every case satisfied the identity exactly;
``FAIL``
    a case violated it and no documented reason exists — an engine bug;
``CONFLICT``
    a case violated it but the violation is a documented discrepancy of
    the source calculus (the clause carries a note saying why).  Conflicts
    are reported, never hidden, and never treated as engine failures.

:func:`run_suite` evaluates one of seven fixed clause lists (or all of
them); :func:`compare_proposition` builds the same lift twice — once
through the defining-equation solver, once through the closed-form
constructor — and reports the first differing component.  Vector fields
and one-forms share one rank-1 family record (``_Rank1Family``), so every
clause and comparison the two have in common is written once.  A lift
that a clause does not name is routed by :mod:`liftcalc.lifts` (``_lift``,
``_lift_closed``); ``_SUITES`` and ``_PROPOSITIONS`` hold one record each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence

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
    _lift,
    _lift_closed,
    adapted_frame,
    fn_complete,
    fn_complete_vertical,
    fn_horizontal,
    fn_vertical,
    of_horizontal,
    of_lift_solve,
    t02_lift_solve,
    t11_defining_residuals,
    t11_lift_solve,
    vf_horizontal,
    vf_lift_solve,
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


# ---------------------------------------------------------------------------
# corpus generation

#: Largest monomial degree of a random expression.
_MAX_DEGREE = 2
#: Bound on the numerators and denominators of random coefficients.
_COEFF_BOUND = 5


class FieldGen:
    """Seeded generator of random polynomial fields on a base chart.

    Every draw goes through a single :class:`random.Random` stream, so a
    fixed seed fixes the entire corpus, in order.  Coefficients are small
    Gaussian rationals (numerators and denominators bounded by
    ``_COEFF_BOUND``) and monomials have degree at most ``_MAX_DEGREE``,
    which keeps expression growth bounded through iterated lifts.

    ``t_free`` governs *scalar* draws only: with ``t_free=False`` random
    scalars may involve the shared coordinate t.  Component expressions of
    vectors, one-forms, tensors, and connections always stay free of t —
    the solvers pin non-scalar t-behaviour separately, and every documented
    t-discrepancy of the calculus is a statement about scalar inputs.
    """

    def __init__(self, seed: int = 0, *, t_free: bool = True):
        self.seed = seed
        self.t_free = t_free
        self.rng = random.Random(seed)

    # -- scalars ------------------------------------------------------

    def rational(self) -> Fraction:
        b = _COEFF_BOUND
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
            for _ in range(self.rng.randint(0, _MAX_DEGREE)):
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

    def bilinear(self, chart: ChartSpec) -> Bilinear:
        """Random symmetric bilinear form."""
        coords = [c for c in chart.coordinates() if c.kind != Kind.TIME]
        entries: dict[tuple[CoordId, CoordId], Expr] = {}
        for i, a in enumerate(coords):
            for b in coords[i:]:
                v = self.expr(chart, allow_time=False)
                entries[(a, b)] = v
                entries[(b, a)] = v
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

    ``cases()`` yields one witness-or-None per case — a corpus sample, a
    deterministic probe or a row of a fixed table — in evaluation order,
    where a witness is a counterexample in canonical text.  The clause does
    not count its cases or stop itself: :func:`_evaluate` counts them and
    stops at the first witness, so no case after it is built or drawn.  A
    clause whose ``conflict_note`` is set turns a violation into CONFLICT
    instead of FAIL; the note explains the documented discrepancy.  Status
    is always computed from the run — a flagged clause whose cases all
    pass reports PASS."""

    clause_id: str
    locus: str
    cases: Callable[[], Iterable[str | None]]
    conflict_note: str | None = None


@dataclass
class SuiteContext:
    """Everything a clause builder needs: chart pair, sample budget, the
    shared generator, and (on product charts) one random connection."""

    m: int
    k: int
    samples: int
    gen: FieldGen
    chart0: ChartSpec
    chartk: ChartSpec
    conn: ConnectionCoeffs | None = None


def _evaluate(clause: Clause) -> ClauseOutcome:
    """Run a clause's cases up to and including the first witness."""
    evaluated, witness = 0, None
    for witness in clause.cases():
        evaluated += 1
        if witness is not None:
            break
    if witness is None:
        return ClauseOutcome(clause.clause_id, clause.locus, "PASS", evaluated)
    if clause.conflict_note is not None:
        return ClauseOutcome(clause.clause_id, clause.locus, "CONFLICT",
                             evaluated, witness, clause.conflict_note)
    return ClauseOutcome(clause.clause_id, clause.locus, "FAIL",
                         evaluated, witness)


def _sampled(ctx: SuiteContext, one: Callable[[], str | None],
             probes: Sequence[Callable[[], str | None]] = ()
             ) -> Callable[[], Iterator[str | None]]:
    """Cases of a sampled clause: the canonical t-dependent ``probes``, run
    only when the corpus itself may contain t, then ``ctx.samples`` random
    draws of ``one``."""
    def cases():
        if ctx.chart0.has_time and not ctx.gen.t_free:
            for probe in probes:
                yield probe()
        for _ in range(ctx.samples):
            yield one()
    return cases


def _first(witnesses: Iterable[str | None]) -> str | None:
    """The first witness of a lazy run of checks, or None; the checks after
    it are not run."""
    return next((w for w in witnesses if w is not None), None)


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
# small helpers shared by several suites


_T_NOTE = ("documented conflict: the identity holds only for inputs free "
           "of t")
_PAIR_NOTE = ("documented conflict: the (r,s) and (s,r) lifts are "
              "different objects already on coordinate inputs")


def _cv_splits(k: int) -> list[tuple[int, int]]:
    return [(r, k - r) for r in range(k + 1)]


def _level0_pairs(m: int) -> list[tuple[CoordId, CoordId]]:
    """The level-0 coordinate pairs (z0_i, zb0_i), i = 1..m."""
    return [(CoordId(Kind.HOLO, 0, i), CoordId(Kind.ANTI, 0, i))
            for i in range(1, m + 1)]


# ---------------------------------------------------------------------------
# functions suite


def _functions_clauses(ctx: SuiteContext) -> list[Clause]:
    k, chart0, chartk, gen = ctx.k, ctx.chart0, ctx.chartk, ctx.gen
    zero = ScalarField(chartk, Expr.zero())

    def probe_t_z() -> ScalarField:
        z = next(iter(chart0.holo_coords(0)))
        return ScalarField(chart0, Expr.atom(TIME) * Expr.atom(z))

    def homomorphism(lift, op):
        """lift(f op g) == lift(f) op lift(g) on random scalar pairs."""
        def one():
            f, g = gen.scalar(chart0), gen.scalar(chart0)
            return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                          lift(op(f, g), k), op(lift(f, k), lift(g, k)))
        return _sampled(ctx, one)

    def mul_complete():
        f, g = gen.scalar(chart0), gen.scalar(chart0)
        left = fn_complete(f * g, k)
        right = zero
        for j in range(k + 1):
            term = fn_complete_vertical(f, k - j, j) \
                * fn_complete_vertical(g, j, k - j)
            right = right + ScalarField(chartk, term.value * binomial(k, j))
        return _check([("f", _sf_str(f)), ("g", _sf_str(g))], left, right)

    def dz_exchange(kind: str):
        def one():
            f = gen.scalar(chart0)
            lifted = fn_complete(f, k)
            return _first(
                _check([("f", _sf_str(f)), ("coordinate", c0.name)],
                       _lift(ScalarField(chart0, f.value.diff(c0)), kind, k),
                       ScalarField(chartk, lifted.value.diff(CoordId(
                           c0.kind, k if kind == "v" else 0, c0.index))))
                for pair in _level0_pairs(ctx.m) for c0 in pair)
        return _sampled(ctx, one)

    def dt_exchange(kind: str):
        def check(f: ScalarField):
            left = _lift(ScalarField(chart0, f.value.diff(TIME)), kind, k)
            right = ScalarField(chartk, fn_complete(f, k).value.diff(TIME))
            return _check([("f", _sf_str(f))], left, right)
        return _sampled(ctx, lambda: check(gen.scalar(chart0)),
                        [lambda: check(probe_t_z())])

    def horizontal_zero(f: ScalarField):
        return _check([("f", _sf_str(f))], fn_horizontal(f, k), zero)

    def mul_horizontal_zero(f: ScalarField, g: ScalarField):
        return _check([("f", _sf_str(f)), ("g", _sf_str(g))],
                      fn_horizontal(f * g, k), zero)

    def mul_horizontal_probe():
        z = next(iter(chart0.holo_coords(0)))
        return mul_horizontal_zero(ScalarField(chart0, Expr.atom(TIME)),
                                   ScalarField(chart0, Expr.atom(z)))

    def cv_order_swap():
        f = gen.scalar(chart0)
        return _first(
            _check([("f", _sf_str(f)), ("split", f"({r},{s})")],
                   fn_vertical(fn_complete(f, r), s),
                   fn_complete(fn_vertical(f, s), r))
            for r, s in _cv_splits(k))

    def cv_endpoints():
        f = gen.scalar(chart0)
        return _first(
            _check([("f", _sf_str(f)), ("split", f"({r},{s})")],
                   fn_complete_vertical(f, r, s), lift(f, k))
            for r, s, lift in ((k, 0, fn_complete), (0, k, fn_vertical)))

    return [
        Clause("F1", "fn-add-vertical", homomorphism(fn_vertical, add)),
        Clause("F2", "fn-mul-vertical", homomorphism(fn_vertical, mul)),
        Clause("F3", "fn-add-complete", homomorphism(fn_complete, add)),
        Clause("F4", "fn-mul-complete-binomial", _sampled(ctx, mul_complete)),
        Clause("F5", "fn-dz-exchange-vertical", dz_exchange("v"),
               conflict_note=_T_NOTE),
        Clause("F6", "fn-dz-exchange-complete", dz_exchange("c"),
               conflict_note=_T_NOTE),
        Clause("F7", "fn-dt-exchange-vertical", dt_exchange("v"),
               conflict_note=_T_NOTE),
        Clause("F8", "fn-dt-exchange-complete", dt_exchange("c"),
               conflict_note=_T_NOTE),
        Clause("F9", "fn-horizontal-zero",
               _sampled(ctx, lambda: horizontal_zero(gen.scalar(chart0)),
                        [lambda: horizontal_zero(
                            ScalarField(chart0, Expr.atom(TIME)))]),
               conflict_note=_T_NOTE),
        Clause("F10", "fn-add-horizontal", homomorphism(fn_horizontal, add)),
        Clause("F11", "fn-mul-horizontal-zero",
               _sampled(ctx, lambda: mul_horizontal_zero(gen.scalar(chart0),
                                                         gen.scalar(chart0)),
                        [mul_horizontal_probe]),
               conflict_note=_T_NOTE),
        Clause("F12", "fn-cv-order-swap", _sampled(ctx, cv_order_swap)),
        Clause("F13", "fn-cv-endpoints", _sampled(ctx, cv_endpoints)),
    ]


# ---------------------------------------------------------------------------
# vector fields and one-forms: one rank-1 family


@dataclass(frozen=True)
class _Rank1Family:
    """What the vector and one-form calculi differ in.

    The lifts of vector fields and of one-forms are dual constructions, so
    every clause and comparison the two share is written once against this
    record."""

    cls: type                           # VectorField | OneForm
    draw_method: str                    # the FieldGen method of a corpus draw
    dt_free_kinds: frozenset[str]       # lift kinds drawn with no t-component
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


_VECTORS = _Rank1Family(
    VectorField, "vector", frozenset({"cv"}), element=VectorField.basis,
    halves=("D", "Dbar"), pair_names=("Z", "W"), name="Z")

_ONEFORMS = _Rank1Family(
    OneForm, "oneform", frozenset({"c", "cv", "h"}),
    element=OneForm.differential_of, halves=("eta", "etabar"),
    pair_names=("u", "w"), name="w")


def _rank1_add(ctx: SuiteContext, fam: _Rank1Family, kind: str):
    def one():
        X = fam.draw(ctx.gen, ctx.chart0, kind)
        Y = fam.draw(ctx.gen, ctx.chart0, kind)
        x, y = fam.pair_names
        return _check([(x, X._inline()), (y, Y._inline())],
                      _lift(X + Y, kind, ctx.k, conn=ctx.conn),
                      _lift(X, kind, ctx.k, conn=ctx.conn)
                      + _lift(Y, kind, ctx.k, conn=ctx.conn))
    return _sampled(ctx, one)


def _cv_expansion(fam: _Rank1Family, f: ScalarField, X, r: int, s: int,
                  ctx: SuiteContext):
    """The binomial side of the (r,s) scale law: the sum over h of
    C(r,h) * f^{cv(r-h,s+h)} * X^{cv(h,k-h)}."""
    k = ctx.k
    right = fam.cls.zero(ctx.chartk)
    for h in range(r + 1):
        fl = fn_complete_vertical(f, r - h, s + h).value
        Xl = _lift(X, "cv", k, r=h, s=k - h)
        right = right + Xl.scaled(fl * binomial(r, h))
    return right


def _rank1_scale(ctx: SuiteContext, fam: _Rank1Family, kind: str):
    """(fX)^v = f^v X^v; (fX)^c and every (fX)^{cv(r,s)} expand into
    complete-vertical lifts of f and X, drawn with no t-component.  The
    factor f never involves t, whatever ``t_free`` says: it multiplies into
    component expressions, which stay t-free by the generator's contract."""
    k = ctx.k

    def one():
        f = ScalarField(ctx.chart0, ctx.gen.expr(ctx.chart0, allow_time=False))
        X = fam.draw(ctx.gen, ctx.chart0, "v" if kind == "v" else "cv")
        inputs = [("f", _sf_str(f)), (fam.name, X._inline())]
        if kind == "v":
            return _check(inputs, _lift(X.scaled(f.value), "v", k),
                          _lift(X, "v", k).scaled(fn_vertical(f, k).value))
        if kind == "c":
            return _check(inputs, _lift(X.scaled(f.value), "c", k),
                          _cv_expansion(fam, f, X, k, 0, ctx))
        return _first(
            _check(inputs + [("split", f"({r},{s})")],
                   _lift(X.scaled(f.value), "cv", k, r=r, s=s),
                   _cv_expansion(fam, f, X, r, s, ctx))
            for r, s in _cv_splits(k))
    return _sampled(ctx, one)


def _rank1_basis_table(ctx: SuiteContext, fam: _Rank1Family, kind: str,
                       to_level_k: bool, t_route: str):
    """Each level-0 basis element lifts to the same element at level 0 (or
    at level k), along the defining route and the closed-form route; the t
    row is checked along ``t_route``.  One case per row."""
    k, chart0 = ctx.k, ctx.chart0
    route = {"defining": _lift, "closed": _lift_closed}

    def cases():
        for c0 in chart0.holo_coords(0) + chart0.anti_coords(0):
            X = fam.element(chart0, c0)
            expect = fam.element(
                ctx.chartk, CoordId(c0.kind, k, c0.index) if to_level_k else c0)
            for label in ("defining", "closed"):
                yield _check([("input", fam.label(c0)), ("route", label)],
                             route[label](X, kind, k), expect)
        T = fam.element(chart0, TIME)
        yield _check([("input", fam.label(TIME)), ("route", t_route)],
                     route[t_route](T, kind, k), fam.element(ctx.chartk, TIME))
    return cases


def _rank1_basis_horizontal(ctx: SuiteContext, fam: _Rank1Family):
    """The horizontal lift of each level-0 basis element is the level-0
    member of the matching adapted-frame half.  One case per element."""
    def cases():
        frame = adapted_frame(ctx.chartk, ctx.conn)
        holo, anti = (getattr(frame, half) for half in fam.halves)
        for z, zb in _level0_pairs(ctx.m):
            for c0, guide in ((z, holo[(0, z.index)]),
                              (zb, anti[(0, zb.index)])):
                yield _check([("input", fam.label(c0))],
                             _lift(fam.element(ctx.chart0, c0), "h", ctx.k,
                                   conn=ctx.conn), guide)
    return cases


def _rank1_cv_pair_swap(ctx: SuiteContext, fam: _Rank1Family):
    k = ctx.k

    def one():
        X = fam.draw(ctx.gen, ctx.chart0, "cv")
        return _first(
            _check([(fam.name, X._inline()),
                    ("split", f"({r},{s}) vs ({s},{r})")],
                   _lift(X, "cv", k, r=r, s=s),
                   _lift(X, "cv", k, r=s, s=r))
            for r, s in _cv_splits(k) if r < s)
    return _sampled(ctx, one)


# ---------------------------------------------------------------------------
# vectors suite


def _vectors_clauses(ctx: SuiteContext) -> list[Clause]:
    k, chart0, chartk, gen = ctx.k, ctx.chart0, ctx.chartk, ctx.gen
    F = _VECTORS

    def action(lift_kind: str, fn_kind: str, zero_rhs: bool = False,
               probe_expr: Callable[[], Expr] | None = None):
        def check(f: ScalarField, Z: VectorField):
            Zl = _lift(Z, lift_kind, k, conn=ctx.conn)
            left = ScalarField(chartk, Zl.apply(_lift(f, fn_kind, k).value))
            if zero_rhs:
                right = ScalarField(chartk, Expr.zero())
            else:
                out_kind = "v" if "v" in (lift_kind, fn_kind) else "c"
                right = _lift(ScalarField(chart0, Z.apply(f.value)),
                              out_kind, k)
            return _check([("f", _sf_str(f)), ("Z", Z._inline())], left, right)
        probes = [] if probe_expr is None else \
            [lambda: check(ScalarField(chart0, probe_expr()),
                           gen.vector(chart0))]
        return _sampled(
            ctx, lambda: check(gen.scalar(chart0), gen.vector(chart0)), probes)

    def basis_horizontal_time():
        T = VectorField.basis(chart0, TIME)
        yield _check([("input", "d/dt")], vf_horizontal(T, ctx.conn),
                     VectorField.basis(chartk, TIME))

    return [
        Clause("V1", "vf-add-vertical", _rank1_add(ctx, F, "v")),
        Clause("V2", "vf-add-complete", _rank1_add(ctx, F, "c")),
        Clause("V3", "vf-add-horizontal", _rank1_add(ctx, F, "h")),
        Clause("V4", "vf-scale-vertical", _rank1_scale(ctx, F, "v")),
        Clause("V5", "vf-scale-complete-binomial", _rank1_scale(ctx, F, "c")),
        Clause("V6", "vf-action-vv-zero",
               action("v", "v", zero_rhs=True,
                      probe_expr=lambda: Expr.atom(TIME)),
               conflict_note=_T_NOTE),
        Clause("V7", "vf-action-cv", action("c", "v")),
        Clause("V8", "vf-action-vc",
               action("v", "c", probe_expr=lambda: Expr.atom(TIME, 2)),
               conflict_note=_T_NOTE),
        Clause("V9", "vf-action-cc",
               action("c", "c", probe_expr=lambda: Expr.atom(TIME, 2)),
               conflict_note=_T_NOTE),
        Clause("V10", "vf-action-hv", action("h", "v")),
        Clause("V11", "vf-basis-complete-table",
               _rank1_basis_table(ctx, F, "c", False, "defining")),
        Clause("V12", "vf-basis-vertical-table",
               _rank1_basis_table(ctx, F, "v", True, "defining")),
        Clause("V13", "vf-basis-horizontal-time", basis_horizontal_time),
        Clause("V14", "vf-basis-horizontal-table",
               _rank1_basis_horizontal(ctx, F)),
        Clause("V15", "vf-cv-pair-swap", _rank1_cv_pair_swap(ctx, F),
               conflict_note=_PAIR_NOTE),
        Clause("V16", "vf-scale-cv-expansion", _rank1_scale(ctx, F, "cv")),
    ]


# ---------------------------------------------------------------------------
# one-forms suite


def _oneforms_clauses(ctx: SuiteContext) -> list[Clause]:
    k, chart0, chartk, gen = ctx.k, ctx.chart0, ctx.chartk, ctx.gen
    F = _ONEFORMS
    level_note = ("documented conflict: the engine's horizontal covector "
                  "uses the top transition level; the tabulated row names "
                  "the bottom one, and the two agree only at k = 1")
    cross_note = ("documented conflict: horizontal covectors pair "
                  "nontrivially with horizontal fields across levels once "
                  "k >= 2")

    def action(form_kind: str, vec_kind: str, zero_rhs: bool = False):
        def one():
            w = F.draw(gen, chart0, form_kind)
            Z = gen.vector(chart0)
            wl = _lift(w, form_kind, k, conn=ctx.conn)
            Zl = _lift(Z, vec_kind, k, conn=ctx.conn)
            left = ScalarField(chartk, wl.pair(Zl))
            if zero_rhs:
                right = ScalarField(chartk, Expr.zero())
            else:
                base = ScalarField(chart0, w.pair(Z))
                out_kind = "c" if (form_kind == "c" and vec_kind == "c") \
                    else "v"
                right = _lift(base, out_kind, k)
            return _check([("w", w._inline()), ("Z", Z._inline())],
                          left, right)
        return _sampled(ctx, one)

    def rejects_dt():
        dt = OneForm.differential_of(chart0, TIME)
        try:
            of_horizontal(dt, ctx.conn)
        except LiftError:
            yield None
        else:
            yield ("input = dt; a horizontal lift was produced instead of "
                   "the expected rejection")

    return [
        Clause("O1", "of-add-vertical", _rank1_add(ctx, F, "v")),
        Clause("O2", "of-add-complete", _rank1_add(ctx, F, "c")),
        Clause("O3", "of-add-horizontal", _rank1_add(ctx, F, "h")),
        Clause("O4", "of-scale-vertical", _rank1_scale(ctx, F, "v")),
        Clause("O5", "of-scale-complete-binomial", _rank1_scale(ctx, F, "c")),
        Clause("O6", "of-action-vc", action("v", "c")),
        Clause("O7", "of-action-cc", action("c", "c")),
        Clause("O8", "of-action-hh-zero", action("h", "h", zero_rhs=True),
               conflict_note=cross_note if k >= 2 else None),
        Clause("O9", "of-action-hv", action("h", "v")),
        Clause("O10", "of-basis-vertical-table",
               _rank1_basis_table(ctx, F, "v", False, "defining")),
        Clause("O11", "of-basis-complete-table",
               _rank1_basis_table(ctx, F, "c", True, "closed")),
        Clause("O12", "of-basis-horizontal-table",
               _rank1_basis_horizontal(ctx, F),
               conflict_note=level_note if k >= 2 else None),
        Clause("O13", "of-horizontal-rejects-time", rejects_dt),
        Clause("O14", "of-cv-pair-swap", _rank1_cv_pair_swap(ctx, F),
               conflict_note=_PAIR_NOTE),
        Clause("O15", "of-scale-cv-expansion", _rank1_scale(ctx, F, "cv")),
    ]


# ---------------------------------------------------------------------------
# tensors suite


def _tensors_clauses(ctx: SuiteContext) -> list[Clause]:
    k, chart0, gen = ctx.k, ctx.chart0, ctx.gen
    vert_note = ("documented conflict: the vertical covector pairing "
                 "annihilates every level-0 component, so the composition "
                 "law cannot survive the vertical lift")
    mixed_note = ("documented conflict: pairing two complete lifts does "
                  "not drop to a vertical lift")

    def defining(kind: str, out_kind: str | None = None):
        """phi^kind(xi^c) == (phi xi)^out_kind; out_kind defaults to kind."""
        def one():
            phi = gen.endo(chart0)
            xi = gen.vector(chart0)
            lifted = t11_lift_solve(phi, kind, k)
            left = lifted.apply_vector(vf_lift_solve(xi, "c", k))
            right = vf_lift_solve(phi.apply_vector(xi), out_kind or kind, k)
            return _check([("phi entries", _endo_str(phi)),
                           ("xi", xi._inline())], left, right)
        return _sampled(ctx, one)

    def form_pairing(kind: str):
        def one():
            phi = gen.endo(chart0)
            eta = gen.oneform(chart0)
            lifted = t11_lift_solve(phi, kind, k)
            left = lifted.apply_form(of_lift_solve(eta, kind, k))
            right = of_lift_solve(phi.apply_form(eta), kind, k)
            return _check([("phi entries", _endo_str(phi)),
                           ("eta", eta._inline())], left, right)
        return _sampled(ctx, one)

    def t02(kind: str):
        def one():
            G = gen.bilinear(chart0)
            X, Y = gen.vector(chart0), gen.vector(chart0)
            lifted = t02_lift_solve(G, kind, k)
            left = lifted.evaluate(vf_lift_solve(X, "c", k),
                                   vf_lift_solve(Y, "c", k))
            right = _lift(ScalarField(chart0, G.evaluate(X, Y)), kind,
                          k).value
            return _check([("X", X._inline()), ("Y", Y._inline())],
                          left, right)
        return _sampled(ctx, one)

    return [
        Clause("T1", "t11-vertical-defining", defining("v")),
        Clause("T2", "t11-vertical-form-pairing", form_pairing("v"),
               conflict_note=vert_note),
        Clause("T3", "t11-complete-defining", defining("c")),
        Clause("T4", "t11-complete-form-pairing", form_pairing("c")),
        Clause("T5", "t11-complete-mixed-pairing", defining("c", "v"),
               conflict_note=mixed_note),
        Clause("T6", "t02-vertical-defining", t02("v")),
        Clause("T7", "t02-complete-defining", t02("c")),
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
    k, m, chart0, chartk, gen = ctx.k, ctx.m, ctx.chart0, ctx.chartk, ctx.gen
    chart_inputs = [("chart", f"m={m} k={k}")]
    coincide_note = ("recorded comparison: agreement between the solved "
                     "lift and the direct diagonal construction is "
                     "reported, not assumed")

    def square(structure: Callable[[], EndoField],
               inputs: Sequence[tuple[str, str]]):
        def cases():
            S = structure()
            yield _check(inputs, S.compose(S),
                         EndoField.identity(chartk).scaled(Expr.zero()
                                                           - Expr.one()))
        return cases

    def lift_residuals():
        # The two kinds count as two cases whichever kind fails first.
        J0 = build_Jk(chart0)

        def residual(kind: str) -> str | None:
            residuals = t11_defining_residuals(J0, lift_J0(m, kind, k),
                                               kind, k)
            bad = [e for e in residuals if not e.is_zero()]
            return f"kind = {kind}; residual = {format_expr(bad[0])}" \
                if bad else None
        yield None
        yield _first(residual(kind) for kind in ("v", "c"))

    def lift_coincides():
        yield _check([("kind", "c")], lift_J0(m, "c", k), build_Jk(chartk))

    def star_duality():
        J = build_Jk(chartk)
        Jstar = build_Jk_star(chartk)

        def one():
            alpha = OneForm(chartk, {c: gen.expr(chartk)
                                     for c in chartk.coordinates()})
            xi = VectorField(chartk, {c: gen.expr(chartk)
                                      for c in chartk.coordinates()})
            left = star_apply(Jstar, alpha).pair(xi)
            right = alpha.pair(J.apply_vector(xi))
            return _check([("alpha", alpha._inline()),
                           ("xi", xi._inline())], left, right)
        yield from _sampled(ctx, one)()

    def metric_compat(kind: str):
        def one():
            g = gen.hermitian(chart0)
            gk = t02_lift_solve(g, kind, k)
            Jk = lift_J0(m, "c", k)
            if hermitian_check(gk, Jk):
                return None
            return _check([("metric", "mixed-entry symmetric")],
                          gk.pullback_endo(Jk), gk)
        return _sampled(ctx, one)

    def form_exchange():
        g = gen.hermitian(chart0)
        phi0 = fundamental_bilinear(g, build_Jk(chart0))
        Jk = lift_J0(m, "c", k)
        return _first(
            _check([("kind", kind)], t02_lift_solve(phi0, kind, k),
                   fundamental_bilinear(t02_lift_solve(g, kind, k), Jk))
            for kind in ("v", "c"))

    def closedness():
        # Every metric is drawn before any is checked; one case per
        # two-form (the base form, then its v and c lifts).
        J0 = build_Jk(chart0)
        metrics = [("flat", HermitianPackage.flat(m).metric)]
        for idx in range(ctx.samples):
            metrics.append((f"potential[{idx + 1}]",
                            gen.potential_metric(chart0)))
        for label, g in metrics:
            phi0 = fundamental_bilinear(g, J0)
            yield None if kaehler_closed(kaehler_form(g, J0)) else \
                f"metric = {label}; the base two-form is not closed"
            for kind in ("v", "c"):
                lifted = t02_lift_solve(phi0, kind, k)
                yield None if kaehler_closed(AltForm.from_bilinear(lifted)) \
                    else (f"metric = {label}; kind = {kind}; the lifted "
                          f"two-form has nonzero differential")

    return [
        Clause("S1", "structure-square",
               square(lambda: build_Jk(chartk), chart_inputs)),
        Clause("S2", "costructure-square",
               square(lambda: build_Jk_star(chartk), chart_inputs)),
        Clause("S3", "structure-lift-defining", lift_residuals),
        Clause("S4", "structure-lift-square",
               square(lambda: lift_J0(m, "c", k), [("kind", "c")])),
        Clause("S5", "structure-lift-coincides-diagonal", lift_coincides,
               conflict_note=coincide_note),
        Clause("S6", "costructure-duality", star_duality),
        Clause("S7", "metric-compat-vertical", metric_compat("v")),
        Clause("S8", "metric-compat-complete", metric_compat("c")),
        Clause("S9", "fundamental-form-exchange",
               _sampled(ctx, form_exchange)),
        Clause("S10", "fundamental-form-closed", closedness),
    ]


# ---------------------------------------------------------------------------
# brackets suite


def _brackets_clauses(ctx: SuiteContext) -> list[Clause]:
    k, chart0, gen = ctx.k, ctx.chart0, ctx.gen

    def vv():
        Z, W = gen.vector(chart0), gen.vector(chart0)
        bracket = lie_bracket(vf_lift_solve(Z, "v", k),
                              vf_lift_solve(W, "v", k))
        return _check([("Z", Z._inline()), ("W", W._inline())],
                      bracket, VectorField.zero(ctx.chartk))

    def cc():
        Z, W = gen.vector(chart0), gen.vector(chart0)
        left = lie_bracket(vf_lift_solve(Z, "c", k), vf_lift_solve(W, "c", k))
        right = vf_lift_solve(lie_bracket(Z, W), "c", k)
        return _check([("Z", Z._inline()), ("W", W._inline())], left, right)

    def mixed():
        Z, W = gen.vector(chart0), gen.vector(chart0)
        Zv, Zc = vf_lift_solve(Z, "v", k), vf_lift_solve(Z, "c", k)
        Wv, Wc = vf_lift_solve(W, "v", k), vf_lift_solve(W, "c", k)
        expect = vf_lift_solve(lie_bracket(Z, W), "v", k)
        return _first(
            _check([("Z", Z._inline()), ("W", W._inline()), ("order", order)],
                   lie_bracket(A, B), expect)
            for order, A, B in (("[Z^v, W^c]", Zv, Wc),
                                ("[Z^c, W^v]", Zc, Wv)))

    return [
        Clause("B1", "bracket-vertical-vanishes", _sampled(ctx, vv)),
        Clause("B2", "bracket-complete-complete", _sampled(ctx, cc)),
        Clause("B3", "bracket-mixed-vertical", _sampled(ctx, mixed)),
    ]


# ---------------------------------------------------------------------------
# frames suite


def _frames_clauses(ctx: SuiteContext) -> list[Clause]:
    k, m, chart0, chartk, gen = ctx.k, ctx.m, ctx.chart0, ctx.chartk, ctx.gen
    levels = [(r, i) for r in range(k) for i in range(1, m + 1)]
    cross_note = ("documented conflict: transition covectors pair "
                  "nontrivially with guide fields at other levels once "
                  "k >= 2")

    def frame():
        return adapted_frame(chartk, ctx.conn)

    def time_rows():
        fr = frame()
        dt = OneForm.differential_of(chartk, TIME)
        got = dt.pair(VectorField.basis(chartk, TIME))
        yield None if got == Expr.one() else \
            f"dt(d/dt): left = {format_expr(got)}; right = 1"
        for (r, i) in levels:
            for family, name in ((fr.D, "D"), (fr.Dbar, "Dbar"),
                                 (fr.V, "V"), (fr.Vbar, "Vbar")):
                got = dt.pair(family[(r, i)])
                yield None if got.is_zero() else (
                    f"dt({name}[{r},{i}]): left = {format_expr(got)}; "
                    f"right = 0")

    def pairing(theta_of, fields_of, expect_diag: bool, label: str):
        def cases():
            fr = frame()
            thetas, fields = theta_of(fr), fields_of(fr)
            for (r, i) in levels:
                for j in range(1, m + 1):
                    got = thetas[(r, i)].pair(fields[(r, j)])
                    want = Expr.one() if (expect_diag and i == j) \
                        else Expr.zero()
                    yield None if got == want else (
                        f"{label} at level {r}, indices ({i},{j}): left = "
                        f"{format_expr(got)}; right = {format_expr(want)}")
        return cases

    def reconstruction():
        fr = frame()

        def theta_rows(Z: VectorField, lifted: VectorField):
            for z, _ in _level0_pairs(m):
                got, want = fr.theta[(0, z.index)].pair(lifted), Z.component(z)
                yield None if got == want else (
                    f"Z = {Z._inline()}; theta[0,{z.index}](Z^H): left = "
                    f"{format_expr(got)}; right = {format_expr(want)}")

        def one():
            Z = gen.vector(chart0)
            lifted = vf_horizontal(Z, ctx.conn)
            rebuilt = VectorField(chartk, {TIME: Z.component(TIME)})
            for z, zb in _level0_pairs(m):
                rebuilt = rebuilt \
                    + fr.D[(0, z.index)].scaled(Z.component(z)) \
                    + fr.Dbar[(0, zb.index)].scaled(Z.component(zb))
            return _check([("Z", Z._inline())], lifted, rebuilt) \
                or _first(theta_rows(Z, lifted))
        yield from _sampled(ctx, one)()

    def cross_level():
        fr = frame()
        for (r, i) in levels:
            for (s, j) in levels:
                got = fr.eta[(r, i)].pair(fr.D[(s, j)])
                yield None if got.is_zero() else (
                    f"eta[{r},{i}](D[{s},{j}]): left = {format_expr(got)}; "
                    f"right = 0")

    return [
        Clause("FR1", "frame-time-duality", time_rows),
        Clause("FR2", "frame-theta-guide-diagonal",
               pairing(lambda fr: fr.theta, lambda fr: fr.D, True,
                       "theta(D)")),
        Clause("FR3", "frame-theta-upright-zero",
               pairing(lambda fr: fr.theta, lambda fr: fr.V, False,
                       "theta(V)")),
        Clause("FR4", "frame-eta-upright-diagonal",
               pairing(lambda fr: fr.eta, lambda fr: fr.V, True, "eta(V)")),
        Clause("FR5", "frame-eta-guide-same-level",
               pairing(lambda fr: fr.eta, lambda fr: fr.D, False, "eta(D)")),
        Clause("FR6", "frame-horizontal-reconstruction", reconstruction),
        Clause("FR7", "frame-full-biorthogonality", cross_level,
               conflict_note=cross_note if k >= 2 else None),
    ]


# ---------------------------------------------------------------------------
# run_suite


#: Suite name -> (clause builder, default sample count, chart has the shared
#: t, draws a random connection up front), in the order ``suite="all"`` runs.
_SUITES = {
    "functions": (_functions_clauses, 25, True, False),
    "vectors": (_vectors_clauses, 5, True, True),
    "oneforms": (_oneforms_clauses, 5, True, True),
    "tensors": (_tensors_clauses, 3, False, False),
    "structures": (_structures_clauses, 3, False, False),
    "brackets": (_brackets_clauses, 5, False, False),
    "frames": (_frames_clauses, 5, True, True),
}

SUITES = tuple(_SUITES)
DEFAULT_SAMPLES = {name: row[1] for name, row in _SUITES.items()}


def run_suite(suite: str, m: int, k: int, gen: FieldGen | None = None,
              samples: int | None = None, *, seed: int = 0,
              t_free: bool = True) -> CheckReport:
    """Evaluate one clause list (or all of them) on seeded random corpora.

    Identical arguments produce byte-identical reports.  ``gen`` overrides
    the default generator built from ``seed``/``t_free``; ``samples``
    overrides the per-suite default sample count.  ``suite="all"`` runs
    each suite through this function in turn, on one shared generator."""
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

    builder, default, has_time, drawn_connection = _SUITES[suite]
    n = samples if samples is not None else default
    chart0 = ChartSpec(m, 0, has_time)
    chartk = chart0.extend(k)
    conn = gen.connection(chartk) if drawn_connection else None
    ctx = SuiteContext(m, k, n, gen, chart0, chartk, conn)
    outcomes = tuple(_evaluate(c) for c in builder(ctx))
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


#: Comparison id -> (the family and lift kind it builds along both routes,
#: the behavioural name shown in its report header).
_PROPOSITIONS = {
    "P321": (_VECTORS, "v", "vector-vertical"),
    "P322": (_VECTORS, "c", "vector-complete"),
    "P323": (_VECTORS, "cv", "vector-complete-vertical"),
    "P331": (_ONEFORMS, "v", "oneform-vertical"),
    "P332": (_ONEFORMS, "c", "oneform-complete"),
    "P333": (_ONEFORMS, "cv", "oneform-complete-vertical"),
}

COMPARISONS = tuple(_PROPOSITIONS)
COMPARISON_SUBJECTS = {prop: row[2] for prop, row in _PROPOSITIONS.items()}


def _compare_diff(label: str, defining, closed) -> CompareCase:
    w = _check([], defining, closed)
    if w is None:
        return CompareCase(label, "MATCH")
    # Re-render the slot text with route names instead of left/right.
    w = w.replace("left = ", "defining = ").replace("right = ", "closed = ")
    return CompareCase(label, "MISMATCH", w.lstrip("; "))


def compare_proposition(prop: str, m: int, k: int, *, seed: int = 0,
                        samples: int = 2,
                        fields: Sequence[VectorField | OneForm] | None = None,
                        ) -> CompareReport:
    """Build a lift twice — through the defining-equation solver and through
    the closed-form constructor — and report the first differing component
    per case.  ``fields`` overrides the random corpus with explicit base
    fields: vector fields for P32x, one-forms for P33x, each on the base
    chart ``ChartSpec(m, 0, True)``; the title then names no seed."""
    if prop not in COMPARISONS:
        raise VerifyError(f"unknown comparison {prop!r}; expected one of "
                          f"{', '.join(COMPARISONS)}")
    if m < 1 or k < 1:
        raise VerifyError("m and k must both be at least 1")
    if k > 4:
        raise VerifyError("comparisons are limited to k <= 4 (solver cost)")
    if samples < 1:
        raise VerifyError("samples must be at least 1")
    chart0 = ChartSpec(m, 0, True)

    fam, kind, subject = _PROPOSITIONS[prop]
    if fields is None:
        gen = FieldGen(seed)
        corpus = [fam.draw(gen, chart0, kind) for _ in range(samples)]
    else:
        corpus = list(fields)
        if not corpus:
            raise VerifyError(f"{prop} compares at least one field; fields "
                              f"is empty")
        for idx, field in enumerate(corpus, start=1):
            if not (isinstance(field, fam.cls) and field.chart == chart0):
                raise VerifyError(
                    f"{prop} compares {fam.cls.__name__} fields on "
                    f"{chart0!r}; field {idx} is a {type(field).__name__} "
                    f"on {getattr(field, 'chart', None)!r}")
    splits = _cv_splits(k) if kind == "cv" else [(None, None)]
    cases: list[CompareCase] = []
    for idx, field in enumerate(corpus, start=1):
        for r, s in splits:
            label = f"{fam.name}[{idx}]"
            if r is not None:
                label += f" split=({r},{s})"
            cases.append(_compare_diff(
                label, _lift(field, kind, k, r=r, s=s),
                _lift_closed(field, kind, k, r=r, s=s)))

    drawn = f"seed={seed} " if fields is None else ""
    title = (f"compare={prop} subject={subject} m={m} k={k} {drawn}"
             f"samples={len(corpus)}")
    return CompareReport(title, tuple(cases))
