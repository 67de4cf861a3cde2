"""Lift operations between extension charts.

Three layers live here.

**Function lifts.**  The vertical lift of a function is the same polynomial
read on a higher-order chart.  The complete lift is the level-shift
derivation D, applied stepwise: each step sends f to
``t*(df/dt) + sum over coords c of shift(c)*(df/dc)`` where ``shift`` raises
the level of a z/zb coordinate by one (the time term only exists on charts
with a time line).  D lives in the kernel beside ``Expr.diff``
(:func:`liftcalc.symkernel._derive`), so no monomial is built or taken
apart here.  D is linear over the Gaussian rationals, so the k-step lift of
``sum c*m`` is ``sum c*D^k(m)``, read from one bounded ``lru_cache`` of
coefficient-1 monomials keyed ``(m, k)`` (:func:`_complete_term`).  Each
lift reads its monomials' steps 1..k in order, so a missing step is one
derivation of the cached step below it and nothing recurses on k.  Mixed
lifts compose the two; the horizontal lift of a function is the complete
lift minus the time-unscaled step (:func:`gamma_gradient`) of the previous
complete lift, which vanishes identically for time-free functions.  The
complete step and the gradient are one derivation pass, which differs only
in the time term.

**Horizontal lifts** of vector fields and one-forms are sums over the
connection-adapted frame (:func:`adapted_frame`); they build only the frame
fields they read: ``D`` and ``Dbar`` at level 0, ``eta`` and ``etabar`` at
the top level.

**Closed-form lifts.**  Constructors named ``*_closed`` build the lifted
vector fields and one-forms from explicit componentwise formulas (binomially
weighted level placements).  They are kept strictly separate from the solver
so the two can be compared; the package never assumes they agree.

**Determined lifts (the solver).**  Constructors named ``*_lift_solve`` treat
the lifted object as unknown and impose its defining equations against a
finite spanning family of test objects:

* vector field ``Z``:  ``Z^lift(f^{c^k}) = (Z f)^lift`` over a family of
  functions,
* one-form ``w``:  ``w^lift(X^{c^k}) = (w X)^lift`` over a family of vector
  fields,
* (1,1)-tensor ``phi``:  ``phi^lift(X^{c^k}) = (phi X)^lift`` componentwise,
* (0,2)-tensor ``G``:  ``G^lift(X^{c^k}, Y^{c^k}) = (G(X,Y))^lift`` over
  ordered pairs.

Each unknown component is a whole polynomial.  The left-hand sides depend
only on the chart, ``k`` and the op; the input enters only through the
right-hand sides.  So each defining system (:class:`_System`) is built once
per key and kept in a bounded cache: its test items, their coefficient rows
and the factorisation of its leading rows (fraction-free elimination,
:class:`liftcalc.symkernel.PolyLinearFactor`).  Per input, the system
solves itself: it replays the recorded elimination on the solved rows'
right-hand sides and back-substitutes.  Which rows are solved and which
are only checked is the system builder's choice alone.  A vector lift
solves its level ladders, the leading rows of its family, as one
block-diagonal system, with each ladder's unknowns laid out top level
first: the complete lift of the base coordinate x is the top-level
coordinate, so each ladder's first pivot is a constant and every later one
a single term.  Bottom level first, the fraction-free pivots grow with each
level and multiply every right-hand side they meet.  The one-form, (1,1)
and (0,2) lifts share one system P (test fields against their complete
lifts): every field of coefficient degree <= 1, all solved, when they are
at least as many as the unknowns (k <= 2m); otherwise a square ladder of
fields x^d d/dx, solved, then every other field of coefficient degree <= 2,
checked.  The (0,2) pair equations ``P B P^T = R``, i.e. ``(P (x) P)
vec(B) = vec(R)``, are two rounds of replays on P; the second round and
the (1,1) lift solve their rank-2 unknown row by row the same way
(:func:`_row_solve`).  The determined vector
lift is linear over the Gaussian rationals too, so one bounded table
(:func:`_vf_term_lift`) keeps the certified lifts of the one-term fields
``m d/dx_j`` with coefficient 1, each made by one public vector solve, and
three consumers sum theirs from it: the test fields' complete lifts and
the (1,1) right-hand sides and holdout residuals.  Each test field is one
such term, so it is lifted once per chart and order and its lift is kept
in the one-term table, where the (1,1) and (0,2) residuals read it again.
Each consumer certifies its own result against its own equations and
holdout.  The public vector solve, and the identity suites' vector
clauses, still solve the whole field: a sum carries no certificate of its
own, and a linearity clause would test the table against itself.  Every
solution is then checked against every equation of its system, solved or
checked, and, per input, against the defining equation on a disjoint
holdout family (the ``*_defining_residuals`` functions); any nonzero
residual raises, so a returned lift carries a machine-checked
certificate.  Equation n reads ``sum(row_n[p] * x_p) == rhs_n``.  The
replay reads only the rows that pivot, so the check against every equation
is the only consistency check.  Each op has one input check, which its
solver and its residual function both make, so both refuse alike; the
vector and one-form solvers make it once and then evaluate their holdout
as their residual functions do (:func:`_holdout_residuals`).

**Lift routes.**  :func:`_lift` (defining) and :func:`_lift_closed` (closed
form) are the one map from a field's class and a lift kind to the
constructor that builds it; the command line and the identity suites route
every lift they do not name directly through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import prod
from typing import Callable, Iterable, Sequence

from .charts import ChartSpec
from .fields import (
    Bilinear,
    ConnectionCoeffs,
    EndoField,
    FieldError,
    OneForm,
    ScalarField,
    VectorField,
)
from .symkernel import (
    GR_ONE,
    TIME,
    CoordId,
    Expr,
    Kind,
    LinearSolveError,
    PolyLinearFactor,
    _accumulate,
    _add_product,
    _derive,
    _expr,
    binomial,
    format_expr,
)


class LiftError(Exception):
    """A lift operation was asked for outside its domain, or a determined
    lift could not be certified."""


VF_KINDS = ("v", "c", "cv")

# Cache bounds.  One `check all --m 1 --k 2` run (seeds 3 and 11) leaves 92
# per-monomial steps in `_complete_term`, so its bound holds far larger
# charts and orders without evicting.  The one-term vector lifts
# (`_vf_term_lift`) number 91 after `check all --m 1 --k 2 --seed 0`, 608
# after `check tensors --m 2 --k 4` and 1,360 after `check all --m 2 --k 5`,
# the largest run CI makes, which their bound holds without evicting.
_COMPLETE_CACHE_SIZE = 8192
_SYSTEM_CACHE_SIZE = 256
_VF_TERM_CACHE_SIZE = 2048


# ---------------------------------------------------------------------------
# Function lifts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_COMPLETE_CACHE_SIZE)
def _complete_term(m: int, steps: int) -> Expr:
    """``D^steps(m)`` of the coefficient-1 monomial `m` (``steps >= 1``),
    one step from ``D^(steps-1)(m)``.  :func:`_complete_expr` reads a
    monomial's steps upward, so the step below is a hit and no miss
    recurses more than one level."""
    below = _complete_term(m, steps - 1) if steps > 1 else _expr({m: GR_ONE})
    return _derive(below, True)


def _complete_expr(expr: Expr, steps: int) -> Expr:
    """The complete lift ``sum c * D^steps(m)`` over the terms ``c*m`` of
    `expr`, each ``D^steps(m)`` read from :func:`_complete_term` after the
    steps below it.  ``_complete_expr.cache_info()`` is that table's; the
    benchmark's layer trace reads it."""
    if steps <= 0:
        return expr
    terms = expr._terms
    acc: dict = {}
    for m, c in terms.items():
        for step in range(1, steps + 1):
            lifted = _complete_term(m, step)
        if len(terms) == 1:
            return lifted if c == GR_ONE else lifted.scale(c)
        items = lifted._terms.items()
        if c != GR_ONE:
            items = [(lm, lc * c) for lm, lc in items]
        _accumulate(acc, items)
    return _expr(acc)


_complete_expr.cache_info = _complete_term.cache_info


def _lift_scalar_expr(expr: Expr, kind: str, k: int, r: int | None,
                      s: int | None) -> Expr:
    """Lift a base-chart scalar; vertical steps leave the polynomial alone."""
    if kind == "v":
        return expr
    if kind == "c":
        return _complete_expr(expr, k)
    if kind == "cv":
        return _complete_expr(expr, r)
    raise LiftError(f"unknown lift kind {kind!r}")


def clear_lift_cache() -> None:
    """Empty the process's lift caches: the per-monomial complete-lift
    table, the defining systems with their test families (:func:`_system`)
    and the table of one-term vector lifts, the test fields' complete lifts
    among them (:func:`_vf_term_lift`)."""
    _complete_term.cache_clear()
    _system.cache_clear()
    _vf_term_lift.cache_clear()


def fn_vertical(f: ScalarField, steps: int = 1) -> ScalarField:
    """Vertical lift: the same polynomial on a chart `steps` orders higher."""
    if steps < 0:
        raise LiftError("vertical lift takes a non-negative step count")
    return ScalarField(f.chart.extend(steps), f.value)


def fn_complete(f: ScalarField, steps: int) -> ScalarField:
    if steps < 0:
        raise LiftError("complete lift takes a non-negative step count")
    return ScalarField(f.chart.extend(steps), _complete_expr(f.value, steps))


def fn_complete_vertical(f: ScalarField, r: int, s: int) -> ScalarField:
    """Complete r steps, then vertical s steps (the two step kinds commute
    on functions; the property suite checks this rather than assuming it)."""
    if r < 0 or s < 0:
        raise LiftError("lift step counts must be non-negative")
    return fn_vertical(fn_complete(f, r), s)


def gamma_gradient(f: ScalarField) -> ScalarField:
    """The time-unscaled step: like one complete step but the time term is
    (df/dt) instead of t*(df/dt).  Only defined on charts with a time line."""
    if not f.chart.has_time:
        raise LiftError("gamma_gradient requires a chart with a time coordinate")
    return ScalarField(f.chart.extend(1), _derive(f.value, False))


def fn_horizontal(f: ScalarField, k: int) -> ScalarField:
    """Horizontal lift of a function: complete lift minus the time-unscaled
    step of the order-(k-1) complete lift.  Identically zero on time-free
    functions; for time-dependent ones it measures the time defect."""
    if k < 1:
        raise LiftError("horizontal lift needs k >= 1")
    if not f.chart.has_time:
        raise LiftError("horizontal lift requires a chart with a time coordinate")
    top = fn_complete(f, k)
    grad = gamma_gradient(fn_complete(f, k - 1))
    return ScalarField(top.chart, top.value - grad.value)


# ---------------------------------------------------------------------------
# Closed-form lifts of vector fields and one-forms
# ---------------------------------------------------------------------------

def _require_base_chart(obj, what: str, k: int = 0) -> ChartSpec:
    """The order-0 chart of `obj`, which lifts to order `k` >= 0."""
    if obj.chart.k != 0:
        raise LiftError(f"{what} must live on an order-0 chart")
    if k < 0:
        raise LiftError("lift order must be non-negative")
    return obj.chart


def _constant_time_component(comp: Expr, what: str) -> Expr:
    if not comp.is_constant():
        raise LiftError(
            f"{what} requires a constant time component, got {format_expr(comp)}")
    return comp


def vf_vertical_closed(Z: VectorField, k: int) -> VectorField:
    """Closed-form vertical lift: level-0 components move to level k (the
    time component, if any, stays on the time direction)."""
    chart0 = _require_base_chart(Z, "vertical lift input", k)
    target = chart0.extend(k)
    comps: dict[CoordId, Expr] = {}
    for coord, comp in Z.components.items():
        if coord.kind == Kind.TIME:
            comps[TIME] = comp
        else:
            comps[CoordId(coord.kind, k, coord.index)] = comp
    return VectorField(target, comps)


def _closed(obj, k: int, what: str,
            slots: Sequence[tuple[int, int, int | Fraction]]):
    """Closed-form complete or complete-vertical lift of a base vector field
    or one-form to the order-k chart.  The time component must be constant
    and stays on the time slot.  Each other component lands on every
    ``(level, steps, weight)`` slot as ``weight`` times its ``steps``-fold
    complete lift, at that level of the same direction."""
    chart0 = obj.chart
    comps: dict[CoordId, Expr] = {}
    if chart0.has_time:
        tc = _constant_time_component(obj.component(TIME), what)
        if not tc.is_zero():
            comps[TIME] = tc
    for coord, comp in obj.components.items():
        if coord.kind == Kind.TIME:
            continue
        for level, steps, weight in slots:
            value = _complete_expr(comp, steps)
            if value.is_zero():
                continue
            if weight != 1:
                value = value * weight
            slot = CoordId(coord.kind, level, coord.index)
            comps[slot] = comps.get(slot, Expr.zero()) + value
    return type(obj)(chart0.extend(k), comps)


def vf_complete_closed(Z: VectorField, k: int) -> VectorField:
    """Closed-form complete lift: the level-r slot of direction i carries
    C(k, r) times the mixed lift (Z-component)^{v^{k-r} c^r}.  Requires a
    constant time component."""
    _require_base_chart(Z, "complete lift input", k)
    return _closed(Z, k, "closed-form complete lift",
                   [(r, r, binomial(k, r)) for r in range(k + 1)])


def vf_cv_closed(Z: VectorField, r: int, s: int) -> VectorField:
    """Closed-form complete-vertical lift at split (r, s), k = r + s:
    the level-l slot of direction i carries C(r, k-l) times
    (Z-component)^{v^{s+k-l} c^{l-s}}; slots with l < s are zero."""
    if r < 0 or s < 0:
        raise LiftError("lift split must be non-negative")
    k = r + s
    _require_base_chart(Z, "complete-vertical lift input")
    return _closed(Z, k, "closed-form complete-vertical lift",
                   [(level, level - s, binomial(r, k - level))
                    for level in range(s, k + 1)])


def of_vertical_closed(w: OneForm, k: int) -> OneForm:
    """Closed-form vertical lift of a one-form: the same components on the
    same (level-0 and time) slots, read on the order-k chart."""
    chart0 = _require_base_chart(w, "vertical lift input", k)
    return OneForm(chart0.extend(k), dict(w.components))


def of_complete_closed(w: OneForm, k: int) -> OneForm:
    """Closed-form complete lift of a one-form: the level-r slot of index i
    carries (w-component)^{c^{k-r} v^r}, with no binomial weight.  The time
    component must be constant and stays on dt."""
    _require_base_chart(w, "complete lift input", k)
    return _closed(w, k, "closed-form complete lift",
                   [(r, k - r, 1) for r in range(k + 1)])


def of_cv_closed(w: OneForm, r: int, s: int) -> OneForm:
    """Closed-form complete-vertical lift of a one-form at split (r, s),
    k = r + s: the level-l slot carries (C(r,l)/C(k,l)) times
    (w-component)^{v^{s+l} c^{r-l}}; slots with l > r are zero."""
    if r < 0 or s < 0:
        raise LiftError("lift split must be non-negative")
    k = r + s
    _require_base_chart(w, "complete-vertical lift input")
    return _closed(w, k, "closed-form complete-vertical lift",
                   [(level, r - level,
                     Fraction(binomial(r, level), binomial(k, level)))
                    for level in range(r + 1)])


# ---------------------------------------------------------------------------
# Adapted frames and horizontal lifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedFrame:
    """The connection-adapted frame and coframe of an order-k chart.

    For levels 0 <= r <= k-1 and indices 1 <= i <= m:

    * ``D[(r, i)]``   = d/dz{r}_{i} - sum_j gamma[r,j,i] d/dz{r+1}_{j}
    * ``V[(r, i)]``   = d/dz{r+1}_{i}
    * ``theta[(r,i)]`` = dz{r}_{i}
    * ``eta[(r, i)]`` = dz{r+1}_{i} + sum_j gamma[r,i,j] dz{r}_{j}

    with barred versions built from the antiholomorphic coefficients.  The
    same-level duality relations (theta against D, eta against V and D) are
    verified by the frames suite, not assumed.
    """

    chart: ChartSpec
    conn: ConnectionCoeffs
    D: dict
    Dbar: dict
    V: dict
    Vbar: dict
    theta: dict
    thetabar: dict
    eta: dict
    etabar: dict


def _frame_vector(chart: ChartSpec, conn: ConnectionCoeffs, r: int, i: int,
                  kind: Kind) -> VectorField:
    """``D[(r, i)]`` (kind HOLO) or ``Dbar[(r, i)]`` (kind ANTI)."""
    gamma = conn.gamma_at if kind == Kind.HOLO else conn.gammabar_at
    comps = {CoordId(kind, r, i): Expr.one()}
    for j in range(1, chart.m + 1):
        g = gamma(r, j, i)
        if not g.is_zero():
            comps[CoordId(kind, r + 1, j)] = -g
    return VectorField(chart, comps)


def _frame_form(chart: ChartSpec, conn: ConnectionCoeffs, r: int, i: int,
                kind: Kind) -> OneForm:
    """``eta[(r, i)]`` (kind HOLO) or ``etabar[(r, i)]`` (kind ANTI)."""
    gamma = conn.gamma_at if kind == Kind.HOLO else conn.gammabar_at
    comps = {CoordId(kind, r + 1, i): Expr.one()}
    for j in range(1, chart.m + 1):
        g = gamma(r, i, j)
        if not g.is_zero():
            comps[CoordId(kind, r, j)] = g
    return OneForm(chart, comps)


def adapted_frame(chart: ChartSpec, conn: ConnectionCoeffs) -> AdaptedFrame:
    if conn.chart != chart:
        raise LiftError("connection coefficients belong to a different chart")
    if chart.k < 1:
        raise LiftError("adapted frames need extension order k >= 1")
    D: dict = {}
    Dbar: dict = {}
    V: dict = {}
    Vbar: dict = {}
    theta: dict = {}
    thetabar: dict = {}
    eta: dict = {}
    etabar: dict = {}
    for r in range(chart.k):
        for i in range(1, chart.m + 1):
            D[(r, i)] = _frame_vector(chart, conn, r, i, Kind.HOLO)
            Dbar[(r, i)] = _frame_vector(chart, conn, r, i, Kind.ANTI)
            V[(r, i)] = VectorField.basis(chart, CoordId(Kind.HOLO, r + 1, i))
            Vbar[(r, i)] = VectorField.basis(chart, CoordId(Kind.ANTI, r + 1, i))
            theta[(r, i)] = OneForm.differential_of(chart, CoordId(Kind.HOLO, r, i))
            thetabar[(r, i)] = OneForm.differential_of(chart, CoordId(Kind.ANTI, r, i))
            eta[(r, i)] = _frame_form(chart, conn, r, i, Kind.HOLO)
            etabar[(r, i)] = _frame_form(chart, conn, r, i, Kind.ANTI)
    return AdaptedFrame(chart, conn, D, Dbar, V, Vbar,
                        theta, thetabar, eta, etabar)


def vf_horizontal(Z: VectorField, conn: ConnectionCoeffs) -> VectorField:
    """Horizontal lift of a base vector field through an adapted frame:
    the time component rides along vertically and each level-0 component
    multiplies the corresponding level-0 frame field D."""
    chart0 = _require_base_chart(Z, "horizontal lift input")
    if not chart0.has_time:
        raise LiftError("horizontal lifts require a chart with a time coordinate")
    target = conn.chart
    if target.m != chart0.m or not target.has_time or target.k < 1:
        raise LiftError("connection chart must extend the input chart")
    out = VectorField.zero(target)
    tc = Z.component(TIME)
    if not tc.is_zero():
        out = out + VectorField(target, {TIME: tc})
    for i in range(1, chart0.m + 1):
        for kind in (Kind.HOLO, Kind.ANTI):
            zc = Z.component(CoordId(kind, 0, i))
            if not zc.is_zero():
                out = out + _frame_vector(target, conn, 0, i, kind).scaled(zc)
    return out


def of_horizontal(w: OneForm, conn: ConnectionCoeffs) -> OneForm:
    """Horizontal lift of a base one-form: each level-0 component multiplies
    the top-level coframe form eta.  The time component must vanish — with a
    dt term the two defining pairing clauses cannot hold simultaneously."""
    chart0 = _require_base_chart(w, "horizontal lift input")
    if not chart0.has_time:
        raise LiftError("horizontal lifts require a chart with a time coordinate")
    if not w.component(TIME).is_zero():
        raise LiftError(
            "horizontal lift of a one-form requires a zero time component: "
            "a dt term would have to pair to zero against every horizontal "
            "lift and to itself against every vertical lift at once")
    target = conn.chart
    if target.m != chart0.m or not target.has_time or target.k < 1:
        raise LiftError("connection chart must extend the input chart")
    out = OneForm.zero(target)
    for i in range(1, chart0.m + 1):
        for kind in (Kind.HOLO, Kind.ANTI):
            zc = w.component(CoordId(kind, 0, i))
            if not zc.is_zero():
                out = out + _frame_form(target, conn, target.k - 1, i,
                                        kind).scaled(zc)
    return out


# ---------------------------------------------------------------------------
# Determined lifts: test families
# ---------------------------------------------------------------------------

def _base_coords(chart0: ChartSpec) -> list[CoordId]:
    return list(chart0.holo_coords(0) + chart0.anti_coords(0))


def _monomial(coords: Iterable[CoordId]) -> Expr:
    """The product of `coords`, a coordinate once per factor."""
    return prod(map(Expr.atom, coords), start=Expr.one())


def _one_term_fields(chart0: ChartSpec, coeff: Expr) -> list[VectorField]:
    """``coeff d/dx`` for each base coordinate x, in chart order."""
    return [VectorField(chart0, {x: coeff}) for x in _base_coords(chart0)]


def function_family(chart0: ChartSpec, include_time: bool, k: int
                    ) -> tuple[Expr, ...]:
    """Functions whose defining equations pin a lifted vector field: the
    coordinates, all their squares and pairwise products, and pure powers up
    to degree k+1 (plus t itself when requested).  A coordinate's pure powers
    x, x^2, ..., x^{k+1} pin the whole level ladder above x; the mixed
    quadratics tie the ladders together."""
    coords0 = _base_coords(chart0)
    fam = [Expr.atom(TIME)] if include_time and chart0.has_time else []
    fam += [_monomial(combo) for d in (1, 2)
            for combo in combinations_with_replacement(coords0, d)]
    fam += [_monomial((c,) * d) for d in range(3, max(3, k + 1) + 1)
            for c in coords0]
    return tuple(fam)


def function_holdout(chart0: ChartSpec) -> tuple[Expr, ...]:
    """Degree-3 mixed products — disjoint from the solving family, whose
    degree-3 members are pure cubes."""
    return tuple(_monomial(combo) for combo in
                 combinations_with_replacement(_base_coords(chart0), 3)
                 if len(set(combo)) > 1)


def _vector_stage(chart0: ChartSpec, stage: int) -> tuple[VectorField, ...]:
    """Test vector fields with coefficient degree == stage (stage 0 also
    contributes the time direction on product charts)."""
    out = []
    if stage == 0 and chart0.has_time:
        out.append(VectorField.basis(chart0, TIME))
    for combo in combinations_with_replacement(_base_coords(chart0), stage):
        out += _one_term_fields(chart0, _monomial(combo))
    return tuple(out)


def _vector_ladder(chart0: ChartSpec, k: int) -> tuple[VectorField, ...]:
    """The time direction on product charts, then per base coordinate x the
    k+1 fields ``x^d d/dx`` for d = 0, 1, 2, 4, 5, ...  A field ``f d/dx``
    reaches only x's levels, so their pairing rows are square and block
    diagonal, and in chart order every pivot is one monomial.  d = 3 is
    skipped: ``x^3 d/dx`` is a holdout field."""
    degrees = [d for d in range(k + 2) if d != 3][:k + 1]
    out = [VectorField.basis(chart0, TIME)] if chart0.has_time else []
    out += [VectorField(chart0, {x: Expr.atom(x) ** d})
            for x in _base_coords(chart0) for d in degrees]
    return tuple(out)


def vector_test_holdout(chart0: ChartSpec) -> tuple[VectorField, ...]:
    """Cube-coefficient fields; coefficient degrees used for solving stop at 2."""
    return tuple(X for c in _base_coords(chart0)
                 for X in _one_term_fields(chart0, _monomial((c,) * 3)))


# ---------------------------------------------------------------------------
# Determined lifts: defining systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveCertificate:
    """Record of a certified determined-lift solve: which lift, how many
    defining equations it met (``family_size``) and on how many holdout
    equations it was checked (``holdout_size``).  Both count in the op's
    unit: scalar equations for vector and one-form lifts, test fields
    (vector equations) for (1,1) lifts and ordered pairs of test fields for
    (0,2) lifts.  Other laws are the suites' to check."""

    op: str
    kind: str
    k: int
    r: int | None
    s: int | None
    family_size: int
    holdout_size: int

    @property
    def residuals_zero(self) -> bool:
        """Always True: a nonzero residual raises before a certificate
        exists."""
        return True


def _check_kind(kind: str, k: int, r: int | None, s: int | None
                ) -> tuple[int | None, int | None]:
    if kind not in VF_KINDS:
        raise LiftError(f"unknown lift kind {kind!r}; expected one of {VF_KINDS}")
    if k < 1:
        raise LiftError("determined lifts need k >= 1")
    if kind == "cv":
        if r is None or s is None or r < 0 or s < 0:
            raise LiftError("complete-vertical lifts need a split r, s >= 0")
        if r + s != k:
            raise LiftError(f"split must satisfy r + s = k, got {r} + {s} != {k}")
        return r, s
    return None, None


class _System:
    """One defining system: its test items, each item's coefficient row
    ``{position: Expr}``, and the factorisation of its first `solved` rows
    (all rows by default), built on first use.  The rows after them are
    only checked, never factored (a holdout's are only evaluated)."""

    def __init__(self, items: Sequence, rows: list[dict[int, Expr]],
                 width: int, solved: int | None = None):
        self.items, self.rows, self.width = items, rows, width
        self.solved = len(rows) if solved is None else solved

    @cached_property
    def factor(self) -> PolyLinearFactor:
        return PolyLinearFactor(self.rows[:self.solved], self.width)

    def solve(self, rhs: Sequence[Expr], names: Sequence[str], what: str
              ) -> list[Expr]:
        """Equation n reads ``sum(row_n[p] * x_p) == rhs_n``.  Replay the
        factorisation on the solved rows' right-hand sides (pivot rows
        only), then check the solution against every equation, solved or
        only checked, the one consistency check; `what` names the lift in
        the error texts."""
        try:
            values = self.factor.solve(rhs[:self.solved], names)
        except LinearSolveError as exc:
            raise LiftError(f"{what} solve: {exc}") from exc
        for n, total in enumerate(self.evaluate(rhs, values)):
            if not total.is_zero():
                raise LiftError(
                    f"{what} solve: solution fails its own equation {n}")
        return values

    def evaluate(self, rhs: Sequence[Expr], values: Sequence[Expr]
                 ) -> Iterable[Expr]:
        """Each equation's left-hand side minus its right-hand side,
        ``sum(row_n[p] * values[p]) - rhs_n``, one equation at a time."""
        for row, b in zip(self.rows, rhs):
            acc = (-b)._terms       # a fresh map
            for p, c in row.items():
                _add_product(acc, c, values[p])
            yield _expr(acc)


@lru_cache(maxsize=_SYSTEM_CACHE_SIZE)
def _system(key: tuple) -> _System:
    """The defining system ``key[0](*key[1:])``, the only place test
    families are kept.  A key is a builder followed by its arguments
    (chart, order, whether t is an unknown); the system depends on nothing
    else, so every input with the same key shares it and its
    factorisation.  A build that raises stores nothing."""
    return key[0](*key[1:])


def _refuse_nonzero(what: str, residuals: Iterable[Expr]) -> None:
    """Refuse a lift whose holdout leaves a nonzero residual."""
    bad = next((res for res in residuals if not res.is_zero()), None)
    if bad is not None:
        raise LiftError(f"{what} holdout residual nonzero: {format_expr(bad)}")


def _holdout_residuals(builder, chart0: ChartSpec, lifted, apply: Callable,
                       kind: str, k: int, r: int | None, s: int | None
                       ) -> list[Expr]:
    """A vector or one-form lift's residuals on the holdout system of
    `builder`: each row at `lifted`'s components less the `kind`-lift of
    ``apply(item)``, the input applied to or paired with the test item."""
    target = chart0.extend(k)
    if lifted.chart != target:
        raise FieldError(f"chart mismatch: {lifted.chart} vs {target}")
    system = _system((builder, chart0, k))
    return list(system.evaluate(
        [_lift_scalar_expr(apply(x), kind, k, r, s) for x in system.items],
        [lifted.component(c) for c in target.coordinates()]))


# -- vector fields -----------------------------------------------------------

def _vf_layout(chart0: ChartSpec, k: int, include_time: bool) -> list[CoordId]:
    """The unknown components, ladder by ladder: the time component when it
    is one (only for vertical lifts; other kinds pin it to the input's
    constant), then each base coordinate's levels, top level first."""
    coords = [TIME] if include_time else []
    coords += [CoordId(base.kind, level, base.index)
               for base in _base_coords(chart0) for level in range(k, -1, -1)]
    return coords


def _vf_system(functions: Sequence[Expr], coords: Sequence[CoordId],
               k: int, solved: int | None = None) -> _System:
    """Rows of ``Z^lift(f^{c^k}) = sum over c of Z^c * d(f^{c^k})/dc``.  No
    family function carries t when the time component is pinned; any
    coordinate outside `coords` has no component and gets no entry."""
    position = {c: p for p, c in enumerate(coords)}
    rows = []
    for f in functions:
        fck = _complete_expr(f, k)
        rows.append({position[c]: fck.diff(c) for c in fck.coords()
                     if c in position})
    return _System(functions, rows, len(coords), solved)


def _vf_family(chart0: ChartSpec, k: int, include_time: bool) -> _System:
    """The function family's rows, level ladders first, and only the
    ladders solved: t when its component is unknown, then the pure powers
    x ... x^{k+1} of each base coordinate x, which reach only x's own
    levels, so the ladder rows are one square block-diagonal system.  With
    the levels top first, ``x^{c^k}`` gives each ladder a constant first
    pivot and every later pivot is one term, so the fraction-free replay
    stays narrow; bottom level first, the pivots grow with every level (40
    terms at k = 5) and multiply each right-hand side they meet.  Every
    ladder function is a family member; the rest of the family is checked."""
    ladders = [Expr.atom(TIME)] if include_time else []
    ladders += [Expr.atom(x) ** d for x in _base_coords(chart0)
                for d in range(1, k + 2)]
    lead = set(ladders)
    functions = tuple(ladders) + tuple(
        f for f in function_family(chart0, include_time, k) if f not in lead)
    return _vf_system(functions, _vf_layout(chart0, k, include_time), k,
                      len(ladders))


def _vf_holdout(chart0: ChartSpec, k: int) -> _System:
    """The holdout functions' rows over every coordinate of the chart."""
    return _vf_system(function_holdout(chart0),
                      chart0.extend(k).coordinates(), k)


def _vf_input(Z: VectorField, kind: str, k: int, r: int | None = None,
              s: int | None = None) -> tuple:
    """The vector lift's one input check, made by its solver, its residuals
    and :func:`_vf_lift_composed`.  Returns the base chart, the split and
    the time component that kinds c and cv keep as it is, which must be
    constant; a vertical lift solves for it."""
    chart0 = _require_base_chart(Z, "determined lift input")
    r, s = _check_kind(kind, k, r, s)
    if kind == "v" or not chart0.has_time:
        return chart0, r, s, {}
    tc = Z.component(TIME)
    if not tc.is_constant():
        raise LiftError(
            "complete and complete-vertical lifts require a constant "
            f"time component, got {format_expr(tc)}")
    return chart0, r, s, {TIME: tc}


def vf_lift_solve_certified(Z: VectorField, kind: str, k: int, *,
                            r: int | None = None, s: int | None = None
                            ) -> tuple[VectorField, SolveCertificate]:
    """Determined lift of a vector field, with its solve certificate.

    The defining equations decouple into one small square block per level
    ladder (the pure powers of a base coordinate only ever reach that
    coordinate's higher levels).  The family's rows are laid out ladders
    first, and the ladders alone are solved, as one block-diagonal system
    by one replay, and every family equation is then checked against
    that solution.  The ladder system is square and nonsingular and its
    equations are a subset of the family's, so when it has no solution
    neither has the family, and its error is raised."""
    chart0, r, s, pinned = _vf_input(Z, kind, k, r, s)
    include_time = chart0.has_time and kind == "v"
    coords = _vf_layout(chart0, k, include_time)
    what = f"vector {kind}-lift"
    family = _system((_vf_family, chart0, k, include_time))
    values = family.solve([_lift_scalar_expr(Z.apply(f), kind, k, r, s)
                           for f in family.items],
                          [f"U_{c.name}" for c in coords], what)

    comps = dict(pinned)          # in chart order, not the ladder layout
    for coord, value in sorted(zip(coords, values),
                               key=lambda item: item[0].sort_key()):
        if not value.is_zero():
            comps[coord] = value
    result = VectorField(chart0.extend(k), comps)
    residuals = _holdout_residuals(_vf_holdout, chart0, result, Z.apply,
                                   kind, k, r, s)
    _refuse_nonzero(what, residuals)
    return result, SolveCertificate("vector", kind, k, r, s, len(family.items),
                                    len(residuals))


def vf_lift_solve(Z: VectorField, kind: str, k: int, *,
                  r: int | None = None, s: int | None = None) -> VectorField:
    return vf_lift_solve_certified(Z, kind, k, r=r, s=s)[0]


def vf_defining_residuals(Z: VectorField, lifted: VectorField, kind: str,
                          k: int, *, r: int | None = None, s: int | None = None
                          ) -> list[Expr]:
    """Residuals lifted(f^{c^k}) - (Z f)^lift over the holdout functions,
    evaluated on cached rows as the family check is."""
    chart0, r, s, _ = _vf_input(Z, kind, k, r, s)
    return _holdout_residuals(_vf_holdout, chart0, lifted, Z.apply,
                              kind, k, r, s)


# -- vector lifts composed from one-term lifts --------------------------------

@lru_cache(maxsize=_VF_TERM_CACHE_SIZE)
def _vf_term_lift(chart0: ChartSpec, direction: CoordId, m: tuple, kind: str,
                  k: int) -> VectorField:
    """The certified lift of the coefficient-1 one-term field ``m
    d/d(direction)``: one `vf_lift_solve`, kept per (chart, direction,
    monomial, kind, order); a refused solve stores nothing.  The solve is
    called through its module-level name so a wrapper installed on it sees
    the call."""
    return vf_lift_solve(VectorField(chart0, {direction: _expr({m: GR_ONE})}),
                         kind, k)


def _vf_lift_composed(Z: VectorField, kind: str, k: int) -> VectorField:
    """The determined `kind`-lift ("v" or "c") of `Z`, summed as ``sum c *
    (m d/dx_j)^lift`` over the terms ``c*m`` of its components from
    :func:`_vf_term_lift`.  `Z` is checked as a whole first, as the public
    solve checks it, so every refusal keeps its text.  The sum has no
    certificate of its own; only consumers that certify their own results
    call this (see the module docstring)."""
    chart0 = _vf_input(Z, kind, k)[0]
    lifts = [(c, _vf_term_lift(chart0, j, m, kind, k))
             for j, comp in Z.components.items() for m, c in comp._terms.items()]
    if len(lifts) == 1 and lifts[0][0] == GR_ONE:
        return lifts[0][1]
    acc: dict[CoordId, dict] = {}
    for c, lifted in lifts:
        for a, comp in lifted.components.items():
            terms = comp._terms.items()
            if c != GR_ONE:
                terms = [(m, x * c) for m, x in terms]
            _accumulate(acc.setdefault(a, {}), terms)
    return VectorField(chart0.extend(k), {a: _expr(acc[a]) for a in
                                          sorted(acc, key=CoordId.sort_key)})


# -- test vector fields and their complete lifts ------------------------------

def _field_system(fields: tuple[VectorField, ...], chart0: ChartSpec, k: int,
                  solved: int | None = None) -> _System:
    """Test vector fields against the components of their complete lifts,
    read from the one-term table, which keeps each lift."""
    position = {c: p for p, c in enumerate(chart0.extend(k).coordinates())}
    rows = [{position[c]: comp for c, comp in
             _vf_lift_composed(X, "c", k).components.items()}
            for X in fields]
    return _System(fields, rows, len(position), solved)


def _holdout(chart0: ChartSpec, k: int) -> _System:
    """The holdout test fields with their complete lifts, only checked."""
    return _field_system(vector_test_holdout(chart0), chart0, k, 0)


def _pairing(chart0: ChartSpec, k: int) -> _System:
    """The rows of the one-form, (1,1)-tensor and (0,2)-tensor lifts.  When
    the fields of coefficient degree <= 1 are at least as many as the
    unknowns (k <= 2m), they are all solved.  Otherwise the square ladder
    (:func:`_vector_ladder`) leads and is the only part solved, and every
    other field of coefficient degree <= 2 is checked, so the fields of
    degree <= 1 are always among the rows."""
    fields = _vector_stage(chart0, 0) + _vector_stage(chart0, 1)
    if len(fields) >= len(chart0.extend(k).coordinates()):
        return _field_system(fields, chart0, k)
    ladder = _vector_ladder(chart0, k)
    fields = ladder + tuple(X for X in fields + _vector_stage(chart0, 2)
                            if X not in ladder)
    return _field_system(fields, chart0, k, len(ladder))


# -- one-forms ----------------------------------------------------------------

def _of_input(w: OneForm, kind: str, k: int, r: int | None, s: int | None
              ) -> tuple:
    """The one-form lift's one input check, made by its solver and its
    residuals.  Returns the base chart and the split."""
    chart0 = _require_base_chart(w, "determined lift input")
    r, s = _check_kind(kind, k, r, s)
    if kind != "v" and chart0.has_time and not w.component(TIME).is_zero():
        raise LiftError(
            f"one-form {kind}-lift requires a zero time component, got "
            f"{format_expr(w.component(TIME))}")
    return chart0, r, s


def of_lift_solve_certified(w: OneForm, kind: str, k: int, *,
                            r: int | None = None, s: int | None = None
                            ) -> tuple[OneForm, SolveCertificate]:
    """Determined lift of a one-form, with its solve certificate.

    Complete and complete-vertical solves require a zero time component:
    with a dt term the defining equations contradict each other (pairing
    against the lifted time direction forces the dt coefficient to both
    survive and vanish)."""
    chart0, r, s = _of_input(w, kind, k, r, s)
    target = chart0.extend(k)
    coords = list(target.coordinates())
    what = f"one-form {kind}-lift"
    system = _system((_pairing, chart0, k))
    values = system.solve([_lift_scalar_expr(w.pair(X), kind, k, r, s)
                           for X in system.items],
                          [f"W_{c.name}" for c in coords], what)
    result = OneForm(target, {c: v for c, v in zip(coords, values)
                              if not v.is_zero()})
    residuals = _holdout_residuals(_holdout, chart0, result, w.pair,
                                   kind, k, r, s)
    _refuse_nonzero(what, residuals)
    return result, SolveCertificate("oneform", kind, k, r, s,
                                    len(system.items), len(residuals))


def of_lift_solve(w: OneForm, kind: str, k: int, *,
                  r: int | None = None, s: int | None = None) -> OneForm:
    return of_lift_solve_certified(w, kind, k, r=r, s=s)[0]


def of_defining_residuals(w: OneForm, lifted: OneForm, kind: str, k: int, *,
                          r: int | None = None, s: int | None = None
                          ) -> list[Expr]:
    """Residuals lifted(X^{c^k}) - (w X)^lift over the holdout vector
    fields, evaluated on their cached rows as the family check is."""
    chart0, r, s = _of_input(w, kind, k, r, s)
    return _holdout_residuals(_holdout, chart0, lifted, w.pair, kind, k, r, s)


# -- (1,1)-tensors -------------------------------------------------------------

def _row_solve(system: _System, coords: list[CoordId],
               sides: Sequence[Sequence[Expr]], letter: str, what: str
               ) -> dict[tuple[CoordId, CoordId], Expr]:
    """The nonzero entries ``{(a, b): value}`` of the rank-2 unknown X of
    ``P X^T = S`` on the pairing system P, one replay per row: row a, the
    p-th coordinate, solves P against ``S[j][p]``, test field j's side at
    a, its unknowns named ``<letter>_<a>__<b>``."""
    entries: dict = {}
    for p, a in enumerate(coords):
        row = system.solve([side[p] for side in sides],
                           [f"{letter}_{a.name}__{b.name}" for b in coords],
                           what)
        entries.update(((a, b), v) for b, v in zip(coords, row)
                       if not v.is_zero())
    return entries


def _t_input(T: EndoField | Bilinear, kind: str, k: int) -> ChartSpec:
    """The (0,2) lift's one input check, made by its solver and its
    residuals, and the first half of :func:`_t11_input`."""
    chart0 = _require_base_chart(T, "determined lift input")
    if kind not in ("v", "c"):
        raise LiftError(f"tensor lifts support kinds 'v' and 'c', got {kind!r}")
    if k < 1:
        raise LiftError("determined lifts need k >= 1")
    return chart0


def _t11_input(phi: EndoField, kind: str, k: int) -> ChartSpec:
    """The (1,1) lift's one input check, made by its solver and its
    residuals: for a c-lift of a `phi` with a time row, the vector check of
    each ``phi X`` in the solver's order, so both refuse with its text."""
    chart0 = _t_input(phi, kind, k)
    if kind == "c" and any(a == TIME for a, _ in phi.entries):
        for X in _system((_pairing, chart0, k)).items:
            _vf_input(phi.apply_vector(X), kind, k)
    return chart0


def t11_lift_solve_certified(phi: EndoField, kind: str, k: int
                             ) -> tuple[EndoField, SolveCertificate]:
    """Determined lift of a (1,1)-tensor field.

    Row-wise: the output component at coordinate a couples only the unknowns
    E[a, .], and every row has the one-form lift's coefficient rows, so the
    rows are right-hand sides replayed on one factorisation.  As for every
    determined lift, the certificate records the defining equations solved
    and the holdout checked; the covector half of the (1,1) law is the
    tensors suite's to check (clauses T2 and T4)."""
    chart0 = _t11_input(phi, kind, k)
    target = chart0.extend(k)
    coords = list(target.coordinates())
    what = f"(1,1)-tensor {kind}-lift"
    system = _system((_pairing, chart0, k))
    lifted = [_vf_lift_composed(phi.apply_vector(X), kind, k)
              for X in system.items]
    result = EndoField(target, _row_solve(
        system, coords, [[Y.component(a) for a in coords] for Y in lifted],
        "E", what))
    _refuse_nonzero(what, t11_defining_residuals(phi, result, kind, k))
    return result, SolveCertificate("endo", kind, k, None, None,
                                    len(system.items),
                                    len(_system((_holdout, chart0, k)).items))


def t11_lift_solve(phi: EndoField, kind: str, k: int) -> EndoField:
    return t11_lift_solve_certified(phi, kind, k)[0]


def t11_defining_residuals(phi: EndoField, lifted: EndoField, kind: str,
                           k: int) -> list[Expr]:
    """Component residuals of lifted(X^{c^k}) - (phi X)^lift over the
    holdout vector fields."""
    chart0 = _t11_input(phi, kind, k)
    diffs = [lifted.apply_vector(_vf_lift_composed(X, "c", k))
             - _vf_lift_composed(phi.apply_vector(X), kind, k)
             for X in _system((_holdout, chart0, k)).items]
    return [d.component(c) for d in diffs for c in lifted.chart.coordinates()]


# -- (0,2)-tensors -------------------------------------------------------------

def t02_lift_solve_certified(G: Bilinear, kind: str, k: int
                             ) -> tuple[Bilinear, SolveCertificate]:
    """Determined lift of a (0,2)-tensor field against ordered pairs of test
    fields (ordered, so antisymmetric parts are pinned too).

    With P the pairing rows (test fields against their complete lifts) and
    R[X, Y] the lifted G(X, Y), the pair equations read ``P B P^T = R``.
    They are solved in two rounds of replays on P's factorisation: one per
    test field Y for the column Y of ``C = B P^T`` (``P C = R``), then one per
    coordinate a for the row a of B (``P B^T = C^T``).  Each replay checks
    its own equations, every row of P, solved or only checked, so together
    the two rounds give ``P B P^T = P C = R`` exactly over all ordered pairs
    of P's fields, and no separate check of the pair equations is made."""
    chart0 = _t_input(G, kind, k)
    target = chart0.extend(k)
    coords = list(target.coordinates())
    what = f"(0,2)-tensor {kind}-lift"
    system = _system((_pairing, chart0, k))
    tests = system.items
    R = [[_lift_scalar_expr(G.evaluate(X, Y), kind, k, None, None)
          for X in tests] for Y in tests]
    C = [system.solve(column, [f"C_{a.name}__{j}" for a in coords], what)
         for j, column in enumerate(R)]
    result = Bilinear(target, _row_solve(system, coords, C, "B", what))
    residuals = t02_defining_residuals(G, result, kind, k)
    _refuse_nonzero(what, residuals)
    return result, SolveCertificate("bilinear", kind, k, None, None,
                                    len(tests) ** 2, len(residuals))


def t02_lift_solve(G: Bilinear, kind: str, k: int) -> Bilinear:
    return t02_lift_solve_certified(G, kind, k)[0]


def t02_defining_residuals(G: Bilinear, lifted: Bilinear, kind: str, k: int
                           ) -> list[Expr]:
    """Residuals lifted(X^{c^k}, Y^{c^k}) - (G(X,Y))^lift over ordered pairs
    (X, Y) drawn from the holdout vector fields paired with themselves and
    with the stage-0 basis fields, the pairing's fields of constant
    coefficients."""
    chart0 = _t_input(G, kind, k)
    holdout = [(X, _vf_lift_composed(X, "c", k))
               for X in _system((_holdout, chart0, k)).items]
    basis = [(X, _vf_lift_composed(X, "c", k))
             for X in _system((_pairing, chart0, k)).items
             if all(c.is_constant() for c in X.components.values())]
    pairs = [pair for X in holdout for Y in basis for pair in ((X, Y), (Y, X))]
    pairs += [(X, Y) for i, X in enumerate(holdout) for Y in holdout[i:]]
    return [lifted.evaluate(Xc, Yc)
            - _lift_scalar_expr(G.evaluate(X, Y), kind, k, None, None)
            for (X, Xc), (Y, Yc) in pairs]


# ---------------------------------------------------------------------------
# Lift routes
# ---------------------------------------------------------------------------

def _lift(obj, kind: str, k: int, *, r: int | None = None,
          s: int | None = None, conn: ConnectionCoeffs | None = None):
    """The defining lift of kind `kind` of a base field of any class.  Each
    route is called through its module-level name, not a table built at
    import, so a wrapper installed on that name (as the benchmark's layer
    trace installs one) sees the call."""
    if isinstance(obj, ScalarField):
        if kind == "v":
            return fn_vertical(obj, k)
        if kind == "c":
            return fn_complete(obj, k)
        if kind == "cv":
            return fn_complete_vertical(obj, r, s)
        if kind == "h":
            return fn_horizontal(obj, k)
    elif isinstance(obj, (VectorField, OneForm)):
        vector = isinstance(obj, VectorField)
        if kind == "h":
            return (vf_horizontal if vector else of_horizontal)(obj, conn)
        return (vf_lift_solve if vector else of_lift_solve)(obj, kind, k,
                                                            r=r, s=s)
    elif isinstance(obj, (EndoField, Bilinear)):
        endo = isinstance(obj, EndoField)
        return (t11_lift_solve if endo else t02_lift_solve)(obj, kind, k)
    raise LiftError(f"no {kind!r}-lift of a {type(obj).__name__}")


def _lift_closed(obj, kind: str, k: int, *, r: int | None = None,
                 s: int | None = None):
    """The closed-form lift of a base vector field or one-form."""
    vector = isinstance(obj, VectorField)
    if kind == "v":
        return (vf_vertical_closed if vector else of_vertical_closed)(obj, k)
    if kind == "c":
        return (vf_complete_closed if vector else of_complete_closed)(obj, k)
    if kind == "cv":
        return (vf_cv_closed if vector else of_cv_closed)(obj, r, s)
    raise LiftError(f"no closed-form {kind!r}-lift")


# ---------------------------------------------------------------------------
# Basis lift tables
# ---------------------------------------------------------------------------

def basis_lift_rows(m: int, k: int, has_time: bool = True,
                    conn: ConnectionCoeffs | None = None
                    ) -> list[tuple[str, str]]:
    """Closed-form lifts of every basis vector and differential, as
    deterministic (label, value) rows.  Horizontal rows appear on charts with
    a time line; they use the given connection (zero by default)."""
    if k < 1:
        raise LiftError("basis tables need k >= 1")
    chart0 = ChartSpec(m, 0, has_time)
    target = chart0.extend(k)
    if conn is None:
        conn = ConnectionCoeffs.zero(target)
    rows: list[tuple[str, str]] = []

    def vf_rows(coord: CoordId) -> None:
        name = coord.name
        basis = VectorField.basis(chart0, coord)
        rows.append((f"(d/d{name})^{{v^{k}}}",
                     vf_vertical_closed(basis, k)._compact()))
        rows.append((f"(d/d{name})^{{c^{k}}}",
                     vf_complete_closed(basis, k)._compact()))
        if has_time:
            rows.append((f"(d/d{name})^{{H^{k}}}",
                         vf_horizontal(basis, conn)._compact()))

    def of_rows(coord: CoordId) -> None:
        name = coord.name
        diff = OneForm.differential_of(chart0, coord)
        rows.append((f"(d{name})^{{v^{k}}}",
                     of_vertical_closed(diff, k)._compact()))
        rows.append((f"(d{name})^{{c^{k}}}",
                     of_complete_closed(diff, k)._compact()))
        if has_time and coord.kind != Kind.TIME:
            rows.append((f"(d{name})^{{H^{k}}}",
                         of_horizontal(diff, conn)._compact()))

    for coord in chart0.coordinates():
        vf_rows(coord)
        of_rows(coord)
    return rows
