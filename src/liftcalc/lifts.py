"""Lift operations between extension charts.

Three layers live here.

**Function lifts.**  The vertical lift of a function is the same polynomial
read on a higher-order chart.  The complete lift is the level-shift
derivation, applied stepwise: each step sends f to
``t*(df/dt) + sum over coords c of shift(c)*(df/dc)`` where ``shift`` raises
the level of a z/zb coordinate by one (the time term only exists on charts
with a time line).  The derivation is linear over the Gaussian rationals, so
the k-step lift of ``sum c*m`` is ``sum c*D^k(m)``, read from one bounded
table of coefficient-1 monomials keyed ``(m, k)``; a missing entry is derived
stepwise from the largest cached step of its monomial below k.  Mixed lifts
compose the two; the horizontal lift of a function is the complete lift minus
the time-unscaled step (:func:`gamma_gradient`) of the previous complete
lift, which vanishes identically for time-free functions.  The complete step
and the gradient share one derivation pass, which walks the polynomial's
terms once and differs only in the time term.

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
only on the chart, ``k``, the op and the test stage; the input enters only
through the right-hand sides.  So one engine serves all four ops: it factors
each system's coefficient rows once per key (fraction-free elimination,
:class:`liftcalc.symkernel.PolyLinearFactor`, kept in a bounded cache) and,
per input, computes the right-hand sides, replays the recorded elimination
on them and back-substitutes.  The one-form, (1,1) and (0,2) lifts share
one set of rows P (test fields against their complete lifts); the (0,2)
pair equations ``P B P^T = R``, i.e. ``(P (x) P) vec(B) = vec(R)``, are two
rounds of replays on P.  Every solution is then checked against every
equation of its system and, per input, against the defining equation on a
disjoint holdout family; any nonzero residual raises, so a returned lift
carries a machine-checked certificate.

**Lift routes.**  :func:`_lift` (defining) and :func:`_lift_closed` (closed
form) are the one map from a field's class and a lift kind to the
constructor that builds it; the command line and the identity suites route
every lift they do not name directly through them.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .charts import ChartSpec
from .fields import (
    Bilinear,
    ConnectionCoeffs,
    EndoField,
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
    UnderdeterminedError,
    _accumulate,
    _expr,
    _level_up,
    binomial,
    format_expr,
    mono_mul,
)


class LiftError(Exception):
    """A lift operation was asked for outside its domain, or a determined
    lift could not be certified."""


VF_KINDS = ("v", "c", "cv")

# Cache bounds.  One `check all --m 1 --k 2` run (seeds 3 and 11) leaves 92
# per-monomial entries in `_complete_expr`, so its bound holds far larger
# charts and orders without evicting.
_COMPLETE_CACHE_SIZE = 8192
_SYSTEM_CACHE_SIZE = 256
_VF_SOLVE_CACHE_SIZE = 1024
# Test families depend only on their arguments (chart, order or stage), so
# each is built once per argument tuple and shared as a tuple.
_FAMILY_CACHE_SIZE = 128


# ---------------------------------------------------------------------------
# Function lifts
# ---------------------------------------------------------------------------

def _derive(expr: Expr, time_scaled: bool) -> Expr:
    """The level-shift derivation: ``sum over coords c of shift(c)*(df/dc)``
    plus the time term, ``t*(df/dt)`` when `time_scaled` (a complete step)
    and ``df/dt`` otherwise (the gradient).

    One walk over the term map puts each derivative term in its
    coordinate's bucket; the buckets are then summed in sorted-coordinate
    order, which leaves the same term map, insertion order included, as
    adding ``shift(c) * f.diff(c)`` one coordinate at a time."""
    buckets: dict = {}
    for m, c in expr._terms.items():
        for pos, (code, exp) in enumerate(m):
            entry = buckets.get(code)
            if entry is None:
                if code == TIME._code:
                    shift = None if time_scaled else ()
                else:
                    shift = ((_level_up(code), 1),)
                entry = buckets[code] = (shift, [])
            shift, terms = entry
            coeff = c if exp == 1 else c * exp
            if shift is None:
                # t * d(t^e)/dt == e * t^e
                terms.append((m, coeff))
            elif exp == 1:
                terms.append((mono_mul(m[:pos] + m[pos + 1:], shift), coeff))
            else:
                terms.append((mono_mul(m[:pos] + ((code, exp - 1),) + m[pos + 1:],
                                       shift), coeff))
    acc: dict = {}
    for code in sorted(buckets):
        _accumulate(acc, buckets[code][1])
    return _expr(acc)


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _CompleteTable:
    """The complete lift ``_complete_expr(expr, steps)`` as ``sum c *
    D^steps(m)`` over the terms ``c*m`` of `expr`, with each ``D^steps(m)``
    of a coefficient-1 monomial held in one table keyed ``(m, steps)``.
    The least recently used entry goes once the table holds more than
    `_COMPLETE_CACHE_SIZE`.  ``cache_info()`` and ``cache_clear()`` read and
    empty it like an ``lru_cache``'s; a hit or miss is one monomial's lookup.

    A missing entry is derived in a loop, never by recursion on `steps`,
    from the largest cached step of its monomial below `steps`; every step
    derived on the way is stored too."""

    def __init__(self):
        self._table: OrderedDict = OrderedDict()
        self.hits = self.misses = 0

    def __call__(self, expr: Expr, steps: int) -> Expr:
        if steps <= 0:
            return expr
        terms = expr._terms
        if len(terms) == 1:
            ((m, c),) = terms.items()
            lifted = self._lift(m, steps)
            return lifted if c == GR_ONE else lifted.scale(c)
        acc: dict = {}
        for m, c in terms.items():
            lifted = self._lift(m, steps)._terms.items()
            if c != GR_ONE:
                lifted = [(lm, lc * c) for lm, lc in lifted]
            _accumulate(acc, lifted)
        return _expr(acc)

    def _lift(self, m: tuple, steps: int) -> Expr:
        table = self._table
        out = table.get((m, steps))
        if out is not None:
            self.hits += 1
            table.move_to_end((m, steps))
            return out
        self.misses += 1
        start = steps - 1
        while start and (m, start) not in table:
            start -= 1
        out = table[(m, start)] if start else _expr({m: GR_ONE})
        for step in range(start + 1, steps + 1):
            out = table[(m, step)] = _derive(out, True)
            while len(table) > _COMPLETE_CACHE_SIZE:
                table.popitem(last=False)
        return out

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, _COMPLETE_CACHE_SIZE,
                         len(self._table))

    def cache_clear(self) -> None:
        self._table.clear()
        self.hits = self.misses = 0


_complete_expr = _CompleteTable()


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
    _complete_expr.cache_clear()
    _VF_SOLVE_CACHE.clear()
    _SYSTEM_CACHE.clear()


def fn_vertical(f: ScalarField, steps: int = 1) -> ScalarField:
    """Vertical lift: the same polynomial on a chart `steps` orders higher."""
    if steps < 0:
        raise LiftError("vertical lift takes a non-negative step count")
    return ScalarField(f.chart.extend(steps), f.value)


def fn_complete_step(f: ScalarField) -> ScalarField:
    """One complete-lift step: chart order j -> j+1."""
    return ScalarField(f.chart.extend(1), _complete_expr(f.value, 1))


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

def _require_base_chart(obj, what: str) -> ChartSpec:
    if obj.chart.k != 0:
        raise LiftError(f"{what} must live on an order-0 chart")
    return obj.chart


def _constant_time_component(comp: Expr, what: str) -> Expr:
    if not comp.is_constant():
        raise LiftError(
            f"{what} requires a constant time component, got {format_expr(comp)}")
    return comp


def vf_vertical_closed(Z: VectorField, k: int) -> VectorField:
    """Closed-form vertical lift: level-0 components move to level k (the
    time component, if any, stays on the time direction)."""
    chart0 = _require_base_chart(Z, "vertical lift input")
    if k < 0:
        raise LiftError("lift order must be non-negative")
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
    _require_base_chart(Z, "complete lift input")
    if k < 0:
        raise LiftError("lift order must be non-negative")
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
    chart0 = _require_base_chart(w, "vertical lift input")
    if k < 0:
        raise LiftError("lift order must be non-negative")
    return OneForm(chart0.extend(k), dict(w.components))


def of_complete_closed(w: OneForm, k: int) -> OneForm:
    """Closed-form complete lift of a one-form: the level-r slot of index i
    carries (w-component)^{c^{k-r} v^r}, with no binomial weight.  The time
    component must be constant and stays on dt."""
    _require_base_chart(w, "complete lift input")
    if k < 0:
        raise LiftError("lift order must be non-negative")
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


@lru_cache(maxsize=_FAMILY_CACHE_SIZE)
def function_family(chart0: ChartSpec, include_time: bool, k: int
                    ) -> tuple[Expr, ...]:
    """Functions whose defining equations pin a lifted vector field: the
    coordinates, all their squares and pairwise products, and pure powers up
    to degree k+1 (plus t itself when requested).  A coordinate's pure powers
    x, x^2, ..., x^{k+1} pin the whole level ladder above x; the mixed
    quadratics tie the ladders together."""
    coords0 = _base_coords(chart0)
    fam: list[Expr] = []
    if include_time and chart0.has_time:
        fam.append(Expr.atom(TIME))
    fam.extend(Expr.atom(c) for c in coords0)
    for a, b in combinations_with_replacement(coords0, 2):
        fam.append(Expr.atom(a) * Expr.atom(b))
    for d in range(3, max(3, k + 1) + 1):
        fam.extend(Expr.atom(c) ** d for c in coords0)
    return tuple(fam)


@lru_cache(maxsize=_FAMILY_CACHE_SIZE)
def function_holdout(chart0: ChartSpec) -> tuple[Expr, ...]:
    """Degree-3 mixed products — disjoint from the solving family, whose
    degree-3 members are pure cubes."""
    coords0 = _base_coords(chart0)
    out: list[Expr] = []
    for combo in combinations_with_replacement(coords0, 3):
        if len(set(combo)) > 1:
            prod = Expr.one()
            for c in combo:
                prod = prod * Expr.atom(c)
            out.append(prod)
    return tuple(out)


@lru_cache(maxsize=_FAMILY_CACHE_SIZE)
def _vector_stage(chart0: ChartSpec, stage: int) -> tuple[VectorField, ...]:
    """Test vector fields with coefficient degree == stage (stage 0 also
    contributes the time direction on product charts)."""
    coords0 = _base_coords(chart0)
    out: list[VectorField] = []
    if stage == 0:
        if chart0.has_time:
            out.append(VectorField.basis(chart0, TIME))
        out.extend(VectorField.basis(chart0, c) for c in coords0)
        return tuple(out)
    for coeffs in combinations_with_replacement(coords0, stage):
        coeff = Expr.one()
        for c in coeffs:
            coeff = coeff * Expr.atom(c)
        for direction in coords0:
            out.append(VectorField(chart0, {direction: coeff}))
    return tuple(out)


@lru_cache(maxsize=_FAMILY_CACHE_SIZE)
def vector_test_family(chart0: ChartSpec, max_stage: int
                       ) -> tuple[VectorField, ...]:
    return tuple(X for stage in range(max_stage + 1)
                 for X in _vector_stage(chart0, stage))


@lru_cache(maxsize=_FAMILY_CACHE_SIZE)
def vector_test_holdout(chart0: ChartSpec) -> tuple[VectorField, ...]:
    """Cube-coefficient fields; coefficient degrees used for solving stop at 2."""
    coords0 = _base_coords(chart0)
    out: list[VectorField] = []
    for c in coords0:
        coeff = Expr.atom(c) ** 3
        for direction in coords0:
            out.append(VectorField(chart0, {direction: coeff}))
    return tuple(out)


# ---------------------------------------------------------------------------
# Determined lifts: the defining-system engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveCertificate:
    """Record of a certified determined-lift solve.

    ``notes`` carries post-verification observations that are reported
    rather than enforced (currently: the covector-pairing law checked after
    every (1,1)-tensor solve)."""

    op: str
    kind: str
    k: int
    r: int | None
    s: int | None
    family_size: int
    holdout_size: int
    residuals_zero: bool
    notes: tuple[str, ...] = ()


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


def _bounded(cache: OrderedDict, bound: int, key, make):
    """Least-recently-used lookup: ``make()`` fills a miss, and the oldest
    entry goes once the cache holds more than `bound`."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
        if len(cache) > bound:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


class _System:
    """The test items of one defining system, each item's coefficient row
    ``{position: Expr}``, and the factorisation of the rows, built on first
    use (a vector lift's whole family is only checked, never factored)."""

    __slots__ = ("items", "rows", "width", "_factor")

    def __init__(self, items: Sequence, rows: list[dict[int, Expr]],
                 width: int):
        self.items, self.rows, self.width = items, rows, width
        self._factor = None

    @property
    def factor(self) -> PolyLinearFactor:
        if self._factor is None:
            self._factor = PolyLinearFactor(self.rows, self.width)
        return self._factor


# Systems by key.  A key is a builder followed by its arguments (chart,
# order, unknown layout, test stage); the rows depend on nothing else, so
# every input with the same key shares them and their factorisation.
_SYSTEM_CACHE: OrderedDict = OrderedDict()


def _system(key: tuple) -> _System:
    return _bounded(_SYSTEM_CACHE, _SYSTEM_CACHE_SIZE, key,
                    lambda: key[0](*key[1:]))


# op -> (name in messages, what its free positions are called).  The solver's
# own errors name a position by a plain label instead: U_<coord> (vector),
# W_<coord> (one-form), E_<a>__<b> ((1,1)), or for (0,2) C_<a>__<test> in
# the first round and B_<a>__<b> in the second.
_OPS = {"vector": ("vector", "components"),
        "oneform": ("one-form", "components"),
        "endo": ("(1,1)-tensor", "entries"),
        "bilinear": ("(0,2)-tensor", "entries")}


class _Engine:
    """The defining equations of one determined lift of one input.

    Equation n of a system reads ``sum(row_n[p] * x_p) + rest_n == 0``.  The
    rows come from the system cache; the input enters only through the
    rests, on which the cached factorisation is replayed.  The engine checks
    every solution against every equation of its system, checks the holdout
    residuals, and owns the error texts and the certificate."""

    def __init__(self, op: str, kind: str, k: int, labels: Sequence[str],
                 r: int | None = None, s: int | None = None):
        what, self.noun = _OPS[op]
        self.op, self.kind, self.k, self.r, self.s = op, kind, k, r, s
        self.what = f"{what} {kind}-lift"
        self.labels = labels

    def replay(self, system: _System, rests: list[Expr],
               names: Sequence[str]) -> list[Expr]:
        """Replay the factorisation; the caller handles underdetermination."""
        try:
            return system.factor.solve(rests, names)
        except UnderdeterminedError:
            raise
        except LinearSolveError as exc:
            raise LiftError(f"{self.what} solve: {exc}") from exc

    def solve(self, system: _System, rests: list[Expr],
              names: Sequence[str]) -> list[Expr]:
        """Replay and self-check."""
        values = self.replay(system, rests, names)
        self.check(system, rests, values)
        return values

    def check(self, system: _System, rests: list[Expr],
              values: Sequence[Expr]) -> None:
        for n, (row, rest) in enumerate(zip(system.rows, rests)):
            total = rest
            for p, c in row.items():
                total = total + c * values[p]
            if not total.is_zero():
                raise LiftError(
                    f"{self.what} solve: solution fails its own equation {n}")

    def solve_stages(self, chart0: ChartSpec, k: int, rests,
                     names: Sequence[Sequence[str]]
                     ) -> tuple[_System, list[list[Expr]]]:
        """Solve on the pairing rows of test stage 1 (coefficient degree
        <= 1), or of stage 2 (<= 2) when stage 1 leaves an unknown free.
        ``rests(items)`` gives one list of rests per right-hand side; the
        first right-hand side decides the stage, and the others are then
        replayed on the same factorisation, whose free positions the first
        replay has shown to be none."""
        for stage in (1, 2):
            system = _system((_pairing, chart0, k, stage))
            columns = rests(system.items)
            try:
                values = [self.solve(system, columns[0], names[0])]
                break
            except UnderdeterminedError as exc:
                if stage == 2:
                    raise self._underdetermined(system) from exc
        values += [self.solve(system, column, column_names)
                   for column, column_names in zip(columns[1:], names[1:])]
        return system, values

    def _free(self, system: _System) -> Sequence[int]:
        """The label positions left free by the system's factorisation."""
        return system.factor.free

    def _underdetermined(self, system: _System) -> LiftError:
        free = ", ".join(self.labels[p] for p in self._free(system))
        return LiftError(
            f"{self.what} solve underdetermined; free {self.noun}: {free}")

    def holdout(self, residuals: Iterable[Expr]) -> None:
        bad = next((res for res in residuals if not res.is_zero()), None)
        if bad is not None:
            raise LiftError(
                f"{self.what} holdout residual nonzero: {format_expr(bad)}")

    def certificate(self, family_size: int, holdout_size: int,
                    notes: tuple[str, ...] = ()) -> SolveCertificate:
        return SolveCertificate(self.op, self.kind, self.k, self.r, self.s,
                                family_size, holdout_size, True, notes)


# -- vector fields -----------------------------------------------------------

def _vf_layout(chart0: ChartSpec, k: int, include_time: bool) -> list[CoordId]:
    """The unknown components: the time component is one only for
    vertical lifts (other kinds pin it to the input's constant)."""
    return [c for c in chart0.extend(k).coordinates()
            if include_time or c != TIME]


def _vf_system(functions: Sequence[Expr], coords: Sequence[CoordId],
               k: int) -> _System:
    """Rows of ``Z^lift(f^{c^k}) = sum over c of Z^c * d(f^{c^k})/dc``.  No
    function carries t when the time component is pinned, so every
    coordinate met is one of `coords`."""
    position = {c: p for p, c in enumerate(coords)}
    rows = []
    for f in functions:
        fck = _complete_expr(f, k)
        rows.append({position[c]: fck.diff(c) for c in fck.coords()})
    return _System(functions, rows, len(coords))


def _vf_ladder(ladder: tuple[CoordId, ...], k: int) -> _System:
    """A level ladder (or the time line) against the pure powers of its
    base coordinate, which reach no other coordinate."""
    x = Expr.atom(ladder[0])
    return _vf_system([x ** d for d in range(1, len(ladder) + 1)], ladder, k)


def _vf_family(chart0: ChartSpec, k: int, include_time: bool) -> _System:
    return _vf_system(function_family(chart0, include_time, k),
                      _vf_layout(chart0, k, include_time), k)


def vf_lift_solve_certified(Z: VectorField, kind: str, k: int, *,
                            r: int | None = None, s: int | None = None
                            ) -> tuple[VectorField, SolveCertificate]:
    """Determined lift of a vector field, with its solve certificate.

    The defining equations decouple into one small square system per level
    ladder (the pure powers of a base coordinate only ever reach that
    coordinate's higher levels), so each ladder is solved separately and
    the whole family is then checked against the ladder solution.  Every
    ladder function is a family member, so that check covers every ladder
    equation too.  A ladder system is square and nonsingular and its
    equations are a subset of the family's, so when a ladder has no
    solution neither has the family, and the ladder's error is raised."""
    chart0 = _require_base_chart(Z, "determined lift input")
    r, s = _check_kind(kind, k, r, s)
    pinned: dict[CoordId, Expr] = {}
    include_time = False
    if chart0.has_time:
        if kind == "v":
            include_time = True
        else:
            tc = Z.component(TIME)
            if not tc.is_constant():
                raise LiftError(
                    "complete and complete-vertical lifts require a constant "
                    f"time component, got {format_expr(tc)}")
            pinned[TIME] = tc
    coords = _vf_layout(chart0, k, include_time)
    engine = _Engine("vector", kind, k, [c.name for c in coords], r, s)
    names = [f"U_{c.name}" for c in coords]
    position = {c: p for p, c in enumerate(coords)}
    memo: dict[Expr, Expr] = {}

    def rests(functions: Sequence[Expr]) -> list[Expr]:
        out = []
        for f in functions:
            rest = memo.get(f)
            if rest is None:
                rest = memo[f] = -_lift_scalar_expr(Z.apply(f), kind, k, r, s)
            out.append(rest)
        return out

    ladders = [(TIME,)] if include_time else []
    ladders += [tuple(CoordId(base.kind, level, base.index)
                      for level in range(k + 1))
                for base in _base_coords(chart0)]
    values: list = [None] * len(coords)
    for ladder in ladders:
        system = _system((_vf_ladder, ladder, k))
        solved = engine.replay(system, rests(system.items),
                               [names[position[c]] for c in ladder])
        for c, value in zip(ladder, solved):
            values[position[c]] = value
    family = _system((_vf_family, chart0, k, include_time))
    engine.check(family, rests(family.items), values)

    comps = dict(pinned)
    for coord, value in zip(coords, values):
        if not value.is_zero():
            comps[coord] = value
    result = VectorField(chart0.extend(k), comps)
    holdout = function_holdout(chart0)
    engine.holdout(vf_defining_residuals(Z, result, kind, k, r=r, s=s,
                                         functions=holdout))
    return result, engine.certificate(len(family.items), len(holdout))


def vf_lift_solve(Z: VectorField, kind: str, k: int, *,
                  r: int | None = None, s: int | None = None) -> VectorField:
    return vf_lift_solve_certified(Z, kind, k, r=r, s=s)[0]


def vf_defining_residuals(Z: VectorField, lifted: VectorField, kind: str,
                          k: int, *, r: int | None = None, s: int | None = None,
                          functions: Sequence[Expr] | None = None) -> list[Expr]:
    """Residuals lifted(f^{c^k}) - (Z f)^lift over the given functions
    (default: the holdout family)."""
    chart0 = Z.chart
    if functions is None:
        functions = function_holdout(chart0)
    out = []
    for f in functions:
        fck = _complete_expr(f, k)
        rhs = _lift_scalar_expr(Z.apply(f), kind, k, r, s)
        out.append(lifted.apply(fck) - rhs)
    return out


# -- cached complete lifts of test vector fields ------------------------------

_VF_SOLVE_CACHE: OrderedDict = OrderedDict()


def _field_key(Z: VectorField) -> tuple:
    return tuple(sorted(Z.components.items(), key=lambda kv: kv[0].sort_key()))


def _vf_solve_cached(Z: VectorField, kind: str, k: int) -> VectorField:
    return _bounded(_VF_SOLVE_CACHE, _VF_SOLVE_CACHE_SIZE,
                    (Z.chart, kind, k, _field_key(Z)),
                    lambda: vf_lift_solve(Z, kind, k))


def complete_vf_cached(Z: VectorField, k: int) -> VectorField:
    """Memoized determined complete lift; the one-form and tensor solves pair
    their ansatz against these."""
    return _vf_solve_cached(Z, "c", k)


# -- one-forms ----------------------------------------------------------------

def _pairing(chart0: ChartSpec, k: int, stage: int) -> _System:
    """Test vector fields against the components of their complete lifts:
    the rows of the one-form, (1,1)-tensor and (0,2)-tensor lifts."""
    tests = vector_test_family(chart0, stage)
    position = {c: p for p, c in enumerate(chart0.extend(k).coordinates())}
    rows = [{position[c]: comp
             for c, comp in complete_vf_cached(X, k).components.items()}
            for X in tests]
    return _System(tests, rows, len(position))


def of_lift_solve_certified(w: OneForm, kind: str, k: int, *,
                            r: int | None = None, s: int | None = None
                            ) -> tuple[OneForm, SolveCertificate]:
    """Determined lift of a one-form, with its solve certificate.

    Complete and complete-vertical solves require a zero time component:
    with a dt term the defining equations contradict each other (pairing
    against the lifted time direction forces the dt coefficient to both
    survive and vanish)."""
    chart0 = _require_base_chart(w, "determined lift input")
    r, s = _check_kind(kind, k, r, s)
    if kind != "v" and chart0.has_time and not w.component(TIME).is_zero():
        raise LiftError(
            f"one-form {kind}-lift requires a zero time component, got "
            f"{format_expr(w.component(TIME))}")
    target = chart0.extend(k)
    coords = list(target.coordinates())
    engine = _Engine("oneform", kind, k, [c.name for c in coords], r, s)
    system, (values,) = engine.solve_stages(
        chart0, k,
        lambda tests: [[-_lift_scalar_expr(w.pair(X), kind, k, r, s)
                        for X in tests]],
        [[f"W_{c.name}" for c in coords]])
    result = OneForm(target, {c: v for c, v in zip(coords, values)
                              if not v.is_zero()})
    holdout = vector_test_holdout(chart0)
    engine.holdout(of_defining_residuals(w, result, kind, k, r=r, s=s,
                                         vectors=holdout))
    return result, engine.certificate(len(system.items), len(holdout))


def of_lift_solve(w: OneForm, kind: str, k: int, *,
                  r: int | None = None, s: int | None = None) -> OneForm:
    return of_lift_solve_certified(w, kind, k, r=r, s=s)[0]


def of_defining_residuals(w: OneForm, lifted: OneForm, kind: str, k: int, *,
                          r: int | None = None, s: int | None = None,
                          vectors: Sequence[VectorField] | None = None
                          ) -> list[Expr]:
    """Residuals lifted(X^{c^k}) - (w X)^lift over the given base vector
    fields (default: the holdout family)."""
    chart0 = w.chart
    if vectors is None:
        vectors = vector_test_holdout(chart0)
    out = []
    for X in vectors:
        Xc = complete_vf_cached(X, k)
        rhs = _lift_scalar_expr(w.pair(X), kind, k, r, s)
        out.append(lifted.pair(Xc) - rhs)
    return out


# -- (1,1)-tensors -------------------------------------------------------------

def _t_kind(kind: str, k: int) -> None:
    if kind not in ("v", "c"):
        raise LiftError(f"tensor lifts support kinds 'v' and 'c', got {kind!r}")
    if k < 1:
        raise LiftError("determined lifts need k >= 1")


def t11_lift_solve_certified(phi: EndoField, kind: str, k: int
                             ) -> tuple[EndoField, SolveCertificate]:
    """Determined lift of a (1,1)-tensor field.

    Row-wise: the output component at coordinate a couples only the unknowns
    E[a, .], and every row has the one-form lift's coefficient rows, so the
    rows are right-hand sides replayed on one factorisation."""
    chart0 = _require_base_chart(phi, "determined lift input")
    _t_kind(kind, k)
    target = chart0.extend(k)
    coords = list(target.coordinates())
    labels = [c.name for c in coords]
    engine = _Engine("endo", kind, k, labels)

    def rests(tests: Sequence[VectorField]) -> list[list[Expr]]:
        lifted = [_lift_vf_definitional(phi.apply_vector(X), kind, k)
                  for X in tests]
        return [[-Y.component(a) for Y in lifted] for a in coords]

    system, rows = engine.solve_stages(
        chart0, k, rests,
        [[f"E_{a.name}__{b}" for b in labels] for a in coords])
    result = EndoField(target, {(a, b): v
                                for a, row in zip(coords, rows)
                                for b, v in zip(coords, row) if not v.is_zero()})
    holdout = vector_test_holdout(chart0)
    engine.holdout(t11_defining_residuals(phi, result, kind, k, vectors=holdout))
    notes = t11_form_clause_notes(phi, result, kind, k)
    return result, engine.certificate(len(system.items), len(holdout), notes)


def t11_form_clause_notes(phi: EndoField, lifted: EndoField, kind: str,
                          k: int) -> tuple[str, ...]:
    """Post-verify the covector half of the tensor-lift law: composing each
    lifted basis covector with the lifted tensor should reproduce the lift
    of the composition.  A nonzero residual is reported (never raised): for
    vertical lifts the pairing annihilates every level-0 covector, so this
    half of the law cannot hold whenever the base composition is nonzero."""
    chart0 = phi.chart
    for coord in _base_coords(chart0):
        eta = OneForm(chart0, {coord: Expr.one()})
        composed = phi.apply_form(eta)
        lifted_eta = of_lift_solve(eta, kind, k)
        expected = of_lift_solve(composed, kind, k)
        if lifted.apply_form(lifted_eta) != expected:
            return (
                f"covector pairing fails at d{coord.name}: the {kind}-lifted "
                f"covector composed with the lifted tensor differs from the "
                f"lifted composition",)
    return ()


def t11_lift_solve(phi: EndoField, kind: str, k: int) -> EndoField:
    return t11_lift_solve_certified(phi, kind, k)[0]


def t11_defining_residuals(phi: EndoField, lifted: EndoField, kind: str,
                           k: int, *,
                           vectors: Sequence[VectorField] | None = None
                           ) -> list[Expr]:
    """Component residuals of lifted(X^{c^k}) - (phi X)^lift over the given
    base vector fields (default: the holdout family)."""
    chart0 = phi.chart
    if vectors is None:
        vectors = vector_test_holdout(chart0)
    out: list[Expr] = []
    target = lifted.chart
    for X in vectors:
        Xc = complete_vf_cached(X, k)
        rhs = _lift_vf_definitional(phi.apply_vector(X), kind, k)
        diff = lifted.apply_vector(Xc) - rhs
        for coord in target.coordinates():
            out.append(diff.component(coord))
    return out


def _lift_vf_definitional(Z: VectorField, kind: str, k: int) -> VectorField:
    """Memoized determined lift of a vector field; tensor solves use these
    as right-hand sides so every ingredient stays definitional."""
    return _vf_solve_cached(Z, kind, k)


# -- (0,2)-tensors -------------------------------------------------------------

class _PairEngine(_Engine):
    """The (0,2)-tensor engine.  Its unknowns are pairs of positions of the
    pairing rows, so a pair is free when either of its positions is."""

    def _free(self, system: _System) -> list[int]:
        free, n = set(system.factor.free), system.width
        return [p for p in range(n * n) if p // n in free or p % n in free]


def t02_lift_solve_certified(G: Bilinear, kind: str, k: int
                             ) -> tuple[Bilinear, SolveCertificate]:
    """Determined lift of a (0,2)-tensor field against ordered pairs of test
    fields (ordered, so antisymmetric parts are pinned too).

    With P the pairing rows (test fields against their complete lifts) and
    R[X, Y] the lifted G(X, Y), the pair equations read ``P B P^T = R``.
    They are solved in two rounds of replays on P's factorisation: one per
    test field Y for the column Y of ``C = B P^T`` (``P C = R``), then one per
    coordinate a for the row a of B (``P B^T = C^T``).  Each replay checks
    its own equations, and together the two rounds give ``P B P^T = P C = R``
    exactly, so no separate check of the pair equations is made."""
    chart0 = _require_base_chart(G, "determined lift input")
    _t_kind(kind, k)
    target = chart0.extend(k)
    coords = list(target.coordinates())
    labels = [c.name for c in coords]
    engine = _PairEngine("bilinear", kind, k,
                         [f"{a}__{b}" for a in labels for b in labels])
    n_tests = len(vector_test_family(chart0, 2))
    system, C = engine.solve_stages(
        chart0, k,
        lambda tests: [[-_lift_scalar_expr(G.evaluate(X, Y), kind, k, None, None)
                        for X in tests] for Y in tests],
        [[f"C_{a}__{j}" for a in labels] for j in range(n_tests)])
    rows = [engine.solve(system, [-col[p] for col in C],
                         [f"B_{a}__{b}" for b in labels])
            for p, a in enumerate(labels)]
    result = Bilinear(target, {(a, b): v
                               for a, row in zip(coords, rows)
                               for b, v in zip(coords, row) if not v.is_zero()})
    holdout = vector_test_holdout(chart0)
    engine.holdout(t02_defining_residuals(G, result, kind, k, vectors=holdout))
    return result, engine.certificate(len(system.items) ** 2, len(holdout))


def t02_lift_solve(G: Bilinear, kind: str, k: int) -> Bilinear:
    return t02_lift_solve_certified(G, kind, k)[0]


def t02_defining_residuals(G: Bilinear, lifted: Bilinear, kind: str, k: int, *,
                           vectors: Sequence[VectorField] | None = None
                           ) -> list[Expr]:
    """Residuals lifted(X^{c^k}, Y^{c^k}) - (G(X,Y))^lift over ordered pairs
    (X, Y) drawn from the given fields paired with themselves and with the
    stage-0 basis fields (default fields: the holdout family)."""
    chart0 = G.chart
    if vectors is None:
        vectors = vector_test_holdout(chart0)
    basis = _vector_stage(chart0, 0)
    pairs = [pair for X in vectors for Y in basis for pair in ((X, Y), (Y, X))]
    pairs += [(X, Y) for i, X in enumerate(vectors) for Y in vectors[i:]]
    return [lifted.evaluate(complete_vf_cached(X, k), complete_vf_cached(Y, k))
            - _lift_scalar_expr(G.evaluate(X, Y), kind, k, None, None)
            for X, Y in pairs]


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

    if has_time:
        vf_rows(TIME)
        of_rows(TIME)
    for i in range(1, m + 1):
        vf_rows(CoordId(Kind.HOLO, 0, i))
        of_rows(CoordId(Kind.HOLO, 0, i))
    for i in range(1, m + 1):
        vf_rows(CoordId(Kind.ANTI, 0, i))
        of_rows(CoordId(Kind.ANTI, 0, i))
    return rows
