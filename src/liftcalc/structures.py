"""Complex structures, hermitian metrics, and their lifted compatibility.

An order-k extension chart of a complex manifold carries the diagonal
complex structure (multiply holomorphic directions by i, antiholomorphic
by -i) and its cobasis twin acting on differentials.  This module builds
both, lifts the order-0 structure through the determined (1,1)-solver, and
packages hermitian metrics with their fundamental two-forms so compatibility
of the lifted data can be checked mechanically:

* ``hermitian_check(G, J)``: does G(J., J.) equal G entrywise?
* ``kaehler_form(G, J)``: the two-form (X, Y) -> G(X, J Y), an
  antisymmetric ``Bilinear``; refused when G(., J.) is not antisymmetric.
* ``kaehler_closed(phi)``: whether the two-form's differential vanishes,
  summed from its entries into each increasing coordinate triple.

Every product here is one call into the rank-2 algebra of ``fields``
(``_contract``, ``_matmul`` or ``Bilinear.pullback_endo``).  Nothing here
assumes the checks succeed; every predicate is computed from the exact
entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import ChartSpec
from .fields import Bilinear, EndoField, FieldError, OneForm, _contract, _matmul
from .lifts import t11_lift_solve
from .symkernel import CoordId, Expr, Kind


class StructureError(Exception):
    """A structure constructor was used outside its domain."""


def _diagonal(chart: ChartSpec, name: str) -> EndoField:
    """i on every holomorphic direction, -i on every antiholomorphic one;
    ``name`` is the structure a time chart's refusal names."""
    if chart.has_time:
        raise StructureError(
            f"the {name} complex structure lives on time-free charts")
    i = Expr.imag_unit()
    return EndoField(chart, {(coord, coord): i if coord.kind == Kind.HOLO else -i
                             for coord in chart.coordinates()})


def build_Jk(chart: ChartSpec) -> EndoField:
    """The diagonal complex structure of an extension chart: i on every
    holomorphic direction, -i on every antiholomorphic one.  Time-free
    charts only — a time direction has no consistent eigenvalue."""
    return _diagonal(chart, "diagonal")


def build_Jk_star(chart: ChartSpec) -> EndoField:
    """The cobasis twin of :func:`build_Jk`: the same diagonal matrix, read
    as acting on one-form components (i on each dz slot, -i on each dzb
    slot).  Apply it to a one-form with :func:`star_apply`."""
    return _diagonal(chart, "cobasis")


def star_apply(S: EndoField, w: OneForm) -> OneForm:
    """Direct cobasis action: the output component at slot a is
    sum_b S[a, b] * w_b (matrix times component vector)."""
    if S.chart != w.chart:
        raise StructureError("operator and form live on different charts")
    return OneForm(S.chart, _contract(S.entries, w.components, 1))


def lift_J0(m: int, kind: str, k: int) -> EndoField:
    """Determined lift of the order-0 diagonal structure on a time-free
    chart with m holomorphic directions."""
    chart0 = ChartSpec(m, 0, False)
    return t11_lift_solve(build_Jk(chart0), kind, k)


def hermitian_check(G: Bilinear, J: EndoField) -> bool:
    """Whether G(J., J.) == G, computed entrywise through the pullback."""
    return G.pullback_endo(J) == G


def fundamental_bilinear(G: Bilinear, J: EndoField) -> Bilinear:
    """The bilinear (X, Y) -> G(X, J Y), with no symmetry requirement."""
    if G.chart != J.chart:
        raise StructureError("metric and operator live on different charts")
    return Bilinear(G.chart, _matmul(G.entries, J.entries))


def kaehler_form(G: Bilinear, J: EndoField) -> Bilinear:
    """The fundamental two-form (X, Y) -> G(X, J Y).  Raises unless the
    resulting bilinear is antisymmetric (i.e. unless G is hermitian-
    symmetric for J)."""
    phi = fundamental_bilinear(G, J)
    if not phi.is_antisymmetric():
        raise StructureError(
            "G(., J.) is not antisymmetric; no fundamental two-form")
    return phi


def kaehler_closed(phi: Bilinear) -> bool:
    """Whether the antisymmetric bilinear phi is a closed two-form.

    d phi = sum over a < b of d(phi_ab) ^ da ^ db, so each entry (a, b) with
    a before b adds, for each coordinate c it contains other than a and b,
    the partial of phi_ab by c into the increasing triple on {a, b, c}:
    with sign + when c sorts first or last, - when it sorts between."""
    if not phi.is_antisymmetric():
        raise FieldError("kaehler_closed requires an antisymmetric bilinear")
    dphi: dict[tuple, Expr] = {}
    for (a, b), value in phi.entries.items():
        ka, kb = a.sort_key(), b.sort_key()
        if ka > kb:
            continue
        for c in value.coords() - {a, b}:
            triple = tuple(sorted((a, b, c), key=CoordId.sort_key))
            dv = value.diff(c)
            dphi[triple] = dphi.get(triple, Expr.zero()) + \
                (-dv if ka < c.sort_key() < kb else dv)
    return all(v.is_zero() for v in dphi.values())


@dataclass(frozen=True)
class HermitianPackage:
    """A time-free order-0 chart with a hermitian metric, its diagonal
    structure, and the fundamental two-form bilinear (kept as a Bilinear so
    it can be lifted through the (0,2)-solver)."""

    chart: ChartSpec
    metric: Bilinear
    J: EndoField
    phi: Bilinear

    @staticmethod
    def flat(m: int) -> "HermitianPackage":
        """The flat package: metric dz_i (x) dzb_i + dzb_i (x) dz_i."""
        chart = ChartSpec(m, 0, False)
        one = Expr.one()
        entries: dict[tuple[CoordId, CoordId], Expr] = {}
        for i in range(1, m + 1):
            z = CoordId(Kind.HOLO, 0, i)
            zb = CoordId(Kind.ANTI, 0, i)
            entries[(z, zb)] = one
            entries[(zb, z)] = one
        metric = Bilinear(chart, entries)
        J = _diagonal(chart, "diagonal")
        return HermitianPackage(chart, metric, J, fundamental_bilinear(metric, J))
