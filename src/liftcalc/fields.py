"""Field objects over an extension chart.

Every geometric object in the package is stored componentwise against the
coordinate frame of a chart: vector fields against the partials
``d/d{coord}``, one-forms against the differentials ``d{coord}``, and the
rank-2 objects against coordinate pairs.  Components are kernel expressions;
zero components are never stored, so structural equality of two fields is
equality of their component maps.

All four tensor types share one component-map base, ``_Labelled``, which
holds the componentwise algebra and the text forms; arithmetic takes only
a field of the same class.  ``_Rank1`` (:class:`VectorField`,
:class:`OneForm`; ``components`` keyed by a coordinate) and ``_Rank2``
(:class:`EndoField`, :class:`Bilinear`; ``entries`` keyed by a coordinate
pair) add validation.  A two-form is an antisymmetric :class:`Bilinear`.
The rank-2 products are written once, in ``_contract`` (rank-2 against
rank-1 over one index) and ``_matmul`` (rank-2 by rank-2); only the hot
evaluations to a scalar keep their own loops.  Each frame field names its
basis element once, in ``_LABEL`` (``d/d{}``, ``d{}``, ``d/d{} <- d/d{}``,
``d{} (x) d{}``), and every text form of a field is derived from it in
coordinate order:

* lines ``<label>: <value>``, or ``0`` (the ``format_*`` functions);
* the inline form ``(<value>)*<label> + ...``, or ``0`` (witness inputs and
  the rank-1 ``repr``);
* the compact form, which writes a ``1`` or ``-1`` component as ``<label>``
  or ``-<label>`` (basis tables and frames);
* the first difference of two fields, ``component <label>`` or
  ``entry <label>`` with both values (clause and comparison witnesses).

Chart validation requires every coordinate a component mentions to be one
of the chart's.
"""

from __future__ import annotations

from typing import Mapping

from .charts import ChartSpec
from .symkernel import CoordId, Expr, ExprLike, _add_product, _expr, format_expr


class FieldError(Exception):
    pass


_ONE = Expr.one()
_MINUS_ONE = -_ONE


class _Frozen:
    """Attribute assignment raises; constructors set their slots through
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ScalarField(_Frozen):
    """A polynomial function on a chart."""

    __slots__ = ("chart", "value")

    def __init__(self, chart: ChartSpec, value: ExprLike):
        expr = Expr.from_value(value)
        chart.validate_expr(expr, "scalar field")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "value", expr)

    def conjugate(self) -> "ScalarField":
        return ScalarField(self.chart, self.value.conjugate())

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if not isinstance(other, ScalarField):
            return NotImplemented
        _same_chart(self, other)
        return ScalarField(self.chart, self.value + other.value)

    def __mul__(self, other) -> "ScalarField":
        if isinstance(other, ScalarField):
            _same_chart(self, other)
            return ScalarField(self.chart, self.value * other.value)
        return ScalarField(self.chart, self.value * Expr.from_value(other))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.chart, -self.value)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self.chart == other.chart and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.chart, self.value))

    def __repr__(self) -> str:
        return f"ScalarField({format_expr(self.value)})"


class _Labelled(_Frozen):
    """A chart and a map from coordinate keys to nonzero expressions,
    against the coordinate frame, with its componentwise algebra and text
    forms.

    A rank base supplies the map (``_map``), the coordinate order of its
    keys (``_order``), the basis label of a key (``_slot``) and the word a
    difference names a key by (``_KEY_WORD``); a concrete class sets
    ``_LABEL`` and the ``_WHAT`` its errors name.  Arithmetic takes only a
    field of the same class.
    """

    __slots__ = ()

    def scaled(self, factor: ExprLike):
        f = Expr.from_value(factor)
        return type(self)(self.chart, {k: f * v for k, v in self._map().items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _same_chart(self, other)
        merged = dict(self._map())
        for key, value in other._map().items():
            merged[key] = merged.get(key, Expr.zero()) + value
        return type(self)(self.chart, merged)

    def __neg__(self):
        return type(self)(self.chart, {k: -v for k, v in self._map().items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.chart == other.chart and self._map() == other._map()

    def is_zero(self) -> bool:
        return not self._map()

    # -- text forms, all derived from the basis label -------------------------

    def _terms(self) -> list[tuple[str, Expr]]:
        values = self._map()
        return [(self._slot(key), values[key])
                for key in sorted(values, key=self._order)]

    def _lines(self) -> list[str]:
        return [f"{slot}: {format_expr(v)}" for slot, v in self._terms()] or ["0"]

    def _inline(self) -> str:
        return " + ".join(f"({format_expr(v)})*{slot}"
                          for slot, v in self._terms()) or "0"

    def _compact(self) -> str:
        parts = []
        for slot, v in self._terms():
            if v == _ONE:
                parts.append(slot)
            elif v == _MINUS_ONE:
                parts.append(f"-{slot}")
            else:
                parts.append(f"({format_expr(v)})*{slot}")
        return " + ".join(parts) or "0"

    def _first_difference(self, other) -> tuple[str, Expr, Expr] | None:
        """The first key, in coordinate order, at which two fields of one
        class differ: (``component <label>`` or ``entry <label>``, own value,
        other value); None when their maps agree."""
        mine, theirs = self._map(), other._map()
        zero = Expr.zero()
        for key in sorted(mine.keys() | theirs.keys(), key=self._order):
            left, right = mine.get(key, zero), theirs.get(key, zero)
            if left != right:
                return f"{self._KEY_WORD} {self._slot(key)}", left, right
        return None


class _Rank1(_Labelled):
    """Components against one coordinate frame, keyed by coordinate."""

    __slots__ = ("chart", "components")
    _KEY_WORD = "component"
    _order = staticmethod(CoordId.sort_key)

    def __init__(self, chart: ChartSpec, components: Mapping[CoordId, ExprLike]):
        what = self._WHAT
        clean: dict[CoordId, Expr] = {}
        for coord, raw in components.items():
            if not isinstance(coord, CoordId):
                raise FieldError(f"{what} components must be keyed by CoordId")
            if not chart.contains(coord):
                raise FieldError(f"{what} component key {coord.name} is not in the chart")
            value = Expr.from_value(raw)
            chart.validate_expr(value, f"{what} component at {coord.name}")
            if not value.is_zero():
                clean[coord] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", clean)

    def _map(self) -> dict[CoordId, Expr]:
        return self.components

    def _slot(self, coord: CoordId) -> str:
        return self._LABEL.format(coord.name)

    @classmethod
    def zero(cls, chart: ChartSpec):
        return cls(chart, {})

    def component(self, coord: CoordId) -> Expr:
        return self.components.get(coord, Expr.zero())

    def conjugate(self):
        return type(self)(self.chart, {
            coord.conjugate(): comp.conjugate()
            for coord, comp in self.components.items()})

    def __rmul__(self, factor):
        return self.scaled(factor)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._inline()})"


class VectorField(_Rank1):
    """A vector field: components against the coordinate partials."""

    __slots__ = ()
    _LABEL = "d/d{}"
    _WHAT = "vector"

    @staticmethod
    def basis(chart: ChartSpec, coord: CoordId) -> "VectorField":
        return VectorField(chart, {coord: Expr.one()})

    def apply(self, f: ExprLike) -> Expr:
        """Directional derivative of a function: sum of comp * df/dcoord."""
        expr = Expr.from_value(f)
        acc: dict = {}
        for coord, comp in self.components.items():
            _add_product(acc, comp, expr.diff(coord))
        return _expr(acc)


class OneForm(_Rank1):
    """A one-form: components against the coordinate differentials."""

    __slots__ = ()
    _LABEL = "d{}"
    _WHAT = "one-form"

    @staticmethod
    def differential_of(chart: ChartSpec, coord: CoordId) -> "OneForm":
        return OneForm(chart, {coord: Expr.one()})

    def pair(self, Z: VectorField) -> Expr:
        """Natural pairing with a vector field."""
        _same_chart(self, Z)
        acc: dict = {}
        for coord, comp in self.components.items():
            zc = Z.components.get(coord)
            if zc is not None:
                _add_product(acc, comp, zc)
        return _expr(acc)


class _Rank2(_Labelled):
    """Entries on ordered coordinate pairs."""

    __slots__ = ("chart", "entries")
    _KEY_WORD = "entry"

    def __init__(self, chart: ChartSpec,
                 entries: Mapping[tuple[CoordId, CoordId], ExprLike]):
        what = self._WHAT
        clean: dict[tuple[CoordId, CoordId], Expr] = {}
        for key, raw in entries.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise FieldError(f"{what} entry key {key} is not a pair of coordinates")
            a, b = key
            for c in (a, b):
                if not isinstance(c, CoordId) or not chart.contains(c):
                    raise FieldError(f"{what} entry key {c} is not a chart coordinate")
            value = Expr.from_value(raw)
            chart.validate_expr(value, f"{what} entry ({a.name}, {b.name})")
            if not value.is_zero():
                clean[(a, b)] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "entries", clean)

    def _map(self) -> dict[tuple[CoordId, CoordId], Expr]:
        return self.entries

    @staticmethod
    def _order(key: tuple[CoordId, CoordId]) -> tuple:
        return key[0].sort_key(), key[1].sort_key()

    def _slot(self, key: tuple[CoordId, CoordId]) -> str:
        return self._LABEL.format(key[0].name, key[1].name)

    def entry(self, a: CoordId, b: CoordId) -> Expr:
        return self.entries.get((a, b), Expr.zero())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.entries)} entries)"


def _contract(entries: Mapping[tuple, Expr], vector: Mapping[CoordId, Expr],
              at: int) -> dict[CoordId, Expr]:
    """A rank-2 map summed against a rank-1 map over key index ``at``:
    ``out[key[1 - at]] += entries[key] * vector[key[at]]``."""
    out: dict[CoordId, dict] = {}
    for key, value in entries.items():
        v = vector.get(key[at])
        if v is not None:
            _add_product(out.setdefault(key[1 - at], {}), value, v)
    return {free: _expr(acc) for free, acc in out.items()}


def _matmul(left: Mapping[tuple, Expr], right: Mapping[tuple, Expr]
            ) -> dict[tuple, Expr]:
    """The product of two rank-2 maps: ``out[(a, c)]`` is the sum over b of
    ``left[(a, b)] * right[(b, c)]``."""
    rows: dict[CoordId, list[tuple[CoordId, Expr]]] = {}
    for (b, c), value in right.items():
        rows.setdefault(b, []).append((c, value))
    out: dict[tuple, dict] = {}
    for (a, b), value in left.items():
        for c, r in rows.get(b, ()):
            _add_product(out.setdefault((a, c), {}), value, r)
    return {key: _expr(acc) for key, acc in out.items()}


class EndoField(_Rank2):
    """A (1,1)-tensor field: entries[(out, in)] against the coordinate frame.

    Acting on a vector field: (T Z)^out = sum_in entries[(out, in)] * Z^in.
    Acting on a one-form by precomposition: (w T)(Z) = w(T Z).
    """

    __slots__ = ()
    _LABEL = "d/d{} <- d/d{}"
    _WHAT = "endo"

    @staticmethod
    def identity(chart: ChartSpec) -> "EndoField":
        return EndoField(chart, {(c, c): Expr.one() for c in chart.coordinates()})

    def apply_vector(self, Z: VectorField) -> VectorField:
        _same_chart(self, Z)
        return VectorField(self.chart, _contract(self.entries, Z.components, 1))

    def apply_form(self, w: OneForm) -> OneForm:
        _same_chart(self, w)
        return OneForm(self.chart, _contract(self.entries, w.components, 0))

    def compose(self, other: "EndoField") -> "EndoField":
        """Matrix product: (self . other) Z = self(other(Z))."""
        _same_chart(self, other)
        return EndoField(self.chart, _matmul(self.entries, other.entries))


class Bilinear(_Rank2):
    """A (0,2)-tensor field: entries[(a, b)] = value of the tensor on the
    coordinate pair (d/da, d/db)."""

    __slots__ = ()
    _LABEL = "d{} (x) d{}"
    _WHAT = "bilinear"

    def evaluate(self, X: VectorField, Y: VectorField) -> Expr:
        _same_chart(self, X)
        _same_chart(self, Y)
        acc: dict = {}
        for (a, b), value in self.entries.items():
            xa = X.components.get(a)
            yb = Y.components.get(b)
            if xa is not None and yb is not None:
                _add_product(acc, value * xa, yb)
        return _expr(acc)

    def pullback_endo(self, J: EndoField) -> "Bilinear":
        """The bilinear (X, Y) -> self(J X, J Y): the matrix J^T . self . J."""
        _same_chart(self, J)
        transpose = {(b, a): v for (a, b), v in J.entries.items()}
        return Bilinear(self.chart,
                        _matmul(transpose, _matmul(self.entries, J.entries)))

    def is_symmetric(self) -> bool:
        return all(self.entry(b, a) == v for (a, b), v in self.entries.items())

    def is_antisymmetric(self) -> bool:
        return all(self.entry(b, a) == -v for (a, b), v in self.entries.items())


class ConnectionCoeffs(_Frozen):
    """Connection coefficients for the adapted frames.

    ``gamma[(r, i, j)]`` is the coefficient used at frame level ``r``
    (0 <= r <= k-1 on a chart of extension order k; 1 <= i, j <= m).  The
    antiholomorphic coefficients default to the conjugates of the
    holomorphic ones and may be overridden explicitly.
    """

    __slots__ = ("chart", "gamma", "gammabar")

    def __init__(self, chart: ChartSpec,
                 gamma: Mapping[tuple[int, int, int], ExprLike],
                 gammabar: Mapping[tuple[int, int, int], ExprLike] | None = None):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "gamma", self._clean(chart, gamma, "gamma"))
        if gammabar is None:
            derived = {}
            for key, value in self.gamma.items():
                derived[key] = value.conjugate()
            object.__setattr__(self, "gammabar", derived)
        else:
            object.__setattr__(self, "gammabar",
                               self._clean(chart, gammabar, "gammabar"))

    @staticmethod
    def _clean(chart: ChartSpec, table: Mapping[tuple[int, int, int], ExprLike],
               what: str) -> dict[tuple[int, int, int], Expr]:
        clean: dict[tuple[int, int, int], Expr] = {}
        for key, raw in table.items():
            if not isinstance(key, tuple) or len(key) != 3:
                raise FieldError(f"{what} key {key} is not a (level, i, j) triple")
            r, i, j = key
            if not 0 <= r <= chart.k - 1:
                raise FieldError(
                    f"{what} level {r} out of range 0..{chart.k - 1}")
            if not (1 <= i <= chart.m and 1 <= j <= chart.m):
                raise FieldError(f"{what} index ({i},{j}) out of range 1..{chart.m}")
            value = Expr.from_value(raw)
            chart.validate_expr(value, f"{what}[{r},{i},{j}]")
            if not value.is_zero():
                clean[(r, i, j)] = value
        return clean

    @staticmethod
    def zero(chart: ChartSpec) -> "ConnectionCoeffs":
        return ConnectionCoeffs(chart, {})

    def gamma_at(self, r: int, i: int, j: int) -> Expr:
        return self.gamma.get((r, i, j), Expr.zero())

    def gammabar_at(self, r: int, i: int, j: int) -> Expr:
        return self.gammabar.get((r, i, j), Expr.zero())


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y]: components X(Y^a) - Y(X^a)."""
    _same_chart(X, Y)
    comps: dict[CoordId, Expr] = {}
    for a in set(X.components) | set(Y.components):
        value = X.apply(Y.component(a)) - Y.apply(X.component(a))
        if not value.is_zero():
            comps[a] = value
    return VectorField(X.chart, comps)


def _same_chart(a, b) -> None:
    if a.chart != b.chart:
        raise FieldError(f"chart mismatch: {a.chart} vs {b.chart}")


# -- deterministic text rendering (CLI and reports) --------------------------

def format_vector(Z: VectorField) -> list[str]:
    return Z._lines()


def format_oneform(w: OneForm) -> list[str]:
    return w._lines()


def format_endo(T: EndoField) -> list[str]:
    return T._lines()


def format_bilinear(B: Bilinear) -> list[str]:
    return B._lines()
