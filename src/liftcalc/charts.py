"""Chart descriptors for higher-order extension spaces.

A chart is described by three numbers: the complex dimension ``m`` of the
underlying manifold, the extension order ``k``, and whether the space carries
an extra real time line (the product case).  The chart's coordinates are

* ``t`` -- only when the time line is present;
* ``z{r}_{i}`` -- holomorphic, level ``0 <= r <= k``, index ``1 <= i <= m``;
* ``zb{r}_{i}`` -- their antiholomorphic partners.

Level 0 coordinates are the base-manifold coordinates; level ``r`` carries the
r-th extension data.  ChartSpec is a frozen value object: operations that
"move" between orders (extend, base) return new specs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .symkernel import (_FIELD_MASK, _LEVEL_SHIFT, TIME, CoordId, Expr, Kind,
                        _code_name, _codes)


class ChartError(Exception):
    pass


@dataclass(frozen=True)
class ChartSpec:
    """A chart of the k-th order extension of an m-dimensional manifold."""

    m: int
    k: int
    has_time: bool = False

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ChartError(f"need at least one complex dimension, got m={self.m}")
        if self.k < 0:
            raise ChartError(f"extension order must be >= 0, got k={self.k}")
        # Levels and indices are packed into 20-bit fields of a coordinate code.
        if self.m > _FIELD_MASK:
            raise ChartError(f"complex dimension m={self.m} exceeds the limit "
                             f"{_FIELD_MASK}")
        if self.k > _FIELD_MASK:
            raise ChartError(f"extension order k={self.k} exceeds the limit "
                             f"{_FIELD_MASK}")

    # -- coordinate enumeration ---------------------------------------------
    def coordinates(self) -> tuple[CoordId, ...]:
        """All coordinates in canonical order: t, then z by level, then zb."""
        coords: list[CoordId] = []
        if self.has_time:
            coords.append(TIME)
        for kind in (Kind.HOLO, Kind.ANTI):
            for level in range(self.k + 1):
                for index in range(1, self.m + 1):
                    coords.append(CoordId(kind, level, index))
        return tuple(coords)

    def holo_coords(self, level: int | None = None) -> tuple[CoordId, ...]:
        levels = range(self.k + 1) if level is None else (self._check_level(level),)
        return tuple(CoordId(Kind.HOLO, r, i)
                     for r in levels for i in range(1, self.m + 1))

    def anti_coords(self, level: int | None = None) -> tuple[CoordId, ...]:
        levels = range(self.k + 1) if level is None else (self._check_level(level),)
        return tuple(CoordId(Kind.ANTI, r, i)
                     for r in levels for i in range(1, self.m + 1))

    def _check_level(self, level: int) -> int:
        if not 0 <= level <= self.k:
            raise ChartError(f"level {level} out of range 0..{self.k}")
        return level

    @property
    def time_coord(self) -> CoordId:
        if not self.has_time:
            raise ChartError("chart has no time coordinate")
        return TIME

    # -- membership ----------------------------------------------------------
    def contains(self, coord: CoordId) -> bool:
        return self._has(coord._code)

    def _has(self, code: int) -> bool:
        """Whether the coordinate with packed `code` is in the chart: level
        and index are read off the code, and time's code is 0."""
        if not code:
            return self.has_time
        return (code & _FIELD_MASK) <= self.m and (code >> _LEVEL_SHIFT & _FIELD_MASK) <= self.k

    def _outside(self, codes) -> list[int]:
        """The packed codes among `codes` whose coordinates are not in the chart."""
        has = self._has
        return [code for code in codes if not has(code)]

    def validate_expr(self, e: Expr, context: str = "expression") -> Expr:
        bad = self._outside(_codes(e._terms))
        if bad:
            names = ", ".join(_code_name(code) for code in sorted(bad))
            raise ChartError(f"{context} uses coordinates outside the chart: {names}")
        return e

    # -- moving between orders ------------------------------------------------
    def extend(self, steps: int = 1) -> "ChartSpec":
        if steps < 0:
            raise ChartError("extend takes a non-negative step count")
        return ChartSpec(self.m, self.k + steps, self.has_time)

    def base(self) -> "ChartSpec":
        return ChartSpec(self.m, 0, self.has_time)

