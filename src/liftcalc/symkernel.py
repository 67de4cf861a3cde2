"""Exact symbolic kernel: Gaussian-rational polynomials in canonical normal form.

Everything downstream (charts, fields, lifts, verification) reduces to algebra in
this module. The objects are multivariate polynomials whose coefficients are
Gaussian rationals (complex numbers with exact rational real and imaginary
parts) and whose variables ("atoms") are the coordinates of an extension
chart: the time coordinate ``t``, holomorphic coordinates ``z{r}_{i}`` and
antiholomorphic coordinates ``zb{r}_{i}``.

A Gaussian rational is held as a normalised integer triple ``(a, b, d)``
meaning ``(a + b*i)/d``, so coefficient arithmetic is plain integer arithmetic
with at most one gcd per operation.

Inside the kernel a coordinate is its packed code, one int built once per
:class:`CoordId`: ``kind << 40 | level << 20 | index``.  Integer order on
codes is the canonical coordinate order, so a monomial is a tuple of
``(code, exponent)`` pairs and hashing, comparing and sorting it run on
plain ints.  Codes are decoded back to ``CoordId`` only at the API and text
boundary: ``terms``, ``term_map``, ``coords`` and ``coefficient`` speak
``CoordId``, and ``format_expr`` reads names from a bounded code -> name
cache.  Level and index must stay below ``2**20``; ``CoordId`` refuses
anything larger.

Polynomials are kept in a canonical normal form (a map from monomials to
nonzero coefficients, with a fixed total order on atoms and on monomials), so
equality of expressions is literal equality of term maps and every identity
check in the package is exact and decidable. No floating point is used
anywhere.

The module also provides the exact linear solver behind the determined
lifts, where each unknown is an entire component function of the lifted
field: fraction-free elimination over the polynomial ring with
exact-division back-substitution. :class:`PolyLinearFactor` records the
elimination of a set of coefficient rows once and replays it on any number
of right-hand sides; equation n reads ``sum(row_n[p] * x_p) == rhs_n``.  A
solve reads the pivot rows only, so the caller checks every equation at the
values.  Unknowns never enter an expression: a row maps positions to
coefficients, and an unknown's name is only a label in error texts.
"""

from __future__ import annotations

import heapq
import math
import re
import sys
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union


class SymKernelError(Exception):
    """Base class for kernel errors."""


class ParseError(SymKernelError):
    """Lexical or syntactic error in expression text, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LinearSolveError(SymKernelError):
    """Base class for linear-system failures."""


class InconsistentSystemError(LinearSolveError):
    """The system has no solution; carries a witness equation."""

    def __init__(self, message: str, equation_index: int | None = None,
                 witness: str | None = None):
        detail = message
        if equation_index is not None:
            detail += f" [equation {equation_index}]"
        if witness:
            detail += f": {witness}"
        super().__init__(detail)
        self.equation_index = equation_index
        self.witness = witness


class UnderdeterminedError(LinearSolveError):
    """The system does not determine all unknowns; lists the free ones."""

    def __init__(self, free: Sequence[str]):
        self.free = tuple(free)
        super().__init__(
            f"underdetermined system; free unknowns: {', '.join(self.free)}")


class ExactDivisionError(SymKernelError):
    """Polynomial division with a nonzero remainder was requested."""


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

class Kind(IntEnum):
    """Coordinate kind; the order TIME < HOLO < ANTI is the canonical one."""

    TIME = 0
    HOLO = 1
    ANTI = 2


# A coordinate's packed code: kind in the bits from 40 up, level in bits
# 20..39 and index in bits 0..19, so integer order on codes is the
# (kind, level, index) order.  The time coordinate's code is 0.
_LEVEL_SHIFT = 20
_KIND_SHIFT = 40
_LEVEL_STEP = 1 << _LEVEL_SHIFT         # code of level + 1 minus code of level
_FIELD_MASK = _LEVEL_STEP - 1           # the largest level and index
_SWAP_KINDS = 3 << _KIND_SHIFT          # xor swaps HOLO (1) and ANTI (2)


@dataclass(frozen=True, slots=True)
class CoordId:
    """A chart coordinate: ``t``, ``z{level}_{index}`` or ``zb{level}_{index}``.

    The time coordinate carries no level/index (both are fixed at 0).
    Holomorphic/antiholomorphic coordinates have ``0 <= level < 2**20`` and
    ``1 <= index < 2**20``.  The packed code, which is both the sort key
    and the hash, is computed once, at construction.
    """

    kind: Kind
    level: int = 0
    index: int = 0
    _code: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == Kind.TIME:
            if self.level != 0 or self.index != 0:
                raise ValueError("time coordinate carries no level/index")
        else:
            if self.level < 0:
                raise ValueError(f"negative level {self.level}")
            if self.index < 1:
                raise ValueError(f"coordinate index must be >= 1, got {self.index}")
            if self.level > _FIELD_MASK or self.index > _FIELD_MASK:
                raise ValueError(
                    f"coordinate level {self.level} or index {self.index} "
                    f"exceeds the limit {_FIELD_MASK}")
        object.__setattr__(self, "_code", int(self.kind) << _KIND_SHIFT
                           | self.level << _LEVEL_SHIFT | self.index)

    def __eq__(self, other) -> bool:
        if other.__class__ is not CoordId:
            return NotImplemented
        return self._code == other._code

    def __hash__(self) -> int:
        return self._code

    def sort_key(self) -> int:
        """The packed code; its order is the canonical coordinate order."""
        return self._code

    @property
    def name(self) -> str:
        if self.kind == Kind.TIME:
            return "t"
        prefix = "z" if self.kind == Kind.HOLO else "zb"
        return f"{prefix}{self.level}_{self.index}"

    def conjugate(self) -> "CoordId":
        if self.kind == Kind.TIME:
            return self
        swapped = Kind.ANTI if self.kind == Kind.HOLO else Kind.HOLO
        return CoordId(swapped, self.level, self.index)

    def __repr__(self) -> str:
        return f"CoordId({self.name})"


TIME = CoordId(Kind.TIME)


def holo(level: int, index: int) -> CoordId:
    return CoordId(Kind.HOLO, level, index)


def anti(level: int, index: int) -> CoordId:
    return CoordId(Kind.ANTI, level, index)


_CODE_CACHE_SIZE = 4096


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _decode(code: int) -> CoordId:
    """The coordinate of a packed code."""
    return CoordId(Kind(code >> _KIND_SHIFT), code >> _LEVEL_SHIFT & _FIELD_MASK,
                   code & _FIELD_MASK)


def _level_up(code: int) -> int:
    """The code of the coordinate one level above a z or zb coordinate's."""
    if code >> _LEVEL_SHIFT & _FIELD_MASK == _FIELD_MASK:
        raise ValueError(f"cannot shift a coordinate beyond level {_FIELD_MASK}")
    return code + _LEVEL_STEP


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code_name(code: int) -> str:
    """The text name of the coordinate of a packed code."""
    return _decode(code).name


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

_RatLike = Union[int, Fraction]

_new = object.__new__


def _power(base, exponent: int, one):
    """``base ** exponent`` by square-and-multiply from `one`, the unit of
    the base's ring; the base is not squared after the top bit."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


class GRat:
    """An exact Gaussian rational ``(a + b*i)/d`` held as three integers.

    The triple is kept in normal form: ``d > 0`` and ``gcd(a, b, d) == 1``,
    so zero is ``(0, 0, 1)`` and equal values have equal triples.  Every
    operation reduces its result with at most one gcd, none when the
    denominator is 1.  ``re`` and ``im`` are read-only ``Fraction`` views;
    the constructor takes ``int`` and ``Fraction`` parts only.

    The kernel's loops that build term maps (``_add_product``,
    ``_accumulate``, ``Expr`` products, negation, scaling and ``diff``, and
    ``divide_exact`` by one term) do not call these operators: they
    multiply and add the triples as integers, and each touch of a monomial
    makes one normalised GRat.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot interpret {part!r} as a Gaussian rational")
        re, im = Fraction(re), Fraction(im)
        rd, imd = re.denominator, im.denominator
        d = math.lcm(rd, imd)
        # Reduced fractions over their lcm leave gcd(a, b, d) == 1.
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // imd)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_value(value: "GRatLike") -> "GRat":
        if isinstance(value, GRat):
            return value
        if isinstance(value, (int, Fraction)):
            return GRat(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- predicates ---------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "GRatLike") -> "GRat":
        if other.__class__ is not GRat:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GRat(other)
        d, od = self._d, other._d
        if d == od:
            return _grat(self._a + other._a, self._b + other._b, d)
        return _grat(self._a * od + other._a * d, self._b * od + other._b * d,
                     d * od)

    __radd__ = __add__

    def __neg__(self) -> "GRat":
        return _grat_normal(-self._a, -self._b, self._d)

    def __sub__(self, other: "GRatLike") -> "GRat":
        if other.__class__ is not GRat:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GRat(other)
        d, od = self._d, other._d
        if d == od:
            return _grat(self._a - other._a, self._b - other._b, d)
        return _grat(self._a * od - other._a * d, self._b * od - other._b * d,
                     d * od)

    def __rsub__(self, other: "GRatLike") -> "GRat":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GRat(other) - self

    def __mul__(self, other: "GRatLike") -> "GRat":
        if other.__class__ is not GRat:
            if other.__class__ is int:
                return _grat(self._a * other, self._b * other, self._d)
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GRat(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _grat(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GRat":
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _grat(a * d, -b * d, norm)

    def __truediv__(self, other: "GRatLike") -> "GRat":
        if other.__class__ is not GRat:
            other = GRat.from_value(other)
        # ((a + b*i)/d) / ((c + e*i)/f) == f*(a + b*i)*(c - e*i) / (d*(c^2 + e^2))
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _grat((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other: "GRatLike") -> "GRat":
        return GRat.from_value(other) / self

    def __pow__(self, exponent: int) -> "GRat":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("GRat powers take non-negative integer exponents")
        return _power(self, exponent, GR_ONE)

    def conjugate(self) -> "GRat":
        return _grat_normal(self._a, -self._b, self._d)

    # -- identity -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if other.__class__ is GRat:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self) -> int:
        """Real values hash like the equal ``int`` or ``Fraction``."""
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __repr__(self) -> str:
        return f"GRat({self.re}, {self.im})"


def _grat_normal(a: int, b: int, d: int) -> GRat:
    """The GRat whose triple ``(a, b, d)`` is already in normal form."""
    g = _new(GRat)
    g._a = a
    g._b = b
    g._d = d
    return g


def _grat(a: int, b: int, d: int) -> GRat:
    """The GRat ``(a + b*i)/d`` for integers with ``d > 0``, reduced."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _grat_normal(a, b, d)


GRatLike = Union[GRat, int, Fraction]

GR_ZERO = GRat(0)
GR_ONE = GRat(1)
GR_I = GRat(0, 1)


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

# A monomial is a tuple of (code, exponent) pairs, sorted by code, with all
# exponents positive.  The empty tuple is the monomial 1.  The API speaks
# (CoordId, exponent) pairs; the two helpers below cross that boundary.
Monomial = tuple

MONO_ONE: Monomial = ()


def _mono_decode(m: Monomial) -> Monomial:
    return tuple([(_decode(code), exp) for code, exp in m])


def _mono_encode(m: Iterable) -> Monomial:
    return tuple([(coord._code, exp) for coord, exp in m])


def _mono_sorted(exps: dict) -> Monomial:
    """The monomial of a code -> exponent map, in canonical order."""
    return tuple(sorted(exps.items()))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    merged = dict(a)
    get = merged.get
    fresh = False
    for code, exp in b:
        have = get(code)
        if have is None:
            merged[code] = exp
            fresh = True
        else:
            merged[code] = have + exp
    # Without a new code the dict keeps a's (canonical) order.
    return _mono_sorted(merged) if fresh else tuple(merged.items())


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """Divide monomial a by b, or return None when b does not divide a."""
    if not b:
        return a
    result = dict(a)
    for code, exp in b:
        have = result.get(code, 0)
        if have < exp:
            return None
        if have == exp:
            del result[code]
        else:
            result[code] = have - exp
    # Removing codes keeps a's canonical order.
    return tuple(result.items())


def mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


def _mono_order_key(m: Monomial) -> tuple:
    """Sort key realizing the canonical term order (used for display too).

    Graded lexicographic, largest first: higher total degree sorts earlier;
    within a degree, the monomial with the larger exponent on the earliest
    coordinate (canonical order) sorts earlier.  The key expands the
    monomial into its code sequence so that plain tuple comparison
    implements the lexicographic part.
    """
    expanded: tuple = ()
    for code, exp in m:
        expanded += (code,) * exp
    return (-len(expanded), expanded)


def _leading(terms: dict) -> Monomial:
    """The leading monomial of a nonempty term map."""
    return min(terms, key=_mono_order_key)


def _codes(terms: dict) -> set:
    """The codes of every coordinate in a term map."""
    return {code for m in terms for code, _ in m}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

ExprLike = Union["Expr", GRat, int, Fraction]


class Expr:
    """A polynomial over the Gaussian rationals in canonical normal form.

    Immutable.  Equality is term-map equality, which by canonicity of the
    normal form decides mathematical equality of polynomials.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, GRat]):
        """The expression over a map from ``(CoordId, exponent)`` monomials
        in canonical order to coefficients; zero coefficients are dropped."""
        self._terms = {_mono_encode(m): c for m, c in terms.items() if c}
        self._hash = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "Expr":
        return _EXPR_ZERO

    @staticmethod
    def one() -> "Expr":
        return _EXPR_ONE

    @staticmethod
    def constant(value: GRatLike) -> "Expr":
        c = GRat.from_value(value)
        if not c:
            return _EXPR_ZERO
        return _expr({MONO_ONE: c})

    @staticmethod
    def imag_unit() -> "Expr":
        return _expr({MONO_ONE: GR_I})

    @staticmethod
    def atom(a: CoordId, exponent: int = 1) -> "Expr":
        if exponent < 0:
            raise ValueError("negative exponent")
        if exponent == 0:
            return _EXPR_ONE
        return _expr({((a._code, exponent),): GR_ONE})

    @staticmethod
    def from_value(value: ExprLike) -> "Expr":
        if isinstance(value, Expr):
            return value
        return Expr.constant(value)

    # -- inspection ----------------------------------------------------------
    def terms(self) -> Iterator[tuple[Monomial, GRat]]:
        """Iterate terms in the canonical (display) order; monomials are
        tuples of ``(CoordId, exponent)`` pairs."""
        for m in sorted(self._terms, key=_mono_order_key):
            yield _mono_decode(m), self._terms[m]

    def term_map(self) -> Mapping[Monomial, GRat]:
        """The term map in insertion order, keyed like :meth:`terms`."""
        return {_mono_decode(m): c for m, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and MONO_ONE in self._terms)

    def constant_value(self) -> GRat:
        if self.is_zero():
            return GR_ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant expression: {format_expr(self)}")
        return self._terms[MONO_ONE]

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(mono_degree(m) for m in self._terms)

    def coords(self) -> set:
        return {_decode(code) for code in _codes(self._terms)}

    def coefficient(self, m: Monomial) -> GRat:
        """The coefficient of a ``(CoordId, exponent)`` monomial."""
        return self._terms.get(_mono_encode(m), GR_ZERO)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        o = other if other.__class__ is Expr else Expr.from_value(other)
        if not self._terms:
            return o
        if not o._terms:
            return self
        merged = dict(self._terms)
        _accumulate(merged, o._terms.items())
        return _expr(merged)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _expr({m: _grat_normal(-c._a, -c._b, c._d)
                      for m, c in self._terms.items()})

    def __sub__(self, other: ExprLike) -> "Expr":
        o = other if other.__class__ is Expr else Expr.from_value(other)
        if not o._terms:
            return self
        merged = dict(self._terms)
        _accumulate(merged, (-o)._terms.items())
        return _expr(merged)

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Expr.from_value(other) - self

    def __mul__(self, other: ExprLike) -> "Expr":
        o = other if other.__class__ is Expr else Expr.from_value(other)
        left, right = self._terms, o._terms
        if not left or not right:
            return _EXPR_ZERO
        if len(left) == 1 or len(right) == 1:
            # Multiplying by one term is injective on monomials and the
            # coefficients are nonzero, so nothing collides or cancels.
            return _expr({mono_mul(m1, m2): _grat(c1._a * c2._a - c1._b * c2._b,
                                                  c1._a * c2._b + c1._b * c2._a,
                                                  c1._d * c2._d)
                          for m1, c1 in left.items() for m2, c2 in right.items()})
        acc: dict[Monomial, GRat] = {}
        _add_product(acc, self, o)
        return _expr(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Expr powers take non-negative integer exponents")
        return _power(self, exponent, _EXPR_ONE)

    def scale(self, c: GRatLike) -> "Expr":
        cv = GRat.from_value(c)
        if not cv:
            return _EXPR_ZERO
        a, b, d = cv._a, cv._b, cv._d
        return _expr({m: _grat(x._a * a - x._b * b, x._a * b + x._b * a, x._d * d)
                      for m, x in self._terms.items()})

    # -- calculus ------------------------------------------------------------
    def diff(self, coord: CoordId) -> "Expr":
        """Formal partial derivative with respect to a coordinate."""
        if not isinstance(coord, CoordId):
            raise TypeError("diff differentiates with respect to a CoordId")
        # Lowering the exponent of one coordinate is injective on the
        # monomials that contain it, so the derivative's terms never collide.
        key = coord._code
        acc: dict[Monomial, GRat] = {}
        for m, c in self._terms.items():
            for pos, (code, exp) in enumerate(m):
                if code == key:
                    if exp == 1:
                        acc[m[:pos] + m[pos + 1:]] = c
                    else:
                        acc[m[:pos] + ((code, exp - 1),) + m[pos + 1:]] = _grat(
                            c._a * exp, c._b * exp, c._d)
                    break
        return _expr(acc)

    def conjugate(self) -> "Expr":
        """Complex conjugation: swap z <-> zb atoms, conjugate coefficients."""
        # Conjugation is injective on coordinates, so nothing merges.  It
        # flips the kind bits of every code but time's, which is 0.
        return _expr({tuple(sorted([(code ^ _SWAP_KINDS if code else 0, exp)
                                    for code, exp in m])):
                      c.conjugate() for m, c in self._terms.items()})

    # -- identity ------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if other.__class__ is Expr:
            return self._terms == other._terms
        if isinstance(other, (int, Fraction, GRat)):
            other = Expr.constant(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        """A constant hashes like its value, so it hashes like the equal
        ``GRat``, ``Fraction`` or ``int``."""
        h = self._hash
        if h is None:
            if self.is_constant():
                h = hash(self.constant_value())
            else:
                h = hash(frozenset(self._terms.items()))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"Expr({format_expr(self)})"


def _derive(expr: Expr, time_scaled: bool) -> Expr:
    """The complete lifts' level-shift derivation D: ``sum over coords c of
    shift(c)*(df/dc)`` plus the time term, ``t*(df/dt)`` when `time_scaled`
    (a complete step) and ``df/dt`` otherwise (the gradient).

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


def _expr(terms: dict) -> Expr:
    """The Expr over ``terms``, a fresh map that holds no zero coefficient."""
    e = _new(Expr)
    e._terms = terms
    e._hash = None
    return e


def _accumulate(acc: dict, terms: Iterable[tuple[Monomial, GRat]]) -> None:
    """Add terms into the term map ``acc`` in place, dropping cancellations.

    A term whose monomial is new is stored as it is.  Otherwise the sum is
    computed on the integer triples, tested for zero on the raw sum and
    stored as one normalised GRat, as in :func:`_add_product`."""
    get = acc.get
    for m, c in terms:
        old = get(m)
        if old is None:
            acc[m] = c
            continue
        x, y, z = c._a, c._b, c._d
        oa, ob, od = old._a, old._b, old._d
        if od == z:
            x += oa
            y += ob
        else:
            x, y, z = x * od + oa * z, y * od + ob * z, z * od
        if not (x or y):
            del acc[m]
            continue
        acc[m] = _grat(x, y, z)


def _add_product(acc: dict, a: Expr, b: Expr, negate: bool = False) -> None:
    """Add ``a*b``, or ``-a*b`` when `negate`, into the term map ``acc`` in
    place, dropping cancellations; no product polynomial is built.

    Each coefficient's triple is read once, and each ``±c1*c2`` and its sum
    with the running coefficient are computed on integers, so every touch
    of a monomial makes one normalised GRat and no temporary.  The raw sum
    is zero exactly when its ``a`` and ``b`` are, and it is reduced with
    one gcd only when its denominator is not 1."""
    if not b._terms:
        return
    get = acc.get
    right = b._terms.items()
    for m1, c1 in a._terms.items():
        p, q, e = c1._a, c1._b, c1._d
        if negate:
            p, q = -p, -q
        for m2, c2 in right:
            m = mono_mul(m1, m2)
            r, s = c2._a, c2._b
            x, y, z = p * r - q * s, p * s + q * r, e * c2._d
            old = get(m)
            if old is not None:
                oa, ob, od = old._a, old._b, old._d
                if od == z:
                    x += oa
                    y += ob
                else:
                    x, y, z = x * od + oa * z, y * od + ob * z, z * od
                if not (x or y):
                    del acc[m]
                    continue
            # _grat inlined: this is the kernel's hottest loop.
            if z != 1:
                g = math.gcd(x, y, z)
                if g != 1:
                    x //= g
                    y //= g
                    z //= g
            out = acc[m] = _new(GRat)
            out._a = x
            out._b = y
            out._d = z


_EXPR_ZERO = _expr({})
_EXPR_ONE = _expr({MONO_ONE: GR_ONE})


def binomial(r: int, j: int) -> int:
    """Binomial coefficient C(r, j) with strict range checking."""
    if r < 0 or j < 0:
        raise ValueError(f"binomial arguments must be non-negative, got ({r}, {j})")
    if j > r:
        raise ValueError(f"binomial out of range: j={j} > r={r}")
    return math.comb(r, j)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

# An integer of more bits than this is refused in formatting: 14,280 bits
# stay under the default int-to-str limit of 4,300 digits, which is a
# process-wide setting and is left alone.  Parsed coefficients keep under
# 8,192 bits, but lifts multiply them.
_MAX_FORMAT_BITS = 14280


def _format_ratio(n: int, d: int) -> str:
    """The reduced fraction ``n/d`` (``d > 0``) as text; integers print bare."""
    g = math.gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    bits = max(n.bit_length(), d.bit_length())
    if bits > _MAX_FORMAT_BITS:
        raise SymKernelError(f"coefficient of {bits} bits is too large to print "
                             f"(limit {_MAX_FORMAT_BITS})")
    return str(n) if d == 1 else f"{n}/{d}"


def _format_coeff_magnitude(a: int, b: int, d: int) -> str:
    """Render the nonzero coefficient ``(a + b*i)/d``; "" when it is 1.

    The caller has already made the leading sign non-negative (a > 0, or
    a == 0 and b > 0).
    """
    if not b:
        return "" if a == d else _format_ratio(a, d)
    if not a:
        return "i" if b == d else f"{_format_ratio(b, d)}*i"
    # Mixed: parenthesized so the output re-parses as a single factor.
    joiner = " + " if b > 0 else " - "
    b_abs = abs(b)
    im_text = "i" if b_abs == d else f"{_format_ratio(b_abs, d)}*i"
    return f"({_format_ratio(a, d)}{joiner}{im_text})"


def _format_monomial(m: Monomial) -> str:
    parts = []
    for code, exp in m:
        name = _code_name(code)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def format_expr(e: Expr) -> str:
    """Canonical text form; deterministic, and re-parses to an equal Expr."""
    if e.is_zero():
        return "0"
    pieces: list[str] = []
    terms = e._terms
    for n, m in enumerate(sorted(terms, key=_mono_order_key)):
        c = terms[m]
        a, b = c._a, c._b
        negative = a < 0 or (not a and b < 0)
        if negative:
            a, b = -a, -b
        coeff_text = _format_coeff_magnitude(a, b, c._d)
        if not m:
            body = coeff_text if coeff_text else "1"
        elif coeff_text:
            body = f"{coeff_text}*{_format_monomial(m)}"
        else:
            body = _format_monomial(m)
        if n == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One match per token, with the whitespace before it.  Tokens are whole
# bases where they can be: a number carries its denominator ("3/2"), and
# "i" and a parenthesized Gaussian constant such as format_expr writes
# ("(10 + 15/2*i)") are one constant each.  A power ("^3") is its own token
# after any base, a coordinate included.  A whole term as
# format_expr writes it, "[coefficient*][i*]z..^e*z..*...", is one "term"
# token: an optional number or such a constant, then coordinate factors,
# with format_expr's spacing (none but the constant's " + ").  It is not
# read after a "*", and a sign, a ")" or the end follows it.
# The group and term tokens match only where nothing inside them can be
# refused: denominators and a group's imaginary part are nonzero, integers
# have at most 640 digits (so no fold passes the coefficient budget and
# int() reads them under the lowest int-to-str limit Python allows), and a
# term's exponents are 0 to 64.  A term's levels and indices have at most 7
# digits; one over the limit is refused where its factor starts, as a
# coordinate token is.  Other text (other spacing, "^65", a "^" with no
# exponent, leading zeros in a term's index, denominator or imaginary part)
# is read through the smaller tokens, and any other group through "(" as a
# sum.
# An operator that starts no other token is read first ("op"); "(" and a
# "^" with no exponent after it are operators too ("op2").
# Digits are ASCII only and a coordinate index is nonzero; whitespace and
# the word boundary after "t" and "i" keep the Unicode meaning of
# str.isspace and str.isalnum.  Any other character is a "bad" token.
_INT = r"[0-9]{1,640}"
_NONZERO = r"(?=0*[1-9])[0-9]{1,640}"
_POSITIVE = r"[1-9][0-9]{0,639}"
_FACTOR = r"(?: zb?[0-9]{1,7}_[1-9][0-9]{0,6} | t ) (?: \^(?:6[0-4]|[1-5][0-9]|[0-9]) )?"
_TOKEN_RE = re.compile(rf"""
    \s* (?P<op> [-+*/)] )
    | (?<! \* ) \s* (?= [(0-9itz] )
      (?P<term>
        (?: (?P<tn>{_INT}) (?: / (?P<td>{_POSITIVE}) )? \*
          | \( (?P<tre>{_INT}) (?: / (?P<tred>{_POSITIVE}) )? \x20(?P<tsign>[-+])\x20
               (?: (?P<tim>{_POSITIVE}) (?: / (?P<timd>{_POSITIVE}) )? \* )? i \) \* )?
        (?P<ti> i\* )?
        (?P<tf> {_FACTOR} (?: \* {_FACTOR} )* ) (?= \s*[-+)] | \s*\Z ) )
    | \s* (?:
      (?P<coord> zb?[0-9]+_0*[1-9][0-9]* | t(?!\w) )
    | (?P<num>[0-9]+) (?: \s*/\s* (?P<den>[0-9]+) )?
    | (?P<gauss> \( \s* (?P<gre>{_INT}) (?: \s*/\s* (?P<gred>{_NONZERO}) )?
        \s* (?P<gsign>[-+]) \s*
        (?: (?P<gim>{_NONZERO}) (?: \s*/\s* (?P<gimd>{_NONZERO}) )? \s*\*\s* )?
        i \s* \) )
    | (?P<pow>\^) \s* (?P<exp>[0-9]+)
    | (?P<imag> i(?!\w) )
    | (?P<op2> [(^] )
    | (?P<bad> \S )
    )""", re.VERBOSE)

# A power whose total degree (base degree times exponent) exceeds this is
# refused: expanding it costs time and memory that grow steeply with the
# degree (a four-term degree-2 base takes seconds at exponent 60).
_MAX_POWER_DEGREE = 64

# A power whose coefficient bit size (exponent times the largest bit length
# of the base's integers) exceeds this is refused.  An accepted power's
# integers stay below 2**8192, about 2,470 digits, inside the default
# int-to-str limit of 4,300 digits, so its result can be printed.
_MAX_POWER_BITS = 4096

# A coefficient with an integer of more bits than this in its reduced
# (a + b*i)/d is refused, so that however many factors a term folds or terms
# an expression adds, every parsed coefficient prints like an accepted power.
_MAX_COEFF_BITS = 8192

# A power of a sum, or a product of sums, predicted to expand to more terms
# than this is refused: 6,435 terms take about a second, 50,388 over 20 s.
_MAX_TERMS = 10000

# A parenthesized sum nested deeper than this is refused.  Each level costs
# the parser two Python frames, so the deepest accepted input stays far
# below the interpreter's recursion limit (1,000 by default) even when
# parse is called from a deep stack.
_MAX_DEPTH = 100

_COORD_CACHE_SIZE = 4096


class _OutOfRange(Exception):
    """A coordinate name whose level or index is over the limit."""


@lru_cache(maxsize=_COORD_CACHE_SIZE)
def _coord(name: str) -> CoordId:
    """The coordinate of a token: ``t``, ``z<level>_<index>`` or
    ``zb<level>_<index>``.  A level or index out of range raises
    _OutOfRange (and one too long for int() ValueError), so no refusal is
    cached."""
    if name == "t":
        return TIME
    head, index = name.split("_")
    kind, start = (Kind.ANTI, 2) if head[1:2] == "b" else (Kind.HOLO, 1)
    level, index = int(head[start:]), int(index)
    if level > _FIELD_MASK or index > _FIELD_MASK:
        raise _OutOfRange(name)
    return CoordId(kind, level, index)


@lru_cache(maxsize=_COORD_CACHE_SIZE)
def _factor(text: str) -> tuple[int, int]:
    """The ``(code, exponent)`` of a factor of a term token, such as
    ``z2_3^2``; raises as `_coord` does."""
    name, _, exp = text.partition("^")
    return _coord(name)._code, int(exp) if exp else 1


def _factor_position(text: str, pos: int, n: int) -> int:
    """Where factor `n` of the term token at `pos` in `text` starts.  The
    token is matched again: this is for error messages only."""
    m = _TOKEN_RE.match(text, pos)
    start = m.start("tf")
    return start + sum(len(f) + 1 for f in m["tf"].split("*")[:n])


def _gauss(p: str, q, sign: str, r, s) -> tuple[int, int, int]:
    """The reduced triple of a parenthesized constant ``(p/q +- r/s*i)``;
    a missing denominator or imaginary numerator is 1."""
    p, q = int(p), int(q) if q else 1
    r, s = int(r) if r else 1, int(s) if s else 1
    a, b, d = p * s, r * q if sign == "+" else -r * q, q * s
    g = math.gcd(a, b, d)
    return a // g, b // g, d // g


def _tokens(text: str) -> list[tuple]:
    """The tokens of `text`, then an end token.  Each token is a tuple whose
    first two fields are its kind and position: ``("m", pos, a, b, d,
    factors)`` for a term token, with the reduced triple of its coefficient
    (1 when it has none) and its ``(code, exponent)`` factors in text
    order, ``("c", pos, coord)``, ``("n", pos, numerator, denominator or
    None, denominator position)``, ``("g", pos, a, b, d)`` for ``i`` or a
    parenthesized Gaussian constant with its reduced triple, ``("p", pos,
    exponent, exponent position)`` for a ``^`` with its exponent, ``(op,
    pos)`` and ``("end", pos)``.
    Lexical errors come before any syntax error."""
    toks: list[tuple] = []
    append = toks.append
    try:
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "term":
                n, q, p, pd, sign, r, rd, imag, factors = m.group(
                    "tn", "td", "tre", "tred", "tsign", "tim", "timd", "ti", "tf")
                if n is not None:
                    a, b, d = int(n), 0, 1
                    if q:
                        d = int(q)
                        g = math.gcd(a, d)
                        a, d = a // g, d // g
                elif p is not None:
                    a, b, d = _gauss(p, pd, sign, r, rd)
                else:
                    a, b, d = 1, 0, 1
                if imag:
                    a, b = -b, a
                append(("m", m.start(kind), a, b, d,
                        tuple(map(_factor, factors.split("*")))))
            elif kind == "op" or kind == "op2":
                append((m[kind], m.start(kind)))
            elif kind == "coord":
                # A name the lowest int-to-str limit (640 digits) may refuse
                # is not cached: whether int() reads it depends on the limit.
                name = m[kind]
                append(("c", m.start(kind), _coord(name) if len(name) <= 640
                        else _coord.__wrapped__(name)))
            elif kind == "num":
                append(("n", m.start(kind), int(m[kind]), None, 0))
            elif kind == "den":
                append(("n", m.start("num"), int(m["num"]), int(m[kind]),
                        m.start(kind)))
            elif kind == "exp":
                append(("p", m.start("pow"), int(m[kind]), m.start(kind)))
            elif kind == "imag":
                append(("g", m.start(kind), 0, 1, 1))
            elif kind == "gauss":
                append(("g", m.start(kind),
                        *_gauss(*m.group("gre", "gred", "gsign", "gim", "gimd"))))
            else:
                pos = m.start(kind)
                raise ParseError(f"unexpected character {text[pos:pos + 4]!r}", pos)
    except ValueError:
        # int() refuses digit strings beyond the interpreter's limit.  A
        # fraction's match is named for its denominator, but its numerator
        # is read first.
        if kind == "den" and len(m["num"]) > sys.get_int_max_str_digits():
            kind = "num"
        raise ParseError("number too long", m.start(kind)) from None
    except _OutOfRange as err:
        pos = m.start(kind)
        if kind == "term":
            names = [f.partition("^")[0] for f in m["tf"].split("*")]
            pos = _factor_position(text, pos, names.index(err.args[0]))
        raise ParseError(f"coordinate level or index exceeds the limit "
                         f"{_FIELD_MASK}", pos) from None
    append(("end", len(text)))
    return toks


def _check_power(degree: int, bits: int, exponent: int, pos: int) -> None:
    """Refuse a power over the degree budget or the coefficient budget."""
    if degree * exponent > _MAX_POWER_DEGREE:
        raise ParseError(f"power of degree {degree * exponent} exceeds the limit "
                         f"{_MAX_POWER_DEGREE}", pos)
    if bits * exponent > _MAX_POWER_BITS:
        raise ParseError(f"power of {bits * exponent} coefficient bits exceeds "
                         f"the limit {_MAX_POWER_BITS}", pos)


def _fit_coefficient(a: int, b: int, d: int, pos: int) -> tuple[int, int, int]:
    """The triple ``(a, b, d)``, reduced when it is over the coefficient
    budget; refused when it still is."""
    if (abs(a) | abs(b) | d).bit_length() > _MAX_COEFF_BITS:
        g = math.gcd(a, b, d)
        a, b, d = a // g, b // g, d // g
        bits = (abs(a) | abs(b) | d).bit_length()
        if bits > _MAX_COEFF_BITS:
            raise ParseError(f"coefficient of {bits} bits exceeds the limit "
                             f"{_MAX_COEFF_BITS}", pos)
    return a, b, d


def _fold(a: int, b: int, d: int, fa: int, fb: int, fd: int, power,
          pos: int) -> tuple[int, int, int]:
    """The coefficient ``(a + b*i)/d`` times the constant factor ``(fa +
    fb*i)/fd`` raised to the ``("p", ...)`` token `power`, or to 1 when it is
    None.  The power has degree 0 and the bits of the factor's reduced
    triple; the product is held to the coefficient budget at `pos`."""
    if power is not None:
        g = math.gcd(fa, fb, fd)
        fa, fb, fd = fa // g, fb // g, fd // g
        _check_power(0, max(fa.bit_length(), fb.bit_length(), fd.bit_length()),
                     power[2], power[3])
        c = _grat_normal(fa, fb, fd) ** power[2]
        fa, fb, fd = c._a, c._b, c._d
    a, b, d = a * fa - b * fb, a * fb + b * fa, d * fd
    if (abs(a) | abs(b) | d).bit_length() > _MAX_COEFF_BITS:
        return _fit_coefficient(a, b, d, pos)
    return a, b, d


def _pairs_mono(pairs: tuple) -> Monomial:
    """The monomial of a term token's ``(code, exponent)`` factors: the
    factors themselves when they are already in canonical form."""
    prev = -1
    for code, e in pairs:
        if code <= prev or not e:
            exps: dict = {}
            for code, e in pairs:
                if e:
                    exps[code] = exps.get(code, 0) + e
            return _mono_sorted(exps)
        prev = code
    return pairs


def _add_term(acc: dict, mono: Monomial, c: GRat, pos: int) -> None:
    """Add the nonzero term ``c * mono`` into the term map `acc`.  Like
    terms added up can outgrow their parts, so a sum is held to the
    coefficient budget at `pos`."""
    s = acc.get(mono)
    if s is None:
        acc[mono] = c
        return
    s = s + c
    if s:
        acc[mono] = s
        _fit_coefficient(s._a, s._b, s._d, pos)
    else:
        del acc[mono]


def _check_terms(count: int, pos: int) -> None:
    if count > _MAX_TERMS:
        raise ParseError(f"expansion of {count} terms exceeds the limit "
                         f"{_MAX_TERMS}", pos)


def _power_terms(base: Expr, exponent: int) -> int:
    """A bound on the terms of ``base ** exponent``: C(v + D, D) monomials
    of degree D or less in v atoms, or C(n - 1 + e, e) products of n terms."""
    top = base.degree() * exponent
    return min(math.comb(len(_codes(base._terms)) + top, top),
               math.comb(len(base._terms) - 1 + exponent, exponent))


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := base ["^" nat]
    base   := coord | "i" | number | "(" expr ")"
    number := nat ["/" nat]

    A term's factors fold into one Gaussian-rational coefficient, held as
    an integer triple ``(a, b, d)``, and one exponent map; an Expr is built
    only for a parenthesized sum, and each term is added into its
    expression's term map as it is read.  ``i`` and a parenthesized
    Gaussian constant such as ``(10 + 15/2*i)`` are one constant token each,
    folded like a number, and every base reads its power the same way.
    A term token is a whole term and goes into the term map in one step.
    Powers, expansions, coefficients and nesting depth are held to the
    budgets above.
    """

    def __init__(self, text: str, chart=None):
        self.text = text
        self.toks = _tokens(text)
        self.at = 0
        self.depth = 0
        self.chart = chart

    def parse(self) -> Expr:
        value = self._expr()
        tok = self.toks[self.at]
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[1])
        return value

    def _expr(self) -> Expr:
        toks, chart = self.toks, self.chart
        acc: dict[Monomial, GRat] = {}
        sign = 1
        if toks[self.at][0] == "-":
            self.at += 1
            sign = -1
        while True:
            tok = toks[self.at]
            if tok[0] == "m":
                # A whole term in one token: no budget can fire inside it.
                self.at += 1
                if chart is not None:
                    self._check_chart(tok)
                a, b = tok[2], tok[3]
                if a or b:
                    if sign < 0:
                        a, b = -a, -b
                    _add_term(acc, _pairs_mono(tok[5]), _grat_normal(a, b, tok[4]),
                              tok[1])
            else:
                self._term(acc, sign)
            op = toks[self.at][0]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                return _expr(acc)
            self.at += 1

    def _power(self):
        """The ``("p", ...)`` token after a base, or None when no power
        follows; a ``^`` without a natural number after it is an error."""
        tok = self.toks[self.at]
        if tok[0] == "p":
            self.at += 1
            return tok
        if tok[0] == "^":
            nxt = self.toks[self.at + 1]
            if nxt[0] == "-":
                raise ParseError("negative exponent", nxt[1])
            raise ParseError("expected a natural-number exponent", nxt[1])
        return None

    def _check_chart(self, tok: tuple) -> None:
        """Refuse a factor of the term token `tok` that is not in the chart."""
        contains = self.chart.contains
        for n, (code, _) in enumerate(tok[5]):
            coord = _decode(code)
            if not contains(coord):
                raise ParseError(f"coordinate {coord.name} is not in the chart",
                                 _factor_position(self.text, tok[1], n))

    def _term(self, acc: dict, sign: int) -> None:
        """Read one term and add ``sign`` times it into the term map `acc`."""
        toks, chart = self.toks, self.chart
        start = toks[self.at][1]
        a, b, d = sign, 0, 1
        exps: dict = {}
        sums = None     # the product of the term's parenthesized sums
        while True:
            tok = toks[self.at]
            self.at += 1
            kind = tok[0]
            if kind == "c":
                coord = tok[2]
                if chart is not None and not chart.contains(coord):
                    raise ParseError(
                        f"coordinate {coord.name} is not in the chart", tok[1])
                p = self._power()
                e = 1
                if p is not None:
                    e = p[2]
                    _check_power(1, 1, e, p[3])
                if e:
                    code = coord._code
                    exps[code] = exps.get(code, 0) + e
            elif kind == "n":
                n, q = tok[2], tok[3]
                if q is None:
                    if toks[self.at][0] == "/":
                        raise ParseError("expected a denominator",
                                         toks[self.at + 1][1])
                    q = 1
                elif not q:
                    raise ParseError("zero denominator", tok[4])
                a, b, d = _fold(a, b, d, n, 0, q, self._power(), tok[1])
            elif kind == "g":
                # "i" or a parenthesized constant (never zero), folded like a number.
                a, b, d = _fold(a, b, d, tok[2], tok[3], tok[4], self._power(),
                                tok[1])
            elif kind == "(":
                if self.depth == _MAX_DEPTH:
                    raise ParseError(f"nesting depth {_MAX_DEPTH + 1} exceeds "
                                     f"the limit {_MAX_DEPTH}", tok[1])
                self.depth += 1
                inner = self._expr()
                self.depth -= 1
                close = toks[self.at]
                self.at += 1
                if close[0] != ")":
                    raise ParseError("expected ')'", close[1])
                p = self._power()
                if p is not None:
                    bits = max((max(c._a.bit_length(), c._b.bit_length(),
                                    c._d.bit_length())
                                for c in inner._terms.values()), default=0)
                    _check_power(inner.degree(), bits, p[2], p[3])
                    if len(inner._terms) > 1:
                        _check_terms(_power_terms(inner, p[2]), p[3])
                    inner = inner ** p[2]
                terms = inner._terms
                if len(terms) > 1:
                    if sums is None:
                        sums = inner
                    else:
                        _check_terms(len(sums._terms) * len(terms), tok[1])
                        sums = sums * inner
                        for c in sums._terms.values():
                            _fit_coefficient(c._a, c._b, c._d, tok[1])
                elif terms:
                    ((m, c),) = terms.items()
                    a, b, d = _fold(a, b, d, c._a, c._b, c._d, None, tok[1])
                    for code, e in m:
                        exps[code] = exps.get(code, 0) + e
                else:
                    a = b = 0
            elif kind == "end":
                raise ParseError("unexpected end of input", tok[1])
            else:
                raise ParseError(
                    f"unexpected token {'^' if kind == 'p' else kind!r}", tok[1])
            if toks[self.at][0] != "*":
                break
            self.at += 1
        if not (a or b):
            return
        mono = _mono_sorted(exps)
        if sums is None:
            _add_term(acc, mono, _grat(a, b, d), start)
            return
        touched = (_expr({mono: _grat(a, b, d)}) * sums)._terms
        _accumulate(acc, touched.items())
        # A product of sums, added to like terms, can outgrow its parts.
        for m in touched:
            c = acc.get(m)
            if c is not None:
                _fit_coefficient(c._a, c._b, c._d, start)


def parse(text: str, chart=None) -> Expr:
    """Parse expression text; optionally validate coordinates against a chart."""
    return _Parser(text, chart).parse()


# ---------------------------------------------------------------------------
# Exact polynomial division
# ---------------------------------------------------------------------------

def divide_exact(f: Expr, g: Expr) -> Expr:
    """Return q with f == q*g, or raise ExactDivisionError.

    Standard single-divisor reduction under the canonical term order; when g
    divides f exactly the leading term of every intermediate remainder is
    divisible by the leading term of g, so the loop either completes with
    remainder zero or detects non-divisibility.

    The remainder is one mutable term map, and a heap of order keys finds its
    leading term, so each monomial's key is computed once.  A one-term
    divisor needs neither: each term of f divides by it alone, in the order
    the heap would pop them.
    """
    if g.is_zero():
        raise ExactDivisionError("division by the zero polynomial")
    if f.is_zero():
        return Expr.zero()
    if len(g._terms) == 1:
        ((g_mono, g_coeff),) = g._terms.items()
        inv = g_coeff.inverse()
        a, b, d = inv._a, inv._b, inv._d
        terms = f._terms
        quotient = {}
        for m in sorted(terms, key=_mono_order_key):
            q_mono = mono_div(m, g_mono)
            if q_mono is None:
                raise ExactDivisionError(
                    f"{format_expr(g)} does not divide {format_expr(f)}")
            c = terms[m]
            quotient[q_mono] = _grat(c._a * a - c._b * b, c._a * b + c._b * a,
                                     c._d * d)
        return _expr(quotient)
    g_mono = _leading(g._terms)
    g_coeff = g._terms[g_mono]
    g_items = g._terms.items()
    rest = dict(f._terms)
    # Heap entries are (order key, monomial); equal keys mean equal monomials.
    # An entry whose monomial has since cancelled out of `rest` is skipped.
    heap = [(_mono_order_key(m), m) for m in rest]
    heapq.heapify(heap)
    quotient: dict[Monomial, GRat] = {}
    while rest:
        r_mono = heapq.heappop(heap)[1]
        r_coeff = rest.get(r_mono)
        if r_coeff is None:
            continue
        q_mono = mono_div(r_mono, g_mono)
        if q_mono is None:
            raise ExactDivisionError(
                f"{format_expr(g)} does not divide {format_expr(f)}")
        q = r_coeff / g_coeff
        quotient[q_mono] = q
        for gm, gc in g_items:
            m = mono_mul(q_mono, gm)
            s = rest.get(m)
            if s is None:
                rest[m] = -(q * gc)
                heapq.heappush(heap, (_mono_order_key(m), m))
            else:
                s = s - q * gc
                if s:
                    rest[m] = s
                else:
                    del rest[m]
    return _expr(quotient)


# ---------------------------------------------------------------------------
# Linear solving, polynomial semantics
# ---------------------------------------------------------------------------

class PolyLinearFactor:
    """A fraction-free elimination of polynomial coefficient rows, recorded
    so that it can be replayed on any number of right-hand sides.

    Row ``n`` is a map ``{position: Expr}`` of nonzero coefficients over the
    positions ``0 .. width-1`` and stands for the equation
    ``sum(row[p] * x_p) == rhs_n``.  Each ``x_p`` stands for a whole
    polynomial.  Forward elimination cross-multiplies instead of dividing,
    so the rows stay polynomial, and pivots prefer constant coefficients,
    then the lowest degree.  The pivot sequence depends on the rows alone,
    so :meth:`solve` only repeats the elimination's updates of the pivot
    rows' right-hand sides and the exact-division back-substitution.  Rows
    that never pivot are eliminated only to find the later pivots; solve
    never reads them, so the caller checks every equation at the values.
    """

    __slots__ = ("width", "free", "_steps", "_pivots")

    def __init__(self, rows: Sequence[Mapping[int, Expr]], width: int):
        live = [(n, dict(row)) for n, row in enumerate(rows) if row]
        # Per elimination step: (pivot row, inverse of a constant pivot or
        # None, cross-multiplier or None when normalised, [(row, coeff)]).
        steps: list = []
        # Per pivot: (position, other coefficients, pc or None, row).
        pivots: list = []
        for u in range(width):
            best = best_rank = None
            for idx, (_, coeffs) in enumerate(live):
                c = coeffs.get(u)
                if c is None:
                    continue
                rank = (0, 0) if c.is_constant() else (1, c.degree())
                if best_rank is None or rank < best_rank:
                    best, best_rank = idx, rank
                    if rank == (0, 0):
                        break
            if best is None:
                continue
            prow, pcoeffs = live.pop(best)
            pc = pcoeffs.pop(u)
            inv = None
            if pc.is_constant():
                inv = pc.constant_value().inverse()
                pcoeffs = {v: c.scale(inv) for v, c in pcoeffs.items()}
                pc = None
            updates = []
            reduced = []
            for n, coeffs in live:
                c = coeffs.pop(u, None)
                if c is not None:
                    # row' = pc*row - c*pivot  (eliminates u without division)
                    if pc is not None:
                        coeffs = {v: pc * cv for v, cv in coeffs.items()}
                    for v, pv in pcoeffs.items():
                        val = coeffs.get(v, _EXPR_ZERO) - c * pv
                        if val.is_zero():
                            coeffs.pop(v, None)
                        else:
                            coeffs[v] = val
                    updates.append((n, c))
                if coeffs:
                    reduced.append((n, coeffs))
            live = reduced
            steps.append((prow, inv, pc, updates))
            pivots.append((u, tuple(pcoeffs.items()), pc, prow))
        pivoted = {p[0] for p in pivots}
        used = {p[3] for p in pivots}
        self.width = width
        self.free = tuple(u for u in range(width) if u not in pivoted)
        self._steps = [(prow, inv, pc, [(n, c) for n, c in updates if n in used])
                       for prow, inv, pc, updates in steps]
        self._pivots = pivots[::-1]

    def solve(self, rhs: Sequence[Expr], names: Sequence[str]) -> list[Expr]:
        """The values ``x_p`` for the given right-hand sides, one per row,
        read from the pivot rows alone.

        ``names[p]`` labels position ``p`` in the errors: an
        UnderdeterminedError whose ``free`` lists the names of the
        unpivoted positions, raised before any replay, or an
        InconsistentSystemError (with the row as ``equation_index``) when a
        pivot does not divide exactly.  The equations of rows that never
        pivot are not checked; the caller checks every equation.
        """
        if self.free:
            raise UnderdeterminedError([names[u] for u in self.free])
        rhs = list(rhs)
        for prow, inv, pc, updates in self._steps:
            rp = rhs[prow]
            if inv is not None:
                rp = rhs[prow] = rp.scale(inv)
            for n, c in updates:
                if pc is not None:
                    acc: dict = {}
                    _add_product(acc, pc, rhs[n])
                elif rp._terms:
                    acc = dict(rhs[n]._terms)
                else:
                    continue
                _add_product(acc, c, rp, True)
                rhs[n] = _expr(acc)
        values: list = [None] * self.width
        for u, coeffs, pc, prow in self._pivots:
            acc = dict(rhs[prow]._terms)
            for v, c in coeffs:
                _add_product(acc, c, values[v], True)
            numer = _expr(acc)
            if pc is None:
                values[u] = numer
            else:
                try:
                    values[u] = divide_exact(numer, pc)
                except ExactDivisionError as exc:
                    raise InconsistentSystemError(
                        f"no polynomial solution for {names[u]}", prow,
                        str(exc)) from exc
        return values

