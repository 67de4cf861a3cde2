"""Exact symbolic kernel: Gaussian-rational polynomials in canonical normal form.

Everything downstream (charts, fields, lifts, verification) reduces to algebra in
this module. The objects are multivariate polynomials whose coefficients are
Gaussian rationals (complex numbers with exact rational real and imaginary
parts) and whose variables ("atoms") are either coordinates of an extension
chart -- the time coordinate ``t``, holomorphic coordinates ``z{r}_{i}``,
antiholomorphic coordinates ``zb{r}_{i}`` -- or solver-internal unknowns.

A Gaussian rational is held as a normalised integer triple ``(a, b, d)``
meaning ``(a + b*i)/d``, so coefficient arithmetic is plain integer arithmetic
with at most one gcd per operation. Atoms compute their hash and sort key
once, when they are built.

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
of right-hand sides; :func:`solve_poly_linear` is the one-shot form.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union


class SymKernelError(Exception):
    """Base class for kernel errors."""


class ParseError(SymKernelError):
    """Lexical or syntactic error in expression text, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConjugationError(SymKernelError):
    """Conjugation applied to an expression containing solver unknowns."""


class LinearSolveError(SymKernelError):
    """Base class for linear-system failures."""


class NonlinearSystemError(LinearSolveError):
    """An equation is not linear in the designated unknowns."""


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

    def __init__(self, free: Sequence["UnknownId"]):
        self.free = tuple(free)
        names = ", ".join(u.name for u in self.free)
        super().__init__(f"underdetermined system; free unknowns: {names}")


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


@dataclass(frozen=True, slots=True)
class CoordId:
    """A chart coordinate: ``t``, ``z{level}_{index}`` or ``zb{level}_{index}``.

    The time coordinate carries no level/index (both are fixed at 0).
    Holomorphic/antiholomorphic coordinates have level >= 0 and index >= 1.
    The sort key and the hash are computed once, at construction.
    """

    kind: Kind
    level: int = 0
    index: int = 0
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == Kind.TIME:
            if self.level != 0 or self.index != 0:
                raise ValueError("time coordinate carries no level/index")
        else:
            if self.level < 0:
                raise ValueError(f"negative level {self.level}")
            if self.index < 1:
                raise ValueError(f"coordinate index must be >= 1, got {self.index}")
        object.__setattr__(self, "_key",
                           (0, int(self.kind), self.level, self.index, ""))
        object.__setattr__(self, "_hash", hash((self.kind, self.level, self.index)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not CoordId:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return self._key

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


@dataclass(frozen=True, slots=True)
class UnknownId:
    """A solver unknown; a namespace disjoint from chart coordinates."""

    name: str
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (1, 0, 0, 0, self.name))
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not UnknownId:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return self._key

    def __repr__(self) -> str:
        return f"UnknownId({self.name})"


Atom = Union[CoordId, UnknownId]

TIME = CoordId(Kind.TIME)


def holo(level: int, index: int) -> CoordId:
    return CoordId(Kind.HOLO, level, index)


def anti(level: int, index: int) -> CoordId:
    return CoordId(Kind.ANTI, level, index)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

_RatLike = Union[int, Fraction]

_new = object.__new__


class GRat:
    """An exact Gaussian rational ``(a + b*i)/d`` held as three integers.

    The triple is kept in normal form: ``d > 0`` and ``gcd(a, b, d) == 1``,
    so zero is ``(0, 0, 1)`` and equal values have equal triples.  Every
    operation reduces its result with at most one gcd, none when the
    denominator is 1.  ``re`` and ``im`` are read-only ``Fraction`` views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
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
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "GRatLike") -> "GRat":
        if other.__class__ is not GRat:
            other = GRat.from_value(other)
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
            other = GRat.from_value(other)
        d, od = self._d, other._d
        if d == od:
            return _grat(self._a - other._a, self._b - other._b, d)
        return _grat(self._a * od - other._a * d, self._b * od - other._b * d,
                     d * od)

    def __rsub__(self, other: "GRatLike") -> "GRat":
        return GRat.from_value(other) - self

    def __mul__(self, other: "GRatLike") -> "GRat":
        if other.__class__ is not GRat:
            if other.__class__ is int:
                return _grat(self._a * other, self._b * other, self._d)
            other = GRat.from_value(other)
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
        result = GR_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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

# A monomial is a tuple of (atom, exponent) pairs, sorted by atom sort key,
# with all exponents positive.  The empty tuple is the monomial 1.
Monomial = tuple

MONO_ONE: Monomial = ()


_atom_key = attrgetter("_key")


def _mono_sorted(exps: dict) -> Monomial:
    """The monomial of an atom -> exponent map, in canonical atom order."""
    atoms = sorted(exps, key=_atom_key)
    return tuple(zip(atoms, map(exps.__getitem__, atoms)))


def mono_from_pairs(pairs: Iterable[tuple[Atom, int]]) -> Monomial:
    merged: dict[Atom, int] = {}
    for atom, exp in pairs:
        if exp < 0:
            raise ValueError("negative exponent in monomial")
        if exp:
            merged[atom] = merged.get(atom, 0) + exp
    return _mono_sorted(merged)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    if a[-1][0]._key < b[0][0]._key:
        return a + b
    if b[-1][0]._key < a[0][0]._key:
        return b + a
    merged = dict(a)
    get = merged.get
    fresh = False
    for atom, exp in b:
        have = get(atom)
        if have is None:
            merged[atom] = exp
            fresh = True
        else:
            merged[atom] = have + exp
    # Without a new atom the dict keeps a's (canonical) order.
    return _mono_sorted(merged) if fresh else tuple(merged.items())


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """Divide monomial a by b, or return None when b does not divide a."""
    if not b:
        return a
    result = dict(a)
    for atom, exp in b:
        have = result.get(atom, 0)
        if have < exp:
            return None
        if have == exp:
            del result[atom]
        else:
            result[atom] = have - exp
    # Removing atoms keeps a's canonical order.
    return tuple(result.items())


def mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


def _mono_order_key(m: Monomial) -> tuple:
    """Sort key realizing the canonical term order (used for display too).

    Graded lexicographic, largest first: higher total degree sorts earlier;
    within a degree, the monomial with the larger exponent on the earliest
    atom (canonical atom order) sorts earlier.  The key expands the monomial
    into its atom sequence so that plain tuple comparison implements the
    lexicographic part.
    """
    expanded: tuple = ()
    for atom, exp in m:
        expanded += (atom._key,) * exp
    return (-len(expanded), expanded)


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
        self._terms = {m: c for m, c in terms.items() if c}
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
    def atom(a: Atom, exponent: int = 1) -> "Expr":
        if exponent < 0:
            raise ValueError("negative exponent")
        if exponent == 0:
            return _EXPR_ONE
        return _expr({((a, exponent),): GR_ONE})

    @staticmethod
    def from_value(value: ExprLike) -> "Expr":
        if isinstance(value, Expr):
            return value
        return Expr.constant(value)

    # -- inspection ----------------------------------------------------------
    def terms(self) -> Iterator[tuple[Monomial, GRat]]:
        """Iterate terms in the canonical (display) order."""
        for m in sorted(self._terms, key=_mono_order_key):
            yield m, self._terms[m]

    def term_map(self) -> Mapping[Monomial, GRat]:
        return dict(self._terms)

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

    def atoms(self) -> set:
        out: set = set()
        for m in self._terms:
            for atom, _ in m:
                out.add(atom)
        return out

    def coords(self) -> set:
        return {a for a in self.atoms() if isinstance(a, CoordId)}

    def unknowns(self) -> set:
        return {a for a in self.atoms() if isinstance(a, UnknownId)}

    def leading_term(self) -> tuple[Monomial, GRat]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self._terms, key=_mono_order_key)
        return m, self._terms[m]

    def coefficient(self, m: Monomial) -> GRat:
        return self._terms.get(m, GR_ZERO)

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
        return _expr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: ExprLike) -> "Expr":
        o = other if other.__class__ is Expr else Expr.from_value(other)
        if not o._terms:
            return self
        merged = dict(self._terms)
        get = merged.get
        for m, c in o._terms.items():
            s = get(m)
            if s is None:
                merged[m] = -c
            else:
                s = s - c
                if s:
                    merged[m] = s
                else:
                    del merged[m]
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
            return _expr({mono_mul(m1, m2): c1 * c2
                          for m1, c1 in left.items() for m2, c2 in right.items()})
        acc: dict[Monomial, GRat] = {}
        get = acc.get
        right_items = right.items()
        for m1, c1 in left.items():
            for m2, c2 in right_items:
                m = mono_mul(m1, m2)
                s = get(m)
                if s is None:
                    acc[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        return _expr(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Expr powers take non-negative integer exponents")
        result = _EXPR_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c: GRatLike) -> "Expr":
        cv = GRat.from_value(c)
        if not cv:
            return _EXPR_ZERO
        return _expr({m: coef * cv for m, coef in self._terms.items()})

    # -- calculus ------------------------------------------------------------
    def diff(self, coord: CoordId) -> "Expr":
        """Formal partial derivative with respect to a coordinate."""
        if not isinstance(coord, CoordId):
            raise TypeError("diff differentiates with respect to a CoordId")
        # Lowering the exponent of one atom is injective on the monomials
        # that contain it, so the derivative's terms never collide.
        key = coord._key
        acc: dict[Monomial, GRat] = {}
        for m, c in self._terms.items():
            for pos, (atom, exp) in enumerate(m):
                if atom._key == key:
                    if exp == 1:
                        acc[m[:pos] + m[pos + 1:]] = c * exp
                    else:
                        acc[m[:pos] + ((atom, exp - 1),) + m[pos + 1:]] = c * exp
                    break
        return _expr(acc)

    def conjugate(self) -> "Expr":
        """Complex conjugation: swap z <-> zb atoms, conjugate coefficients."""
        acc: dict[Monomial, GRat] = {}
        for m, c in self._terms.items():
            pairs = []
            for atom, exp in m:
                if isinstance(atom, UnknownId):
                    raise ConjugationError(
                        f"cannot conjugate expression containing unknown {atom.name}")
                pairs.append((atom.conjugate(), exp))
            acc[mono_from_pairs(pairs)] = c.conjugate()
        return _expr(acc)

    def substitute(self, mapping: Mapping[CoordId, "Expr"]) -> "Expr":
        """Simultaneous substitution of coordinates by expressions."""
        for key in mapping:
            if not isinstance(key, CoordId):
                raise TypeError("substitute keys must be CoordId")
        return self._subst(mapping)

    def substitute_unknowns(self, mapping: Mapping[UnknownId, "Expr"]) -> "Expr":
        for key in mapping:
            if not isinstance(key, UnknownId):
                raise TypeError("substitute_unknowns keys must be UnknownId")
        return self._subst(mapping)

    def _subst(self, mapping: Mapping[Atom, "Expr"]) -> "Expr":
        if not mapping:
            return self
        acc: dict[Monomial, GRat] = {}
        powers: dict[tuple[Atom, int], Expr] = {}
        for m, c in self._terms.items():
            kept = tuple(pair for pair in m if pair[0] not in mapping)
            if len(kept) == len(m):
                _accumulate(acc, ((m, c),))
                continue
            piece = _expr({kept: c})
            for pair in m:
                if pair[0] in mapping:
                    power = powers.get(pair)
                    if power is None:
                        power = powers[pair] = (
                            Expr.from_value(mapping[pair[0]]) ** pair[1])
                    piece = piece * power
            _accumulate(acc, piece._terms.items())
        return _expr(acc)

    def linear_split(self, unknowns: Iterable[UnknownId]
                     ) -> tuple[dict[UnknownId, "Expr"], "Expr"]:
        """Split into (coefficient-of-unknown map, remainder).

        Requires the expression to be linear (degree <= 1) in the given
        unknowns jointly; raises NonlinearSystemError otherwise.
        """
        uset = set(unknowns)
        coeffs: dict[UnknownId, dict[Monomial, GRat]] = {}
        rest: dict[Monomial, GRat] = {}
        for m, c in self._terms.items():
            present = [(atom, exp) for atom, exp in m if atom in uset]
            if not present:
                rest[m] = c
                continue
            if len(present) > 1 or present[0][1] > 1:
                raise NonlinearSystemError(
                    f"term {format_expr(Expr({m: c}))} is not linear in the unknowns")
            u = present[0][0]
            reduced = tuple(pair for pair in m if pair[0] != u)
            bucket = coeffs.setdefault(u, {})
            bucket[reduced] = bucket.get(reduced, GR_ZERO) + c
        return ({u: Expr(t) for u, t in coeffs.items()}, _expr(rest))

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


def _expr(terms: dict) -> Expr:
    """The Expr over ``terms``, a fresh map that holds no zero coefficient."""
    e = _new(Expr)
    e._terms = terms
    e._hash = None
    return e


def _accumulate(acc: dict, terms: Iterable[tuple[Monomial, GRat]]) -> None:
    """Add terms into the term map ``acc`` in place, dropping cancellations."""
    get = acc.get
    for m, c in terms:
        s = get(m)
        if s is None:
            acc[m] = c
        else:
            s = s + c
            if s:
                acc[m] = s
            else:
                del acc[m]


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

def _format_ratio(n: int, d: int) -> str:
    """The reduced fraction ``n/d`` (``d > 0``) as text; integers print bare."""
    g = math.gcd(n, d)
    if g != 1:
        n //= g
        d //= g
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
    for atom, exp in m:
        name = atom.name
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def format_expr(e: Expr) -> str:
    """Canonical text form; deterministic, and re-parses to an equal Expr."""
    if e.is_zero():
        return "0"
    pieces: list[str] = []
    for n, (m, c) in enumerate(e.terms()):
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
# factors where they can be: a coordinate carries its power ("z0_1^3") and a
# number its denominator ("3/2").  Digits are ASCII only and a coordinate
# index is nonzero; whitespace and the word boundary after "t" and "i" keep
# the Unicode meaning of str.isspace and str.isalnum.  Any other character
# is a "bad" token.
_TOKEN_RE = re.compile(r"""
    \s* (?:
      (?P<coord> zb?[0-9]+_0*[1-9][0-9]* | t(?!\w) ) (?: \s*\^\s* (?P<cexp>[0-9]+) )?
    | (?P<num>[0-9]+) (?: \s*/\s* (?P<den>[0-9]+) )?
    | (?P<pow>\^) \s* (?P<exp>[0-9]+)
    | (?P<imag> i(?!\w) )
    | (?P<op> [-+*^/()] )
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

_COORD_CACHE_SIZE = 4096


@lru_cache(maxsize=_COORD_CACHE_SIZE)
def _coord(name: str) -> CoordId:
    """The coordinate of a token: ``t``, ``z<level>_<index>`` or
    ``zb<level>_<index>``."""
    if name == "t":
        return TIME
    head, index = name.split("_")
    if head[1:2] == "b":
        return CoordId(Kind.ANTI, int(head[2:]), int(index))
    return CoordId(Kind.HOLO, int(head[1:]), int(index))


def _tokens(text: str) -> list[tuple]:
    """The tokens of `text`, then an end token.  Each token is a tuple whose
    first two fields are its kind and position: ``("c", pos, coord, exponent
    or None, exponent position)``, ``("n", pos, numerator, denominator or
    None, denominator position)``, ``("p", pos, exponent, exponent
    position)`` for a ``^`` with its exponent, ``("i", pos)``, ``(op, pos)``
    and ``("end", pos)``.  Lexical errors come before any syntax error."""
    toks: list[tuple] = []
    append = toks.append
    try:
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "op":
                append((m[kind], m.start(kind)))
            elif kind == "coord":
                append(("c", m.start(kind), _coord(m[kind]), None, 0))
            elif kind == "num":
                append(("n", m.start(kind), int(m[kind]), None, 0))
            elif kind == "cexp":
                append(("c", m.start("coord"), _coord(m["coord"]), int(m[kind]),
                        m.start(kind)))
            elif kind == "den":
                append(("n", m.start("num"), int(m["num"]), int(m[kind]),
                        m.start(kind)))
            elif kind == "exp":
                append(("p", m.start("pow"), int(m[kind]), m.start(kind)))
            elif kind == "imag":
                append(("i", m.start(kind)))
            else:
                pos = m.start(kind)
                raise ParseError(f"unexpected character {text[pos:pos + 4]!r}", pos)
    except ValueError:
        # int() refuses digit strings beyond the interpreter's limit.
        raise ParseError("number too long", m.start(m.lastgroup)) from None
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


def _check_terms(count: int, pos: int) -> None:
    if count > _MAX_TERMS:
        raise ParseError(f"expansion of {count} terms exceeds the limit "
                         f"{_MAX_TERMS}", pos)


def _power_terms(base: Expr, exponent: int) -> int:
    """A bound on the terms of ``base ** exponent``: C(v + D, D) monomials
    of degree D or less in v atoms, or C(n - 1 + e, e) products of n terms."""
    top = base.degree() * exponent
    return min(math.comb(len(base.atoms()) + top, top),
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
    expression's term map as it is read.  Powers, expansions and
    coefficients are held to the budgets above.
    """

    def __init__(self, text: str, chart=None):
        self.toks = _tokens(text)
        self.at = 0
        self.chart = chart

    def parse(self) -> Expr:
        value = self._expr()
        tok = self.toks[self.at]
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[1])
        return value

    def _expr(self) -> Expr:
        toks = self.toks
        acc: dict[Monomial, GRat] = {}
        sign = 1
        if toks[self.at][0] == "-":
            self.at += 1
            sign = -1
        while True:
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
                e = tok[3]
                if e is None:
                    # A power after a coordinate is part of its token, so
                    # this only refuses a "^" with no exponent.
                    self._power()
                    e = 1
                else:
                    _check_power(1, 1, e, tok[4])
                if e:
                    exps[coord] = exps.get(coord, 0) + e
            elif kind == "n":
                n, q = tok[2], tok[3]
                if q is None:
                    if toks[self.at][0] == "/":
                        raise ParseError("expected a denominator",
                                         toks[self.at + 1][1])
                    q = 1
                elif not q:
                    raise ParseError("zero denominator", tok[4])
                p = self._power()
                if p is not None:
                    g = math.gcd(n, q)
                    n, q = n // g, q // g
                    _check_power(0, max(n.bit_length(), q.bit_length()), p[2], p[3])
                    n, q = n ** p[2], q ** p[2]
                a, b, d = a * n, b * n, d * q
                if (abs(a) | abs(b) | d).bit_length() > _MAX_COEFF_BITS:
                    a, b, d = _fit_coefficient(a, b, d, tok[1])
            elif kind == "i":
                p = self._power()
                e = 1
                if p is not None:
                    e = p[2]
                    _check_power(0, 1, e, p[3])
                for _ in range(e % 4):
                    a, b = -b, a
            elif kind == "(":
                inner = self._expr()
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
                    a, b, d = a * c._a - b * c._b, a * c._b + b * c._a, d * c._d
                    if (abs(a) | abs(b) | d).bit_length() > _MAX_COEFF_BITS:
                        a, b, d = _fit_coefficient(a, b, d, tok[1])
                    for atom, e in m:
                        exps[atom] = exps.get(atom, 0) + e
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
            touched = (mono,) if mono in acc else ()
            _accumulate(acc, ((mono, _grat(a, b, d)),))
        else:
            touched = (_expr({mono: _grat(a, b, d)}) * sums)._terms
            _accumulate(acc, touched.items())
        # Like terms added up, or a product of sums, can outgrow their parts.
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
    leading term, so each monomial's key is computed once.
    """
    if g.is_zero():
        raise ExactDivisionError("division by the zero polynomial")
    if f.is_zero():
        return Expr.zero()
    g_mono, g_coeff = g.leading_term()
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
    ``sum(row[p] * x_p) + rest_n == 0``.  The pivot sequence depends on the
    rows alone, so :meth:`solve` only repeats the elimination's updates of
    the rests and the back-substitution.
    """

    __slots__ = ("width", "free", "_steps", "_pivots", "_unpivoted")

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
        self._steps = steps
        self._pivots = pivots[::-1]
        self._unpivoted = [n for n in range(len(rows)) if n not in used]

    def solve(self, rests: Sequence[Expr], unknowns: Sequence[UnknownId]
              ) -> list[Expr]:
        """The values ``x_p`` for the given rests, one per row.

        ``unknowns`` names the positions in errors: InconsistentSystemError
        (with the row as ``equation_index``) or UnderdeterminedError.
        """
        rests = list(rests)
        for prow, inv, pc, updates in self._steps:
            rp = rests[prow]
            if inv is not None:
                rp = rests[prow] = rp.scale(inv)
            for n, c in updates:
                if pc is not None:
                    rests[n] = pc * rests[n] - c * rp
                elif rp._terms:
                    rests[n] = rests[n] - c * rp
        for n in self._unpivoted:
            if not rests[n].is_zero():
                raise InconsistentSystemError(
                    "no solution", n, f"residual {format_expr(rests[n])} == 0")
        if self.free:
            raise UnderdeterminedError([unknowns[u] for u in self.free])
        values: list = [None] * self.width
        for u, coeffs, pc, prow in self._pivots:
            numer = -rests[prow]
            for v, c in coeffs:
                numer = numer - c * values[v]
            if pc is None:
                values[u] = numer
            else:
                try:
                    values[u] = divide_exact(numer, pc)
                except ExactDivisionError as exc:
                    raise InconsistentSystemError(
                        f"no polynomial solution for {unknowns[u].name}", prow,
                        str(exc)) from exc
        return values


def solve_poly_linear(equations: Sequence[Expr], unknowns: Sequence[UnknownId]
                      ) -> dict[UnknownId, Expr]:
    """Solve a linear system whose unknowns stand for whole polynomials.

    Each equation is linear in the unknowns with polynomial coefficients.
    Fraction-free forward elimination (cross-multiplication, no division)
    keeps the rows polynomial; back-substitution divides exactly, so a unique
    polynomial solution is recovered whenever one exists.  Pivots prefer
    constant coefficients, then lowest degree, for determinism and to limit
    growth.  This is :class:`PolyLinearFactor` used once.
    """
    unknown_list = list(dict.fromkeys(unknowns))
    position = {u: p for p, u in enumerate(unknown_list)}
    rows = []
    rests = []
    for eq in equations:
        coeffs, rest = eq.linear_split(unknown_list)
        rows.append({position[u]: c for u, c in coeffs.items()})
        rests.append(rest)
    values = PolyLinearFactor(rows, len(unknown_list)).solve(rests, unknown_list)
    return dict(zip(unknown_list, values))
