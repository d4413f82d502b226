"""Exact rational arithmetic, univariate polynomials and certified real
root isolation.

Values are exact rationals (``fractions.Fraction``), with no floating
point, so every sign decision is exact.  A ``Poly`` stores integer
numerators, ascending as every coefficient list here is, over one
positive denominator (``coeffs`` is a Fraction view), and everything
computed from it reads those integers: signs at rational points
(``_horner_sign``), the Sturm sequence, a fraction-free pseudo-remainder
sequence (Cohen, GTM 138, 3.1-3.3), and the bisections of root isolation
and refinement.  There is one interval type, ``ScaledInterval`` (integer
endpoints over one positive denominator, not reduced), and a
``RootInterval`` holds one: isolation splits the Cauchy interval on
numerators, a worklist with no depth limit, and ``refine_root`` halves
it over a doubling denominator.  Interval Horner evaluation of integer
coefficients over a ``ScaledInterval`` is ``horner_scaled``.  Division by a monic integer
polynomial is ``divide_monic``; there is no Fraction polynomial division.
Each result is the rational that Fraction arithmetic gives.

Value types across the library are immutable records of one idiom,
``Record``: the fields are named in ``__slots__``, ``__init__`` validates
and sets each one with ``object.__setattr__``, assignment and deletion
raise AttributeError, and a record equals, and hashes like, a record of
its class with equal fields.  Only a record that the benchmark's
workloads compare often spells ``__eq__`` out on its fields, several
times faster than ``Record.__eq__``: ``FieldElement``, with 1,361 calls
in one cli-session pass at seed 7, 22 in involution-search and 24 in
torsion-census.  The next is ``Mat2``, compared through ``Record`` 0, 2
and 0 times; no workload calls any other record's ``__eq__`` or any
``__hash__``, and every record hashes through ``Record.__hash__``.
``typing.NamedTuple`` serves only plain records that no caller adds,
multiplies, iterates or compares with a tuple.  No record is a dataclass, so importing the library loads neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


class NotSquarefree(ValueError):
    """Raised when an operation requires a squarefree polynomial."""


def rational_from_string(s: str) -> Fraction:
    """Parse "p" or "p/q": ASCII digits, a sign only on p, nothing around
    them.  Anything else, a zero denominator included, raises ValueError;
    ``int`` reads the digits, so the int-string limit bounds them."""
    m = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", s) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f'expected a rational string "p" or "p/q", got {s!r:.40}')
    num, den = int(m[1]), int(m[2] or 1)
    if not den:
        raise ValueError(f"zero denominator in {s!r:.40}")
    return Fraction(num, den)


def as_rational(c) -> int | Fraction:
    """An int or a Fraction as it is, a string by ``rational_from_string``;
    anything else, a float included, is ValueError naming it, since a float
    would stand for its binary expansion."""
    return c if isinstance(c, (int, Fraction)) else rational_from_string(c)


def ratio_to_string(a: int, d: int) -> str:
    """a / d in lowest terms as "p/q", for integers a and d > 0."""
    g = math.gcd(a, d)
    return f"{a // g}/{d // g}"


def integer_coords(coords: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(a, d) with coords = a / d for d the least common denominator: gcd 1."""
    d = math.lcm(*(c.denominator for c in coords))
    if d == 1:
        return [c.numerator for c in coords], 1
    return [c.numerator * (d // c.denominator) for c in coords], d


def require_ints(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not an int;
    a bool is not one, though JSON true is a Python int."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def require_json(data, kind: type, shape: str, keys: Sequence[str] = ()):
    """``data``, when it is a JSON value of ``kind`` (dict or list) that holds
    every key of ``keys``; otherwise ValueError naming the expected
    ``shape`` and what was found instead, or the first missing key."""
    if not isinstance(data, kind):
        found = _JSON_KINDS.get(type(data), type(data).__name__)
        raise ValueError(f"expected {shape}, got {found}")
    for key in keys:
        if key not in data:
            raise ValueError(f"expected {shape}, missing key {key!r}")
    return data


class Record:
    """Base of the immutable records (see the module docstring).  Equality
    and hashing use ``_key``, the field values in ``__slots__`` order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ScaledInterval(NamedTuple):
    """The closed interval [lo/den, hi/den]: integer endpoints over one
    positive denominator, not necessarily in lowest terms.  Arithmetic
    stays on integers and gives exactly the endpoints that Fraction
    interval arithmetic gives."""

    lo: int
    hi: int
    den: int

    def fractions(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.lo, self.den), Fraction(self.hi, self.den)

    def width_at_most(self, width: Fraction) -> bool:
        return (self.hi - self.lo) * width.denominator <= width.numerator * self.den

    def plus(self, other: "ScaledInterval") -> "ScaledInterval":
        a, b, d = self
        c, e, f = other
        if d == f:
            return ScaledInterval(a + c, b + e, d)
        g = math.gcd(d, f)
        d, f = d // g, f // g
        return ScaledInterval(a * f + c * d, b * f + e * d, d * f * g)

    def times(self, other: "ScaledInterval") -> "ScaledInterval":
        a, b, d = self
        c, e, f = other
        p = (a * c, a * e, b * c, b * e)
        return ScaledInterval(min(p), max(p), d * f)

    def scale(self, k: int) -> "ScaledInterval":
        """The interval k * [lo, hi] for an integer k."""
        if k >= 0:
            return ScaledInterval(k * self.lo, k * self.hi, self.den)
        return ScaledInterval(k * self.hi, k * self.lo, self.den)

    def divided_by(self, other: "ScaledInterval") -> "ScaledInterval":
        """The interval self / other, for an ``other`` without 0."""
        a, b, d = self
        c, e, f = other
        if c * e <= 0:
            raise ZeroDivisionError("divisor interval contains 0")
        # x/d / (y/f) = x f (c e / y) / (d c e), and c e > 0
        p = (a * f * e, a * f * c, b * f * e, b * f * c)
        return ScaledInterval(min(p), max(p), d * c * e)

    def sqrt(self, w: Fraction) -> "ScaledInterval":
        """Enclosure of sqrt(self), hi > 0, widened by at most 2w, over 2^b."""
        b = math.ceil(1 / w).bit_length()  # 2^-b < w
        scale = 4 ** b
        low = math.isqrt(max(self.lo, 0) * scale // self.den)
        high = math.isqrt(-(-self.hi * scale // self.den)) + 1
        return ScaledInterval(low, high, 2 ** b)


def _horner_sign(cs: Sequence[int], u: int, v: int) -> int:
    """Sign of c(u/v) for integer coefficients ``cs``, ascending, and
    integers u and v > 0, not necessarily coprime: the sign of
    sum cs[j] * u^j * v^(d-j), which is c(u/v) * v^d."""
    if not cs:
        return 0
    acc, vpow = cs[-1], 1
    for c in cs[-2::-1]:
        vpow *= v
        acc = acc * u + c * vpow
    return (acc > 0) - (acc < 0)


def horner_scaled(cs: Sequence[int], den: int, x: ScaledInterval) -> ScaledInterval:
    """Enclosure of c(x) / den under Horner interval arithmetic, for integer
    coefficients ``cs``, ascending, and an integer den > 0, on integers
    over one denominator.  After j steps the accumulator is [lo, hi] /
    (den * x.den^j), so each step multiplies by the numerators of x and
    adds c * x.den^j."""
    if not cs:
        return ScaledInterval(0, 0, 1)
    a, b, d = x
    lo = hi = cs[-1]
    dpow = 1
    for c in cs[-2::-1]:
        dpow *= d
        cd = c * dpow
        p = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(p) + cd, max(p) + cd
    return ScaledInterval(lo, hi, den * dpow)


def divide_monic(a: Sequence, b: Sequence[int]) -> tuple[list, list]:
    """(q, r) with a = q * b + r and deg r < deg b, for coefficient lists
    (ascending) and a monic integer divisor b.  No step divides, so
    integer (or Fraction) coefficients give integer (or Fraction) q and r."""
    d = len(b) - 1
    rem = list(a)
    q = [0] * max(0, len(rem) - d)
    for k in range(len(q) - 1, -1, -1):
        f = q[k] = rem[k + d]
        if f:
            for i, c in enumerate(b):
                rem[k + i] -= f * c
    return q, rem[:d]


class Poly(Record):
    """Univariate polynomial stored like a field element: integer
    numerators ``num``, ascending, over one positive denominator ``den``,
    gcd 1, no trailing zero numerator (zero is ((), 1)).  Immutable; equal
    polynomials have equal (num, den) whatever they were built from.  A
    coefficient is read by ``as_rational``: an int, a Fraction or a
    rational string "p" or "p/q"; anything else, a float included, is
    ValueError."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Fraction | int | str]):
        num, den = integer_coords([as_rational(c) for c in coeffs])
        while num and not num[-1]:
            num.pop()
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    # -- basics ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.num[-1] == self.den

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def sign_num(self, u: int, v: int) -> int:
        """Sign of p(u/v) for integers u and v > 0, not necessarily coprime."""
        return _horner_sign(self.num, u, v)

    # -- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        return [ratio_to_string(a, self.den) for a in self.num]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Poly":
        return Poly([rational_from_string(c) for c in data])


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^(deg a - deg b + 1) times the remainder of a by b over Q,
    for integer lists (ascending) with deg a >= deg b; no step divides."""
    lc, m, db = b[-1], abs(b[-1]), len(b) - 1
    r = list(a)
    for k in range(len(a) - 1, db - 1, -1):  # cancel r[k] against lc
        f = r[k] if lc > 0 else -r[k]
        r[:k + 1] = [m * c for c in r[:k + 1]]
        for i, c in enumerate(b, k - db):
            r[i] -= f * c
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return r


def _sturm_sequence(cs: Sequence[int]) -> list[list[int]]:
    """The Sturm sequence p, p', -rem, ... of the integer polynomial ``cs``
    (ascending), each remainder a pseudo-remainder over its positive
    content: a positive multiple of the Fraction term, with the same signs.
    The last term is gcd(p, p') up to a constant."""
    chain = [list(cs), [j * c for j, c in enumerate(cs) if j]]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    if not chain[-1]:  # the derivative of a constant
        chain.pop()
    return chain


def sign_variations(chain: Sequence[Sequence[int]], u: int, v: int) -> int:
    """Sign changes along a chain of integer polynomials (ascending)
    at u/v, for integers u and v > 0, zeros skipped."""
    signs = [s for s in (_horner_sign(cs, u, v) for cs in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class RootInterval(Record):
    """An isolating interval ``scaled`` for one real root of a squarefree
    polynomial; ``index`` is the ordinal of the root in ascending order."""

    __slots__ = ("polynomial", "scaled", "index")

    def __init__(self, polynomial: Poly, scaled: ScaledInterval, index: int):
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "index", index)

    @property
    def low(self) -> Fraction:
        return Fraction(self.scaled.lo, self.scaled.den)

    @property
    def high(self) -> Fraction:
        return Fraction(self.scaled.hi, self.scaled.den)

    @property
    def width(self) -> Fraction:
        lo, hi, d = self.scaled
        return Fraction(hi - lo, d)


def _nonroot_point(p: Poly, lo: int, hi: int, d: int) -> tuple[int, int]:
    """(u, v) with u/v in (lo/d, hi/d) not a root of p; tries the midpoint
    first, then 1/3, 2/3, 1/5, ... of the span.  v is a multiple of d."""
    cs = p.num
    for num, den in ((1, 2), (1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (4, 5),
                     (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)):
        u, v = lo * den + (hi - lo) * num, d * den
        if _horner_sign(cs, u, v) != 0:
            return u, v
    raise RuntimeError("could not find a non-root sample point")  # p has finitely many roots


def isolate_real_roots(p: Poly) -> list[RootInterval]:
    """All real roots of p, ascending, in pairwise disjoint isolating
    intervals with rational endpoints.

    Raises NotSquarefree when p has a repeated root.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    cs = p.num
    chain = _sturm_sequence(cs)
    if len(chain[-1]) != 1:  # the last term is gcd(p, p') up to a constant
        raise NotSquarefree("polynomial has a repeated root")
    if p.degree == 0:
        return []

    # the Cauchy bound B = 1 + max |c_i / c_d|: every real root lies
    # strictly inside (-B, B), so neither endpoint is a root
    lc = abs(cs[-1])
    b = lc + max(abs(c) for c in cs[:-1])
    intervals: list[RootInterval] = []
    todo = [(-b, b, lc, sign_variations(chain, -b, lc), sign_variations(chain, b, lc))]
    while todo:  # left halves first, so the intervals come out ascending
        lo, hi, d, vlo, vhi = todo.pop()
        count = vlo - vhi
        if count == 1:
            intervals.append(RootInterval(p, ScaledInterval(lo, hi, d), len(intervals)))
        elif count > 1:
            m, e = _nonroot_point(p, lo, hi, d)
            k = e // d
            vm = sign_variations(chain, m, e)
            todo.append((m, hi * k, e, vm, vhi))
            todo.append((lo * k, m, e, vlo, vm))
    return intervals


def refine_root(r: RootInterval, width: Fraction) -> RootInterval:
    """Shrink the isolating interval to width <= ``width`` by bisection.

    The contained root and its index never change.  An exact hit at a
    midpoint yields the degenerate interval [m, m].  Bisection runs on
    the numerators over one denominator, which doubles at every step.
    """
    if not isinstance(width, Fraction):
        width = Fraction(width)
    wn, wd = width.numerator, width.denominator
    if wn <= 0:
        raise ValueError("width must be positive")
    lo, hi, d = r.scaled
    if (hi - lo) * wd <= wn * d:
        return r
    p = r.polynomial
    cs = p.num
    slo = _horner_sign(cs, lo, d)
    if slo == 0:
        return RootInterval(p, ScaledInterval(lo, lo, d), r.index)
    if _horner_sign(cs, hi, d) == 0:
        return RootInterval(p, ScaledInterval(hi, hi, d), r.index)
    while (hi - lo) * wd > wn * d:
        m, d = lo + hi, 2 * d  # the midpoint m/d
        sm = _horner_sign(cs, m, d)
        if sm == 0:
            return RootInterval(p, ScaledInterval(m, m, d), r.index)
        if sm == slo:
            lo, hi = m, 2 * hi
        else:
            lo, hi = 2 * lo, m
    return RootInterval(p, ScaledInterval(lo, hi, d), r.index)
