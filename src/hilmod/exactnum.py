"""Exact rational arithmetic, univariate polynomials and certified real
root isolation.

Values are exact rationals (``fractions.Fraction``); there is no floating
point anywhere, so every sign decision is exact.  Root isolation uses
Sturm sequences with bisection, which is more than fast enough for the
small degrees (<= 8 or so) this library deals with.  The inner loops run
on integers: the sign of a polynomial at a rational point
(``Poly.sign_at``), bisection in ``refine_root``, and interval Horner
evaluation (``Poly.eval_scaled``) over a ``ScaledInterval``, integer
endpoints over one positive denominator.  Each result is the same
rational that Fraction arithmetic gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

Rational = Fraction


class NotSquarefree(ValueError):
    """Raised when an operation requires a squarefree polynomial."""


def rational_from_string(s: str) -> Fraction:
    """Parse "p" or "p/q"; anything else, a zero denominator included,
    raises ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def rational_to_string(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


class ScaledInterval(NamedTuple):
    """The closed interval [lo/den, hi/den]: integer endpoints over one
    positive denominator, not necessarily in lowest terms.  Arithmetic
    stays on integers and gives exactly the endpoints that Fraction
    interval arithmetic gives."""

    lo: int
    hi: int
    den: int

    @staticmethod
    def of(lo: Fraction, hi: Fraction) -> "ScaledInterval":
        d = math.lcm(lo.denominator, hi.denominator)
        return ScaledInterval(lo.numerator * (d // lo.denominator),
                              hi.numerator * (d // hi.denominator), d)

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


class Poly:
    """Univariate polynomial with Fraction coefficients, ascending degree.

    Immutable; trailing zero coefficients are never stored, so the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs", "_integer_coeffs")

    def __init__(self, coeffs: Iterable[Fraction | int | str]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Poly is immutable")

    # -- basics ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    @staticmethod
    def zero() -> "Poly":
        return Poly([])

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        acc, base = Poly.constant(1), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly([a * c for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return Poly(q), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    # -- evaluation -----------------------------------------------------

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @property
    def integer_coeffs(self) -> tuple[int, tuple[int, ...]]:
        """(L, cs): L the lcm of the coefficient denominators and cs the
        integer coefficients of L * p, leading first.  Computed once."""
        try:
            return self._integer_coeffs
        except AttributeError:
            lcm = math.lcm(*(c.denominator for c in self.coeffs))
            cs = tuple(c.numerator * (lcm // c.denominator) for c in reversed(self.coeffs))
            object.__setattr__(self, "_integer_coeffs", (lcm, cs))
            return lcm, cs

    def sign_at(self, x: Fraction | int) -> int:
        """Sign of p(x), from integers only (see ``sign_num``)."""
        return self.sign_num(x.numerator, x.denominator)

    def sign_num(self, u: int, v: int) -> int:
        """Sign of p(u/v) for integers u and v > 0, not necessarily
        coprime: the sign of sum c_i*L * u^i * v^(d-i), with L the lcm of
        the coefficient denominators (that sum is p(u/v) * L * v^d)."""
        cs = self.integer_coeffs[1]
        if not cs:
            return 0
        acc, vpow = cs[0], 1
        for c in cs[1:]:
            vpow *= v
            acc = acc * u + c * vpow
        return (acc > 0) - (acc < 0)

    def eval_scaled(self, x: ScaledInterval) -> ScaledInterval:
        """Enclosure of the image of x under Horner interval arithmetic, on
        integers over one denominator.  After j steps the accumulator is
        [lo, hi] / (L * den^j), so each step multiplies by the numerators
        of x and adds c * den^j."""
        lcm, cs = self.integer_coeffs
        if not cs:
            return ScaledInterval(0, 0, 1)
        a, b, d = x
        lo = hi = cs[0]
        dpow = 1
        for c in cs[1:]:
            dpow *= d
            cd = c * dpow
            p = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(p) + cd, max(p) + cd
        return ScaledInterval(lo, hi, lcm * dpow)

    # -- squarefree / Sturm ---------------------------------------------

    def is_squarefree(self) -> bool:
        if self.is_zero:
            return False
        return self.gcd(self.derivative()).degree <= 0

    def squarefree_part(self) -> "Poly":
        if self.is_zero:
            raise ValueError("zero polynomial")
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.divmod(g)[0]

    def sturm_chain(self) -> list["Poly"]:
        chain = [self, self.derivative()]
        while not chain[-1].is_zero and chain[-1].degree > 0:
            chain.append(-(chain[-2] % chain[-1]))
        if chain[-1].is_zero:
            chain.pop()
        return chain

    def cauchy_bound(self) -> Fraction:
        """1 + max |a_i / a_n|; every real root lies strictly inside (-B, B)."""
        lc = self.leading
        m = max((abs(c / lc) for c in self.coeffs[:-1]), default=Fraction(0))
        return 1 + m

    def resultant(self, other: "Poly") -> Fraction:
        """Resultant via the Euclidean algorithm."""
        a, b = self, other
        if a.is_zero or b.is_zero:
            return Fraction(0)
        res = Fraction(1)
        while b.degree > 0:
            r = a % b
            if r.is_zero:
                return Fraction(0)
            res *= Fraction(-1) ** (a.degree * b.degree) * b.leading ** (a.degree - r.degree)
            a, b = b, r
        return res * b.coeffs[0] ** a.degree

    def discriminant(self) -> Fraction:
        n = self.degree
        if n < 1:
            raise ValueError("discriminant needs degree >= 1")
        sgn = Fraction(-1) ** (n * (n - 1) // 2)
        return sgn * self.resultant(self.derivative()) / self.leading

    # -- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        return [rational_to_string(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Poly":
        return Poly([rational_from_string(c) for c in data])


def sign_variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = [s for s in (p.sign_at(x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class RootInterval:
    """An isolating interval [low, high] for one real root of a squarefree
    polynomial; ``index`` is the ordinal of the root in ascending order."""

    polynomial: Poly
    low: Fraction
    high: Fraction
    index: int

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    @property
    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2

    @property
    def is_exact(self) -> bool:
        return self.low == self.high

    @cached_property
    def scaled(self) -> ScaledInterval:
        return ScaledInterval.of(self.low, self.high)


def _nonroot_point(p: Poly, a: Fraction, b: Fraction) -> Fraction:
    """Point in (a, b) that is not a root of p; tries the midpoint first."""
    for num, den in ((1, 2), (1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (4, 5),
                     (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)):
        m = a + (b - a) * Fraction(num, den)
        if p.sign_at(m) != 0:
            return m
    raise RuntimeError("could not find a non-root sample point")  # p has finitely many roots


def isolate_real_roots(p: Poly) -> list[RootInterval]:
    """All real roots of p, ascending, in pairwise disjoint isolating
    intervals with rational endpoints.

    Raises NotSquarefree when p has a repeated root.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    chain = p.sturm_chain()
    if chain[-1].degree != 0:  # the last term is gcd(p, p') up to a constant
        raise NotSquarefree("polynomial has a repeated root")
    if p.degree == 0:
        return []

    bound = p.cauchy_bound()
    lo, hi = -bound, bound
    # Cauchy bound is strict, but be safe about endpoint roots anyway.
    while p.sign_at(lo) == 0:
        lo -= 1
    while p.sign_at(hi) == 0:
        hi += 1

    intervals: list[tuple[Fraction, Fraction]] = []

    def split(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        count = va - vb
        if count == 0:
            return
        if count == 1:
            intervals.append((a, b))
            return
        m = _nonroot_point(p, a, b)
        vm = sign_variations(chain, m)
        split(a, m, va, vm)
        split(m, b, vm, vb)

    split(lo, hi, sign_variations(chain, lo), sign_variations(chain, hi))
    intervals.sort(key=lambda ab: ab[0])
    return [RootInterval(p, a, b, i) for i, (a, b) in enumerate(intervals)]


def refine_root(r: RootInterval, width: Fraction) -> RootInterval:
    """Shrink the isolating interval to width <= ``width`` by bisection.

    The contained root and its index never change.  An exact hit at a
    midpoint yields the degenerate interval [m, m].  Bisection runs on
    the numerators over one denominator, which doubles at every step.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if r.scaled.width_at_most(width):
        return r
    p = r.polynomial
    lo, hi, d = r.scaled
    slo = p.sign_num(lo, d)
    if slo == 0:
        return RootInterval(p, r.low, r.low, r.index)
    if p.sign_num(hi, d) == 0:
        return RootInterval(p, r.high, r.high, r.index)
    wn, wd = width.numerator, width.denominator
    while (hi - lo) * wd > wn * d:
        m, d = lo + hi, 2 * d  # the midpoint m/d
        sm = p.sign_num(m, d)
        if sm == 0:
            return RootInterval(p, Fraction(m, d), Fraction(m, d), r.index)
        if sm == slo:
            lo, hi = m, 2 * hi
        else:
            lo, hi = 2 * lo, m
    return RootInterval(p, Fraction(lo, d), Fraction(hi, d), r.index)
