"""Fraction references for the tests: polynomial ring operations and
Euclidean division (``RefPoly``), the Fraction Sturm chain with the root
isolation built on it (Cauchy bound, split points and signs in
Fractions), Gauss-Jordan matrix inversion, and builders of the integer
intervals from Fraction endpoints (``scaled_of``, ``root_interval``).
Two views the library has no use for: a field element's power-basis
coordinates in Fractions (``power_coords``) and whether a K-theory
expression has no terms (``is_empty``).  The element-literal parser that
sums each power's coefficient in Fractions (``ref_parse_element``).  The
lattice search that builds each assignment's enclosure of D c from the
powers theta_i^l sigma_i(y) and the adjugate sums, where the library sums
parts built once per width (``ref_lattice_root``).

The library computes all of these on integers (pseudo-remainders, exact
division by a monic divisor, the fraction-free solver); these are the
plain Fraction forms it must agree with, and builders for test inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from hilmod.cli import ParseError, _TERM, _digit_limit, _generator_power, _too_large
from hilmod.exactnum import (NotSquarefree, Poly, RootInterval, ScaledInterval, integer_coords,
                             refine_root)
from hilmod.numfield import FieldElement, NumberField


class RefPoly(Poly):
    """A ``Poly`` with ring operations, evaluation and Euclidean
    division over Q.  Results are RefPoly too, and equal any ``Poly``
    with the same coefficients."""

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = Poly.__hash__

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Fraction view, computed once: every operation here reads it."""
        return Poly.coeffs.fget(self)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @staticmethod
    def zero() -> "RefPoly":
        return RefPoly([])

    @staticmethod
    def constant(c) -> "RefPoly":
        return RefPoly([c])

    @staticmethod
    def x() -> "RefPoly":
        return RefPoly([0, 1])

    # -- ring operations ------------------------------------------------

    def __add__(self, other: Poly) -> "RefPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RefPoly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "RefPoly":
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other: Poly) -> "RefPoly":
        return self + (-RefPoly(other.coeffs))

    def __mul__(self, other: Poly) -> "RefPoly":
        if self.is_zero or other.is_zero:
            return RefPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def __pow__(self, e: int) -> "RefPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        acc, base = RefPoly.constant(1), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def scale(self, c) -> "RefPoly":
        c = Fraction(c)
        return RefPoly([a * c for a in self.coeffs])

    def monic(self) -> "RefPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def divmod(self, other: Poly) -> tuple["RefPoly", "RefPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        lc = other.coeffs[-1]
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
        return RefPoly(q), RefPoly(rem)

    def __mod__(self, other: Poly) -> "RefPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "RefPoly":
        return RefPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: Poly) -> "RefPoly":
        a, b = self, RefPoly(other.coeffs)
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

    # -- squarefree / Sturm ---------------------------------------------

    def is_squarefree(self) -> bool:
        if self.is_zero:
            return False
        return self.gcd(self.derivative()).degree <= 0

    def squarefree_part(self) -> "RefPoly":
        if self.is_zero:
            raise ValueError("zero polynomial")
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.divmod(g)[0]

    def sturm_chain(self) -> list["RefPoly"]:
        chain = [self, self.derivative()]
        while not chain[-1].is_zero and chain[-1].degree > 0:
            chain.append(-(chain[-2] % chain[-1]))
        if chain[-1].is_zero:
            chain.pop()
        return chain

    def resultant(self, other: Poly) -> Fraction:
        """Resultant via the Euclidean algorithm."""
        a, b = self, RefPoly(other.coeffs)
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


def scaled_of(lo: Fraction, hi: Fraction) -> ScaledInterval:
    """[lo, hi] over the lcm of the two denominators."""
    lo, hi = Fraction(lo), Fraction(hi)
    d = math.lcm(lo.denominator, hi.denominator)
    return ScaledInterval(lo.numerator * (d // lo.denominator),
                          hi.numerator * (d // hi.denominator), d)


def root_interval(p: Poly, lo: Fraction, hi: Fraction, index: int) -> RootInterval:
    return RootInterval(p, scaled_of(lo, hi), index)


def ref_sign(p: Poly, x: Fraction) -> int:
    v = RefPoly(p.coeffs)(x)
    return (v > 0) - (v < 0)


def ref_cauchy_bound(p: Poly) -> Fraction:
    """1 + max |a_i / a_n|; every real root lies strictly inside (-B, B)."""
    lc = p.coeffs[-1]
    return 1 + max((abs(c / lc) for c in p.coeffs[:-1]), default=Fraction(0))


REF_SPLITS = ((1, 2), (1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (4, 5),
              (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7))


def ref_nonroot_point(p: Poly, a: Fraction, b: Fraction) -> Fraction:
    """Point in (a, b) that is not a root of p; tries the midpoint first."""
    for num, den in REF_SPLITS:
        m = a + (b - a) * Fraction(num, den)
        if ref_sign(p, m) != 0:
            return m
    raise RuntimeError("could not find a non-root sample point")


def ref_sign_variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = [s for s in (ref_sign(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ref_isolate_real_roots(p: Poly) -> list[RootInterval]:
    """``isolate_real_roots`` on the Fraction Sturm chain, recursively."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    chain = RefPoly(p.coeffs).sturm_chain()
    if chain[-1].degree != 0:  # the last term is gcd(p, p') up to a constant
        raise NotSquarefree("polynomial has a repeated root")
    if p.degree == 0:
        return []

    bound = ref_cauchy_bound(p)
    lo, hi = -bound, bound
    while ref_sign(p, lo) == 0:
        lo -= 1
    while ref_sign(p, hi) == 0:
        hi += 1

    intervals: list[tuple[Fraction, Fraction]] = []

    def split(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        count = va - vb
        if count == 0:
            return
        if count == 1:
            intervals.append((a, b))
            return
        m = ref_nonroot_point(p, a, b)
        vm = ref_sign_variations(chain, m)
        split(a, m, va, vm)
        split(m, b, vm, vb)

    split(lo, hi, ref_sign_variations(chain, lo), ref_sign_variations(chain, hi))
    intervals.sort(key=lambda ab: ab[0])
    return [root_interval(p, a, b, i) for i, (a, b) in enumerate(intervals)]


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                g = aug[r][col]
                aug[r] = [x - g * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def power_coords(x) -> list[Fraction]:
    """The power-basis coordinates of a field element, ascending, as
    Fractions of the library's integer ones (``FieldElement._power_ints``)."""
    p, d = x._power_ints()
    return [Fraction(c, d) for c in p]


def is_empty(expr) -> bool:
    """Whether a ``KExpression`` has no terms."""
    return not expr.terms


def ref_parse_element(text: str, field):
    """``cli.parse_element`` with each power's coefficient summed as a
    Fraction; the powers below the degree go to ``from_power`` as integer
    numerators over their least common denominator (``integer_coords``).
    The same grammar, limits, errors and positions."""
    limit = _digit_limit()
    power: dict[int, Fraction] = {}
    where: dict[int, int] = {}  # exponent: position of its first term
    pos = 0
    while pos < len(text) or not power:  # an empty text still reads one term
        m = _TERM.match(text, pos)
        if pos and not m["signs"] and m.end() > pos:
            raise ParseError("terms must be separated by '+' or '-'", pos)
        if m["star"] and not m["num"]:
            raise ParseError("unexpected '*'", m.start("star"))
        if not (m["num"] or m["gen"]):
            if m.end() < len(text):
                raise ParseError(f"unexpected character {text[m.end()]!r}", m.end())
            if m["signs"]:
                raise ParseError("trailing operator", m.end("signs") - 1)
            raise ParseError("empty element literal", 0)
        start = m.start("num" if m["num"] else "gen")
        if m["star"] and not m["gen"]:
            raise ParseError("'*' must be followed by the generator", start)
        for digits, at in ((m["num"], "num"), (m["den"], "num"), (m["exp"], "gen")):
            if digits and len(digits) > limit:  # checked before int() reads them
                raise ParseError(f"number of more than {limit} digits", m.start(at))
        if m["den"] and not int(m["den"]):
            raise ParseError("zero denominator", start)
        coeff = Fraction(int(m["num"] or 1), int(m["den"] or 1))
        exp = int(m["exp"] or 1) if m["gen"] else 0
        power[exp] = power.get(exp, Fraction(0)) + (-coeff if m["signs"].count("-") % 2 else coeff)
        where.setdefault(exp, start)
        pos = m.end()
    n = field.degree
    x = field.from_power(*integer_coords([power.get(e, Fraction(0)) for e in range(n)]))
    for e, c in power.items():
        if e >= n:
            x = x + _generator_power(field, e, 2 * limit, where[e]) * c
    if _too_large(x, limit):
        raise ParseError(f"value has a coordinate of more than {limit} digits", 0)
    return x


def ref_lattice_root(field: NumberField, enclose, assignments, verify) -> Optional[FieldElement]:
    """The first verified algebraic integer y in k whose embeddings follow
    one of the ``assignments``; None certifies that there is none.

    ``enclose(w, thetas)[i]`` lists enclosures (``ScaledInterval``) of the
    values allowed at embedding i, shrinking with w, for ``thetas[i]`` its
    root refined to width <= w; an assignment picks one per embedding.
    The power-basis coordinates c of y lie in (1/D)Z^n, and D c = A
    (Tr(theta^l y))_l (see ``NumberField._trace_form``).  Enclosures of
    Tr(theta^l y) shrink the intervals around D c until one holds no
    integer (no such y) or each pins exactly one, the only possible
    candidate, verified exactly.  Everything runs on integers; the width w
    is 1 / wden.  The theta_i are refined, and enclose(w, thetas) called,
    only for a w finer than any before, and both serve every assignment.
    """
    adj, den = field._trace_form
    n = field.degree
    zero = ScaledInterval(0, 0, 1)
    thetas = list(field.root_intervals)
    finest = 0  # thetas have width at most 1 / finest, and allowed is over them
    for assign in assignments:
        wden = 4 * den
        while True:
            if wden > finest:  # else thetas are narrower than 1 / wden already
                w = Fraction(1, wden)
                thetas = [refine_root(r, w) for r in thetas]
                finest, allowed = wden, enclose(w, thetas)
            u = [zero] * n  # u_l encloses Tr(theta^l y)
            for i, j in enumerate(assign):
                theta = thetas[i].scaled
                power = allowed[i][j]  # theta_i^l * sigma_i(y), l = 0, 1, ...
                for l in range(n):
                    u[l] = u[l].plus(power)
                    power = power.times(theta)
            coords = []  # enclosures of D c_k
            for row in adj:
                acc = zero
                for x, ul in zip(row, u):
                    acc = acc.plus(ul.scale(x))
                coords.append(acc)
            pins = [(-(-lo // d), hi // d) for lo, hi, d in coords]
            if any(a > b for a, b in pins):
                break
            if all(a == b for a, b in pins):
                y = field.from_power([a for a, _ in pins], den)
                if verify(y):
                    return y
                break
            widest = max(-(-2 * (hi - lo) // d) for lo, hi, d in coords)  # ceil(2 D width)
            wden *= 2 ** max(1, widest.bit_length())
    return None
