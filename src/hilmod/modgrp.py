"""2x2 matrices over O_k, PSL canonical representatives, boundary fixed
points, and the census of torsion orders."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exactnum import Poly
from .numfield import (FieldElement, NumberField, _sqrt_interval, contains_root_of,
                       has_square_root)


class NotUnimodular(ValueError):
    pass


class IdentityElement(ValueError):
    pass


@dataclass(frozen=True)
class Mat2:
    """Row-major [[a, b], [c, d]] over one number field."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement

    def __post_init__(self):
        f = self.a.field
        if any(x.field is not f for x in (self.b, self.c, self.d)):
            raise ValueError("matrix entries belong to different fields")

    @property
    def field(self) -> NumberField:
        return self.a.field

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def identity(field: NumberField) -> "Mat2":
        one, zero = field.one(), field.zero()
        return Mat2(one, zero, zero, one)

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def trace(self) -> FieldElement:
        return self.a + self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def inv(self) -> "Mat2":
        if self.det() != self.field.one():
            raise NotUnimodular("inverse requires determinant 1")
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __pow__(self, e: int) -> "Mat2":
        if e < 0:
            return self.inv() ** (-e)
        acc, base = Mat2.identity(self.field), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_identity(self) -> bool:
        return self == Mat2.identity(self.field)

    def height(self) -> int:
        return max(x.height() for x in self.entries)

    def to_json(self) -> list[list[list[str]]]:
        return [[self.a.to_json(), self.b.to_json()],
                [self.c.to_json(), self.d.to_json()]]

    @staticmethod
    def from_json(field: NumberField, data) -> "Mat2":
        from .numfield import element_from_json
        (a, b), (c, d) = data
        return Mat2(element_from_json(field, a), element_from_json(field, b),
                    element_from_json(field, c), element_from_json(field, d))


def check_sl(m: Mat2) -> bool:
    """True iff det = 1 exactly and all entries are in O_k."""
    return (all(x.is_integral() for x in m.entries)
            and m.det() == m.field.one())


@dataclass(frozen=True)
class PslElem:
    """Canonical representative of a class {A, -A} in PSL_2(O_k).

    The sign is chosen so the first nonzero entry in scan order (a,b,c,d)
    is positive under the smallest embedding; use psl_normalize to build.
    """

    rep: Mat2

    @property
    def field(self) -> NumberField:
        return self.rep.field

    def __mul__(self, other: "PslElem") -> "PslElem":
        return psl_normalize(self.rep * other.rep)

    def inv(self) -> "PslElem":
        return psl_normalize(self.rep.inv())

    def __pow__(self, e: int) -> "PslElem":
        return psl_normalize(self.rep ** e)

    def is_identity(self) -> bool:
        return self.rep.is_identity()

    def same_class(self, m: Mat2) -> bool:
        return self.rep == m or self.rep == -m

    def trace(self) -> FieldElement:
        return self.rep.trace()

    def to_json(self):
        return self.rep.to_json()


def psl_normalize(m: Mat2) -> PslElem:
    if not check_sl(m):
        raise NotUnimodular("not an element of SL_2(O_k)")
    for x in m.entries:
        if not x.is_zero:
            if x.embed_sign(0) < 0:
                m = -m
            break
    return PslElem(m)


# -- boundary fixed points ----------------------------------------------

Infinity = "infinity"


@dataclass(frozen=True)
class BoundaryPoint:
    """A fixed point on the boundary R U {inf} of one embedded component.

    ``exact`` is set when the point is sigma_i of an element of k (the
    fixed-point quadratic splits over k); otherwise ``enclosure`` is a
    rational interval certified to contain the point."""

    kind: str  # "infinity" | "exact" | "enclosed"
    exact: Optional[FieldElement] = None
    enclosure: Optional[tuple[Fraction, Fraction]] = None


@dataclass(frozen=True)
class FixedPointData:
    """Per-embedding boundary fixed points of a nonidentity PSL element.

    ``quadratic`` is c x^2 + (d-a) x - b over k; component i lists the
    boundary points of the i-th embedded matrix (empty for elliptic)."""

    quadratic: tuple[FieldElement, FieldElement, FieldElement]
    per_embedding: tuple[tuple[BoundaryPoint, ...], ...]

    def boundary_count(self, i: int) -> int:
        return len(self.per_embedding[i])


def fixed_points(p: PslElem, enclosure_width: Fraction = Fraction(1, 1024)) -> FixedPointData:
    """Solve sigma_i(c) x^2 + sigma_i(d-a) x - sigma_i(b) = 0 per embedding."""
    if p.is_identity():
        raise IdentityElement("the identity fixes everything")
    m = p.rep
    field = m.field
    n = field.degree
    qa, qb, qc = m.c, m.d - m.a, -m.b  # quadratic coefficients, descending
    components: list[tuple[BoundaryPoint, ...]] = []

    exact_roots: Optional[list[FieldElement]] = None
    disc = qb * qb - qc * qa * 4
    if not qa.is_zero:
        sq = has_square_root(disc)
        if sq.value is not None:
            half = (qa * 2).inverse()
            exact_roots = [(-qb + sq.value) * half, (-qb - sq.value) * half]

    for i in range(n):
        pts: list[BoundaryPoint] = []
        if qa.is_zero:
            pts.append(BoundaryPoint(Infinity))
            if not qb.is_zero:
                pts.append(BoundaryPoint("exact", exact=-qc / qb))
        else:
            ds = disc.embed_sign(i)
            if ds > 0:
                if exact_roots is not None:
                    pts = [BoundaryPoint("exact", exact=r) for r in exact_roots]
                else:
                    pts = [BoundaryPoint("enclosed", enclosure=e)
                           for e in _enclose_quadratic_roots(qa, qb, qc, i, enclosure_width)]
            elif ds == 0:
                pts = [BoundaryPoint("exact", exact=-qb / (qa * 2))]
            # ds < 0: elliptic component, no boundary fixed point
        components.append(tuple(pts))
    return FixedPointData((qa, qb, qc), tuple(components))


def _enclose_quadratic_roots(qa: FieldElement, qb: FieldElement, qc: FieldElement,
                             i: int, width: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Certified enclosures of the two real roots of the embedded quadratic,
    each of width <= ``width``.  Every enclosure, the square root's too,
    shrinks with w, so the loop ends for any positive width."""
    w = width / 16
    while True:
        a = qa.embed_scaled(i, w)
        b = qb.embed_scaled(i, w)
        c = qc.embed_scaled(i, w)
        disc = b.times(b).plus(a.times(c).scale(-4))
        den = a.scale(2)
        if disc.lo > 0 and (den.lo > 0 or den.hi < 0):
            root = _sqrt_interval(disc, w)
            minus_b = b.scale(-1)
            roots = [minus_b.plus(sq).divided_by(den) for sq in (root, root.scale(-1))]
            if all(r.width_at_most(width) for r in roots):
                return sorted(r.fractions() for r in roots)
        w /= 4


# -- torsion orders -----------------------------------------------------


def _divide_monic(a: list[int], b: list[int]) -> list[int]:
    """Quotient of integer coefficient lists (ascending) by a monic divisor
    b that divides a exactly."""
    rem = list(a)
    d = len(b) - 1
    q = [0] * (len(a) - d)
    for k in range(len(q) - 1, -1, -1):
        f = q[k] = rem[k + d]
        if f:
            for i, c in enumerate(b):
                rem[k + i] -= f * c
    assert not any(rem[:d]), "inexact division"
    return q


def _cyclotomic_coeffs(m: int) -> list[int]:
    """Coefficients of Phi_m, ascending: Phi_d for each d | m in turn, as
    x^d - 1 divided by Phi_e for the proper divisors e of d."""
    phis: dict[int, list[int]] = {}
    for d in range(1, m + 1):
        if m % d == 0:
            p = [-1] + [0] * (d - 1) + [1]  # x^d - 1
            for e, phi in phis.items():
                if d % e == 0:
                    p = _divide_monic(p, phi)
            phis[d] = p
    return phis[m]


def cyclotomic(m: int) -> Poly:
    """The m-th cyclotomic polynomial, by exact division on integers."""
    return Poly(_cyclotomic_coeffs(m))


def cos_trace_min_poly(m: int) -> Poly:
    """Minimal polynomial over Q of 2*cos(2*pi/m)."""
    if m == 1:
        return Poly([-2, 1])
    if m == 2:
        return Poly([2, 1])
    residual = _cyclotomic_coeffs(m)
    s = (len(residual) - 1) // 2
    # Phi_m(z) = z^s * psi(z + 1/z); peel coefficients from the top, where
    # z^(s-j) * (z^2 + 1)^j has coefficient C(j, t) at degree s - j + 2t
    coeffs = [0] * (s + 1)
    for j in range(s, -1, -1):
        c = coeffs[j] = residual[s + j]
        if c:
            for t in range(j + 1):
                residual[s - j + 2 * t] -= c * math.comb(j, t)
    assert not any(residual), "cyclotomic polynomial is not palindromic?"
    return Poly(coeffs)


def element_order(m: Mat2, bound: int) -> Optional[int]:
    """Order of m in SL_2, from the powers m, m^2, ..., m^bound: the first
    power that is +-I is m^e with e the order in PSL_2, and the SL_2 order
    is e if m^e = I, 2e if m^e = -I (which may exceed ``bound``).  None if
    no power up to m^bound is +-I."""
    one = Mat2.identity(m.field)
    minus_one = -one
    acc = m
    for e in range(1, bound + 1):
        if acc == one:
            return e
        if acc == minus_one:
            return 2 * e
        acc = acc * m
    return None


def _euler_phi(m: int) -> int:
    out, k = m, 2
    mm = m
    while k * k <= mm:
        if mm % k == 0:
            while mm % k == 0:
                mm //= k
            out -= out // k
        k += 1
    if mm > 1:
        out -= out // mm
    return out


def default_order_bound(n: int) -> int:
    """Largest m with phi(m) <= 2n; beyond it no trace 2cos(2*pi/m) can
    live in a degree-n field (SL order is at most twice the PSL order)."""
    best, m = 1, 1
    # phi(m) >= sqrt(m/2), so m <= 2*(2n)^2 suffices
    while m <= 2 * (2 * n) ** 2 + 2:
        if _euler_phi(m) <= 2 * n:
            best = m
        m += 1
    return best


def torsion_orders(field: NumberField, m_max: int) -> list[tuple[int, Mat2]]:
    """All m <= m_max arising as orders of elements of SL_2(O_k), each with
    a verified witness: identity, -identity, or the companion matrix
    [[0, -1], [1, t]] for t = 2cos(2*pi/m) in O_k."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    out: list[tuple[int, Mat2]] = []
    one = Mat2.identity(field)
    # every m above default_order_bound has phi(m)/2 > n, so fails the test below
    for m in range(1, min(m_max, default_order_bound(field.degree)) + 1):
        if m == 1:
            out.append((1, one))
            continue
        if m == 2:
            wit = -one
            assert element_order(wit, 2) == 2
            out.append((2, wit))
            continue
        if field.degree % (_euler_phi(m) // 2):
            continue  # Q(2cos(2*pi/m)) has degree phi(m)/2, which must divide n
        res = contains_root_of(field, cos_trace_min_poly(m))
        if res.value is None or not res.value.is_integral():
            continue
        t = res.value
        wit = Mat2(field.zero(), -field.one(), field.one(), t)
        if element_order(wit, m) == m:
            out.append((m, wit))
    return out
