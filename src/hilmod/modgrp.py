"""2x2 matrices over O_k, PSL canonical representatives, boundary fixed
points, and the census of torsion orders."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactnum import Poly, Record, divide_monic, refine_root
from .numfield import FieldElement, NumberField, contains_root_of, has_square_root


class NotUnimodular(ValueError):
    pass


class IdentityElement(ValueError):
    pass


class Mat2(Record):
    """Row-major [[a, b], [c, d]] over one number field."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement):
        f = a.field
        if b.field is not f or c.field is not f or d.field is not f:
            raise ValueError("matrix entries belong to different fields")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

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
        if not isinstance(other, Mat2):
            return NotImplemented
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

    def is_identity(self) -> bool:
        return self.b.is_zero and self.c.is_zero and self.a == self.field.one() == self.d

    def to_json(self) -> list[list[list[str]]]:
        return [[self.a.to_json(), self.b.to_json()],
                [self.c.to_json(), self.d.to_json()]]


def check_sl(m: Mat2) -> bool:
    """True iff det = 1 exactly and all entries are in O_k."""
    return (all(x.is_integral() for x in m.entries)
            and m.det() == m.field.one())


class PslElem(Record):
    """Canonical representative of a class {A, -A} in PSL_2(O_k).

    The sign is chosen so the first nonzero entry in scan order (a,b,c,d)
    is positive under the smallest embedding; use psl_normalize to build.
    Products and inverses are taken on ``rep`` and normalized again.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: Mat2):
        object.__setattr__(self, "rep", rep)

    @property
    def field(self) -> NumberField:
        return self.rep.field

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


class BoundaryPoint(NamedTuple):
    """A fixed point on the boundary R U {inf} of one embedded component.

    ``exact`` is set when the point is sigma_i of an element of k (the
    fixed-point quadratic splits over k); otherwise ``enclosure`` is a
    rational interval certified to contain the point."""

    kind: str  # "infinity" | "exact" | "enclosed"
    exact: Optional[FieldElement] = None
    enclosure: Optional[tuple[Fraction, Fraction]] = None


class FixedPointData(NamedTuple):
    """Per-embedding boundary fixed points of a nonidentity PSL element.

    ``quadratic`` is c x^2 + (d-a) x - b over k; component i lists the
    boundary points of the i-th embedded matrix (empty for elliptic)."""

    quadratic: tuple[FieldElement, FieldElement, FieldElement]
    per_embedding: tuple[tuple[BoundaryPoint, ...], ...]


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
    disc = disc_from_trace(m.trace())  # qb^2 - 4 qa qc, as det m = 1
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
    each of width <= ``width``, over one local root refined once a round.
    Every enclosure, the square root's too, shrinks with w, so the loop
    ends for any positive width."""
    w = width / 16
    theta = qa.field.root_intervals[i]
    while True:
        theta = refine_root(theta, w)
        a, b, c = (q.enclosure(theta) for q in (qa, qb, qc))
        disc = b.times(b).plus(a.times(c).scale(-4))
        den = a.scale(2)
        if disc.lo > 0 and (den.lo > 0 or den.hi < 0):
            root = disc.sqrt(w)
            minus_b = b.scale(-1)
            roots = [minus_b.plus(sq).divided_by(den) for sq in (root, root.scale(-1))]
            if all(r.width_at_most(width) for r in roots):
                return sorted(r.fractions() for r in roots)
        w /= 4


# -- torsion orders -----------------------------------------------------


def _cyclotomic_table(orders: Iterable[int]) -> dict[int, list[int]]:
    """Coefficients of Phi_d, ascending, for each d of ``orders`` taken in
    ascending order, which must hold every divisor of each d: x^d - 1
    divided by Phi_e for the proper divisors e of d, on integers."""
    phis: dict[int, list[int]] = {}
    for d in sorted(orders):
        p = [-1] + [0] * (d - 1) + [1]  # x^d - 1
        for e, phi in phis.items():
            if d % e == 0:
                p, r = divide_monic(p, phi)
                assert not any(r), "inexact division"
        phis[d] = p
    return phis


def _cyclotomic_coeffs(m: int) -> list[int]:
    """Coefficients of Phi_m, ascending, from the table of its divisors."""
    return _cyclotomic_table(d for d in range(1, m + 1) if m % d == 0)[m]


def cos_trace_min_poly(m: int) -> Poly:
    """Minimal polynomial over Q of 2*cos(2*pi/m)."""
    if m == 1:
        return Poly([-2, 1])
    if m == 2:
        return Poly([2, 1])
    return _cos_trace_from_cyclotomic(_cyclotomic_coeffs(m))


def _cos_trace_from_cyclotomic(phi: Sequence[int]) -> Poly:
    """psi with Phi_m(z) = z^s * psi(z + 1/z), for the coefficients of
    Phi_m, m >= 3, ascending (2s = phi(m)); psi is the minimal polynomial
    of 2*cos(2*pi/m).  ``phi`` is left as it is."""
    residual = list(phi)
    s = (len(residual) - 1) // 2
    # peel coefficients from the top, where z^(s-j) * (z^2 + 1)^j has
    # coefficient C(j, t) at degree s - j + 2t
    coeffs = [0] * (s + 1)
    for j in range(s, -1, -1):
        c = coeffs[j] = residual[s + j]
        if c:
            for t in range(j + 1):
                residual[s - j + 2 * t] -= c * math.comb(j, t)
    assert not any(residual), "cyclotomic polynomial is not palindromic?"
    return Poly(coeffs)


def element_order(t: FieldElement, bound: int) -> Optional[int]:
    """Order in SL_2 of a determinant-1 matrix m of trace t other than +-I,
    from the powers m, m^2, ..., m^bound: the first power that is +-I is
    m^e with e the order in PSL_2, and the SL_2 order is e if m^e = I, 2e
    if m^e = -I (which may exceed ``bound``).  None if no power up to
    m^bound is +-I.

    Only the trace is read, and no matrix is multiplied.  By
    Cayley-Hamilton, m^e = u_e m - u_(e-1) I with u_0 = 0, u_1 = 1 and
    u_(e+1) = t u_e - u_(e-1).  As m is not scalar, I and m are
    independent, so m^e is scalar exactly when u_e = 0, and then m^e =
    -u_(e-1) I with u_(e-1)^2 = det(m^e) = 1.  Each step is one field
    product."""
    one = t.field.one()
    prev, cur = t.field.zero(), one  # u_(e-1), u_e
    for e in range(1, bound + 1):
        if cur.is_zero:
            return e if prev == -one else 2 * e
        prev, cur = cur, t * cur - prev
    return None


def disc_from_trace(t: FieldElement) -> FieldElement:
    """Tr^2 - 4 of a determinant-1 matrix of trace t.  Subtracting 4 from
    the coordinate of omega_0 = 1 changes num_0 by a multiple of den, so
    gcd(den, *num) stays 1 and the element stays canonical."""
    s = t * t
    return FieldElement(s.field, (s.num[0] - 4 * s.den,) + s.num[1:], s.den)


def _totients(top: int) -> list[int]:
    """[phi(0), phi(1), ..., phi(top)] from one sieve, phi(0) = 0: each
    prime p, still phi(p) = p when reached, scales its multiples by
    (1 - 1/p)."""
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    return phi


@functools.cache
def default_order_bound(n: int) -> int:
    """Largest m with phi(m) <= 2n; beyond it no trace 2cos(2*pi/m) can
    live in a degree-n field (SL order is at most twice the PSL order).
    phi(m) >= sqrt(m/2), so no m above 2(2n)^2 + 2 counts.  Kept per n."""
    return max(m for m, t in enumerate(_totients(2 * (2 * n) ** 2 + 2)) if t <= 2 * n)


def torsion_orders(field: NumberField, m_max: int) -> list[tuple[int, Mat2]]:
    """All m <= m_max arising as orders of elements of SL_2(O_k), each with
    a verified witness: identity, -identity, or the companion matrix
    [[0, -1], [1, t]] for t = 2cos(2*pi/m) in O_k."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    n = field.degree
    one = Mat2.identity(field)
    out: list[tuple[int, Mat2]] = [(1, one)]
    if m_max >= 2:
        out.append((2, -one))
    # Q(2cos(2*pi/m)) has degree phi(m)/2, which must divide n, so
    # phi(m) <= 2n and m <= 2(2n)^2 + 2 (default_order_bound)
    totient = _totients(min(m_max, 2 * (2 * n) ** 2 + 2))
    orders = [m for m in range(3, len(totient)) if n % (totient[m] // 2) == 0]
    phis = _cyclotomic_table({d for m in orders for d in range(1, m + 1) if m % d == 0})
    for m in orders:
        res = contains_root_of(field, _cos_trace_from_cyclotomic(phis[m]))
        if res.value is None or not res.value.is_integral():
            continue
        t = res.value
        if element_order(t, m) == m:  # t is the trace of the witness
            out.append((m, Mat2(field.zero(), -field.one(), field.one(), t)))
    return out
