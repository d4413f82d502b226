"""Totally real number fields with certified real embeddings.

A field is presented by a monic integer minimal polynomial plus an
integral basis given in the power basis of the defining root.  Elements
are exact coordinate vectors in the integral basis.  Each field builds,
once and on integers, its multiplication table T with omega_i * omega_j =
sum_k T_ijk omega_k; products, trace, norm and inverse are integer sums
over T, each operand scaled to integers by its common denominator.  Every
T_ijk must be an integer, which certifies that the basis spans an order;
a basis that does not is rejected with ValueError.  A rational root of
the minimal polynomial is always rejected, which settles irreducibility
up to degree 3; above that it is a caller contract, and ``inverse``
raises ReducibleDetected on a zero divisor, a nonzero element of norm 0.

Sign decisions at an embedding combine an exact zero test with interval
refinement of the isolated root, so they are certified; the interval
Horner evaluation behind them runs on integers over one denominator
(``ScaledInterval``).  Square roots and roots of rational polynomials
inside the field are decided exactly: after scaling, a root y is an
algebraic integer, so its power-basis coordinates c = T^-1 (Tr(theta^l
y))_l lie in (1/D)Z^n, with T the trace form of the order Z[theta] and
D = |det T| = |disc(min_poly)|.  Integer interval enclosures of the
embeddings of y, combined with the integer adjugate of T, pin D c to one
lattice point, verified exactly, or exclude every lattice point; either
way the answer is certified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Optional, Sequence

from .exactnum import (
    Poly,
    RootInterval,
    ScaledInterval,
    isolate_real_roots,
    rational_from_string,
    rational_to_string,
    refine_root,
)

Sign = int  # -1, 0 or +1


class NotTotallyReal(ValueError):
    pass


class NotMonic(ValueError):
    pass


class ReducibleDetected(ValueError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


# -- small exact linear algebra ----------------------------------------


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


def int_det_solve(m: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[int, list[int]]:
    """det M and det M * x, with x the solution of M x = b, for an integer
    matrix M, by fraction-free Gauss-Jordan elimination (Bareiss): every
    intermediate entry is a minor of [M | b], so each division is exact.
    The second value is meaningless when det M = 0."""
    n = len(m)
    a = [list(row) + [c] for row, c in zip(m, b)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0, []
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        pk = rk[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], rk)]
        prev = pk
    return sign * prev, [sign * row[n] for row in a]


def _integer_coords(coords: Sequence[Fraction]) -> tuple[list[int], int]:
    """(a, d) with coords = a / d, d the least common denominator."""
    d = math.lcm(*(c.denominator for c in coords))
    if d == 1:
        return [c.numerator for c in coords], 1
    return [c.numerator * (d // c.denominator) for c in coords], d


def _vec_mat(v: Sequence[Fraction], m: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    n = len(m[0])
    return [sum((v[i] * m[i][j] for i in range(len(v))), Fraction(0)) for j in range(n)]


def _is_rational_square(r: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None."""
    if r < 0:
        return None
    p, q = r.numerator, r.denominator
    sp, sq = isqrt(p), isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None


# -- the field ----------------------------------------------------------


class NumberField:
    """A totally real field Q(theta) with theta a root of ``min_poly``.

    ``integral_basis`` rows are the basis elements of O_k written in the
    power basis {1, theta, ..., theta^(n-1)}; row 0 must be the constant 1.
    Embeddings are stored as isolating intervals in ascending root order,
    so embedding 0 corresponds to the smallest real root.
    """

    def __init__(self, min_poly: Poly,
                 integral_basis: Optional[Sequence[Sequence[Fraction]]] = None):
        if min_poly.is_zero or not min_poly.is_monic:
            raise NotMonic("minimal polynomial must be monic and nonzero")
        if any(c.denominator != 1 for c in min_poly.coeffs):
            raise NotMonic("minimal polynomial must have integer coefficients")
        n = min_poly.degree
        if n < 1:
            raise ValueError("minimal polynomial must have positive degree")
        roots = _narrow_roots(min_poly)  # raises NotSquarefree on a repeated root
        rational_roots = _integer_roots(roots) if n > 1 else []
        if rational_roots:
            raise ReducibleDetected(f"rational root {rational_roots[0]} detected")
        if len(roots) != n:
            raise NotTotallyReal(
                f"only {len(roots)} of {n} roots are real")

        self.min_poly = min_poly
        self.degree = n
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        if integral_basis is None:
            basis = identity
        else:
            basis = [[Fraction(x) for x in row] for row in integral_basis]
            if len(basis) != n or any(len(row) != n for row in basis):
                raise ValueError("integral basis must be an n x n matrix")
        if basis[0] != [Fraction(1)] + [Fraction(0)] * (n - 1):
            raise ValueError("basis element 0 must be the constant 1")
        self.integral_basis = tuple(tuple(row) for row in basis)
        # None for the power basis, whose coordinates need no change of basis
        self._basis_inv = None if basis == identity else mat_inverse(basis)
        self._table = self._multiplication_table()
        self._embeddings: list[RootInterval] = list(roots)

    def _multiplication_table(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """T with omega_i * omega_j = sum_k T_ijk omega_k in the integral
        basis, stored sparsely: ``T[i][j]`` lists the (k, T_ijk) with
        T_ijk != 0.

        Built on integers: min_poly is monic, so x^m mod min_poly has
        integer coefficients.  Every T_ijk must be an integer, which
        certifies that the basis spans an order (row 0 is already 1);
        otherwise ValueError."""
        n = self.degree
        f = [int(c) for c in self.min_poly.coeffs]
        xpow = [[int(i == k) for k in range(n)] for i in range(n)]  # x^m mod min_poly
        for _ in range(n - 1):
            top = xpow[-1][-1]
            xpow.append([-top * f[0]] + [xpow[-1][k - 1] - top * f[k] for k in range(1, n)])
        if self._basis_inv is None:
            products = {(i, j): xpow[i + j] for i in range(n) for j in range(i, n)}
        else:
            dens = [math.lcm(*(x.denominator for x in row)) for row in self.integral_basis]
            rows = [[int(x * d) for x in row] for row, d in zip(self.integral_basis, dens)]
            den_inv = math.lcm(*(x.denominator for row in self._basis_inv for x in row))
            inv = [[int(x * den_inv) for x in row] for row in self._basis_inv]
            products = {}
            for i in range(n):
                for j in range(i, n):
                    prod = [0] * (2 * n - 1)
                    for s, x in enumerate(rows[i]):
                        for t, y in enumerate(rows[j]):
                            prod[s + t] += x * y
                    power = [sum(c * v[k] for c, v in zip(prod, xpow)) for k in range(n)]
                    den = den_inv * dens[i] * dens[j]
                    coords = []
                    for k in range(n):
                        q, r = divmod(sum(c * row[k] for c, row in zip(power, inv)), den)
                        if r:
                            raise ValueError("integral basis does not span an order")
                        coords.append(q)
                    products[i, j] = coords
        sparse = {ij: tuple((k, t) for k, t in enumerate(v) if t) for ij, v in products.items()}
        return tuple(tuple(sparse[min(i, j), max(i, j)] for j in range(n)) for i in range(n))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rationals() -> "NumberField":
        return NumberField(Poly([0, 1]))

    @staticmethod
    def quadratic(d: int) -> "NumberField":
        """Q(sqrt(d)) for squarefree d > 1, with the standard maximal-order
        basis: {1, (1+theta)/2} when d = 1 mod 4, the power basis otherwise."""
        if d <= 1:
            raise ValueError("need a squarefree integer d > 1")
        p = Poly([-d, 0, 1])
        if d % 4 == 1:
            basis = [[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)]]
        else:
            basis = None
        return NumberField(p, basis)

    # -- elements -------------------------------------------------------

    def element(self, coords: Sequence) -> "FieldElement":
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(cs)}")
        return FieldElement(self, cs)

    def from_power(self, power: Sequence) -> "FieldElement":
        """Element from power-basis coordinates (reduced mod min_poly)."""
        v = [Fraction(c) for c in power]
        if len(v) > self.degree:
            v = list((Poly(v) % self.min_poly).coeffs)
        v += [Fraction(0)] * (self.degree - len(v))
        if self._basis_inv is not None:
            v = _vec_mat(v, self._basis_inv)
        return FieldElement(self, tuple(v))

    def zero(self) -> "FieldElement":
        return self.element([0] * self.degree)

    def one(self) -> "FieldElement":
        return self.element([1] + [0] * (self.degree - 1))

    def generator(self) -> "FieldElement":
        return self.from_power([0, 1])

    # -- embeddings -----------------------------------------------------

    def embedding(self, i: int, width: Optional[Fraction] = None) -> RootInterval:
        r = self._embeddings[i]
        if width is not None and not r.scaled.width_at_most(width):
            r = self._embeddings[i] = refine_root(r, width)
        return r

    def discriminant(self) -> Fraction:
        return self.min_poly.discriminant()

    @cached_property
    def _trace_form(self) -> tuple[list[list[int]], int]:
        """(A, D) with A / D = T^-1 and D = |det T| = |disc(min_poly)|, for
        the trace form T_jl = Tr(theta^(j+l)) of the order Z[theta].

        The power-basis coordinates of y are c = T^-1 (Tr(theta^l y))_l.
        A = +-adj(T) is integral, and so is Tr(theta^l y) for an algebraic
        integer y, hence c lies in (1/D)Z^n."""
        n = self.degree
        a = [int(c) for c in self.min_poly.coeffs]
        s = [n]  # Newton's identities: s_m = Tr(theta^m)
        for m in range(1, 2 * n - 1):
            s.append(-(m * a[n - m] if m <= n else 0)
                     - sum(a[n - j] * s[m - j] for j in range(1, min(m - 1, n) + 1)))
        t = [[s[j + l] for l in range(n)] for j in range(n)]
        # column l of adj(T) is det T * T^-1 e_l
        solved = [int_det_solve(t, [int(k == l) for k in range(n)]) for l in range(n)]
        det = solved[0][0]
        sign = 1 if det > 0 else -1
        return [[sign * col[k] for _, col in solved] for k in range(n)], abs(det)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        out = {"min_poly": self.min_poly.to_json()}
        out["integral_basis"] = [[rational_to_string(x) for x in row]
                                 for row in self.integral_basis]
        return out

    @staticmethod
    def from_json(data: dict) -> "NumberField":
        p = Poly.from_json(data["min_poly"])
        basis = data.get("integral_basis")
        if basis is not None:
            basis = [[rational_from_string(x) for x in row] for row in basis]
        return NumberField(p, basis)

    def __repr__(self) -> str:
        return f"NumberField({self.min_poly!r})"


def _narrow_roots(p: Poly) -> list[RootInterval]:
    """The real roots of p, ascending, isolated to width < 1."""
    return [refine_root(r, Fraction(1, 2)) for r in isolate_real_roots(p)]


def _integer_roots(roots: Sequence[RootInterval]) -> list[int]:
    """The integer roots among ``_narrow_roots`` output, ascending; each
    interval holds at most one integer.  For a monic integer polynomial
    these are all of its rational roots."""
    return [m for r in roots for m in range(math.ceil(r.low), math.floor(r.high) + 1)
            if r.polynomial.sign_at(m) == 0]


@dataclass(frozen=True)
class FieldElement:
    """An element of a NumberField; coords are in the integral basis."""

    field: NumberField
    coords: tuple[Fraction, ...]

    def _same_field(self, other: "FieldElement") -> None:
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    # -- representation conversions ------------------------------------

    def power_coords(self) -> list[Fraction]:
        if self.field._basis_inv is None:
            return list(self.coords)
        return _vec_mat(self.coords, self.field.integral_basis)

    def power_poly(self) -> Poly:
        return Poly(self.power_coords())

    # -- ring / field structure ----------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, tuple(a * other for a in self.coords))
        self._same_field(other)
        a, da = _integer_coords(self.coords)
        b, db = _integer_coords(other.coords)
        acc = [0] * len(a)
        for ai, row in zip(a, self.field._table):
            if ai:
                for bj, entries in zip(b, row):
                    if bj:
                        c = ai * bj
                        for k, t in entries:
                            acc[k] += c * t
        den = da * db
        if den == 1:
            return FieldElement(self.field, tuple(Fraction(c) for c in acc))
        return FieldElement(self.field, tuple(Fraction(c, den) for c in acc))

    __rmul__ = __mul__

    def _mult_rows(self) -> tuple[list[list[int]], int]:
        """(M, d): self * omega_j = sum_k M[j][k] / d * omega_k, i.e. d times
        the matrix of multiplication by self, with M = sum_i a_i T_i.. for
        the integer coordinates a = d * coords."""
        a, d = _integer_coords(self.coords)
        n = self.field.degree
        m = [[0] * n for _ in range(n)]
        for ai, row in zip(a, self.field._table):
            if ai:
                for mj, entries in zip(m, row):
                    for k, t in entries:
                        mj[k] += ai * t
        return m, d

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero("cannot invert zero")
        # y = sum_j y_j omega_j with self * y = 1 solves M^T y = d e_0
        m, d = self._mult_rows()
        n = self.field.degree
        det, y = int_det_solve(list(zip(*m)), [d] + [0] * (n - 1))
        if det == 0:
            raise ReducibleDetected("zero divisor: the minimal polynomial is reducible")
        return FieldElement(self.field, tuple(Fraction(c, det) for c in y))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        acc, base = self.field.one(), self
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement) and self.field is other.field
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((id(self.field), self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_integral(self) -> bool:
        """True iff all integral-basis coordinates are integers."""
        return all(c.denominator == 1 for c in self.coords)

    def height(self) -> int:
        """Max absolute numerator over the integral-basis coordinates."""
        return max(abs(c.numerator) for c in self.coords)

    # -- embeddings -----------------------------------------------------

    def embed_sign(self, i: int) -> Sign:
        """Exact sign of the i-th real embedding."""
        if self.is_zero:
            return 0
        q = self.power_poly()
        r = self.field.embedding(i)
        while True:
            lo, hi, _ = q.eval_scaled(r.scaled)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if r.is_exact:
                # the embedding value is sigma_i(x) != 0 for x != 0, so the
                # enclosure can only straddle 0 while the interval is inexact
                return 1 if q.sign_at(r.low) > 0 else -1
            r = self.field.embedding(i, r.width / 4)

    def embed_scaled(self, i: int, width: Fraction) -> ScaledInterval:
        """Enclosure of sigma_i(x) of width <= ``width``, over one
        denominator."""
        q = self.power_poly()
        r = self.field.embedding(i)
        while True:
            v = q.eval_scaled(r.scaled)
            if v.width_at_most(width):
                return v
            r = self.field.embedding(i, r.width / 4)

    # -- trace and norm -------------------------------------------------

    def trace(self) -> Fraction:
        m, d = self._mult_rows()
        return Fraction(sum(m[j][j] for j in range(len(m))), d)

    def norm(self) -> Fraction:
        m, d = self._mult_rows()
        return Fraction(int_det_solve(m, [0] * len(m))[0], d ** len(m))

    # -- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        return [rational_to_string(c) for c in self.coords]

    def __repr__(self) -> str:
        return f"FieldElement({[str(c) for c in self.coords]})"


def element_from_json(field: NumberField, data: Sequence[str]) -> FieldElement:
    return field.element([rational_from_string(c) for c in data])


# -- square roots and rational-polynomial roots inside k ----------------


@dataclass(frozen=True)
class SearchOutcome:
    """Result of an in-field root search: an exactly verified root, or
    None, which certifies that k holds no root."""

    value: Optional[FieldElement]


def _sqrt_interval(v: ScaledInterval, w: Fraction) -> ScaledInterval:
    """Enclosure of sqrt(v), v.hi > 0, widened by at most 2w, over 2^b."""
    b = math.ceil(1 / w).bit_length()  # 2^-b < w
    scale = 4 ** b
    low = isqrt(max(v.lo, 0) * scale // v.den)
    high = isqrt(-(-v.hi * scale // v.den)) + 1
    return ScaledInterval(low, high, 2 ** b)


def _lattice_root(field: NumberField, enclose, assignments, verify) -> Optional[FieldElement]:
    """The first verified algebraic integer y in k whose embeddings follow
    one of the ``assignments``; None certifies that there is none.

    ``enclose(w)[i]`` lists enclosures (``ScaledInterval``), of width about
    w and shrinking with it, of the values allowed at embedding i; an
    assignment picks one per embedding.  The power-basis coordinates c of
    y lie in (1/D)Z^n, and D c = A (Tr(theta^l y))_l (see
    ``NumberField._trace_form``).  Enclosures of Tr(theta^l y) shrink the
    intervals around D c until one holds no integer (no such y) or each
    pins exactly one, the only possible candidate, verified exactly.
    Everything runs on integers; the enclosure width w is 1 / wden.
    """
    adj, den = field._trace_form
    n = field.degree
    zero = ScaledInterval(0, 0, 1)
    for assign in assignments:
        wden = 4 * den
        while True:
            w = Fraction(1, wden)
            allowed = enclose(w)
            u = [zero] * n  # u_l encloses Tr(theta^l y)
            for i, j in enumerate(assign):
                theta = field.embedding(i, w).scaled
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
                y = field.from_power([Fraction(a, den) for a, _ in pins])
                if verify(y):
                    return y
                break
            widest = max(-(-2 * (hi - lo) // d) for lo, hi, d in coords)  # ceil(2 D width)
            wden *= 2 ** max(1, widest.bit_length())
    return None


def has_square_root(c: FieldElement) -> SearchOutcome:
    """The y in k with y*y = c and sigma_0(y) >= 0, if it exists.

    Absence is certified by a negative embedding, a norm that is not a
    rational square, or lattice exclusion.
    """
    field = c.field
    if c.is_zero:
        return SearchOutcome(field.zero())
    n = field.degree
    if any(c.embed_sign(i) < 0 for i in range(n)):
        return SearchOutcome(None)
    if _is_rational_square(c.norm()) is None:
        return SearchOutcome(None)  # N(y)^2 = N(c) forces a square norm
    s = math.lcm(*(x.denominator for x in c.power_coords()))
    cs = c * (s * s)  # in Z[theta], so its square roots are algebraic integers

    def enclose(w):
        out = []
        for i in range(n):
            root = _sqrt_interval(cs.embed_scaled(i, w), w)
            out.append((root, root.scale(-1)))
        return out

    signs = ((0,) + rest for rest in itertools.product((0, 1), repeat=n - 1))
    y = _lattice_root(field, enclose, signs, lambda y: y * y == cs)
    return SearchOutcome(None if y is None else y * Fraction(1, s))


def contains_root_of(field: NumberField, p: Poly) -> SearchOutcome:
    """A root in k of the monic rational polynomial p, if any: the smallest
    rational root, else the first root found over the assignments of real
    roots of p to the embeddings, in lexicographic order.

    Every embedding of a root y in k is a real root of p; a None answer
    certifies that k holds no root.
    """
    if p.is_zero or not p.is_monic:
        raise ValueError("expected a monic polynomial")
    n = field.degree
    d = p.degree
    s = math.lcm(*(a.denominator for a in p.coeffs))
    q = Poly([a * s ** (d - i) for i, a in enumerate(p.coeffs)])  # roots s*y
    roots = _narrow_roots(q)
    rational = _integer_roots(roots)
    if rational:
        return SearchOutcome(field.one() * Fraction(rational[0], s))

    def enclose(w):
        roots[:] = [refine_root(r, w) for r in roots]
        return [[r.scaled for r in roots]] * n

    def is_root(y: FieldElement) -> bool:
        acc = field.zero()
        for a in reversed(q.coeffs):
            acc = acc * y + field.one() * a
        return acc.is_zero

    y = _lattice_root(field, enclose, itertools.product(range(len(roots)), repeat=n), is_root)
    return SearchOutcome(None if y is None else y * Fraction(1, s))
