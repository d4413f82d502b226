"""Totally real number fields with certified real embeddings.

A field is presented by a monic integer minimal polynomial plus an
integral basis given in the power basis of the defining root.  An element
is stored as integer coordinates in the integral basis over one positive
denominator, in lowest terms.  There is one change-of-basis path, on
integers (Cohen, GTM 138, ch. 4): the field stores the basis matrix and
its inverse, an integer adjugate from the fraction-free solver
``int_det_solve``, each as a sparse integer matrix over one denominator,
the power basis as the identity over 1.  Power coordinates, ``from_power``
(which takes integer power-basis numerators over one positive
denominator, never a Fraction) and the multiplication table T with
omega_i * omega_j = sum_k T_ijk omega_k are integer products with them.
Products, trace, norm and inverse are integer sums over T, sums one pass
over the numerators.  Every T_ijk must be an integer, which certifies
that the basis spans an order; a basis that does not, or a singular one,
is rejected with ValueError.  A rational root of the minimal polynomial
is always rejected, which settles irreducibility up to degree 3; above
that it is a caller contract, and ``inverse`` and ``embed_sign`` raise
ReducibleDetected on a zero divisor.

A field never changes after ``__init__``: its embeddings are the isolating
intervals found at load, and each loop that needs a finer one refines a
local copy, so no answer depends on earlier queries and one field can
serve many.  Sign decisions and enclosures (``FieldElement.enclosure``) at
an embedding are interval Horner (``exactnum.horner_scaled``) on the
integer power coordinates over such a root, so they are certified; the
sign of a rational is read from its coordinate, with no interval.  Square
roots and roots of rational polynomials inside the field are decided
exactly: after scaling, a root y is an algebraic integer, so its
power-basis coordinates c = T^-1 (Tr(theta^l y))_l lie in (1/D)Z^n, with T
the trace form of the order Z[theta] and D = det T = disc(min_poly) > 0,
which is also the discriminant the field reports.  D c = sum_i sigma_i(y)
A(theta_i), with the rows of the integer adjugate A of T read as
polynomials; sums of integer enclosures of these parts, each built at
most once per width, pin D c to one lattice point, verified exactly, or
exclude every lattice point; either way the answer is certified.  A root
of a polynomial is searched for over the balanced assignments of its
real roots to the embeddings only: the embeddings of an irrational root
y of degree e take each of its e conjugates exactly n / e times, so no
other assignment can be realised.

Residue maps (Dedekind; Cohen, GTM 138, 6.2): for a prime p not
dividing D, D = [O_k : Z[theta]]^2 d_k, so O_k / pO_k = F_p[x] /
(min_poly mod p), and a root r of min_poly mod p gives a ring map phi:
O_k -> F_p with theta -> r.  The field keeps every such pair (p, r) with
p below ``RESIDUE_PRIME_BOUND`` (``NumberField._residue_maps``, built on
first use).  One pass over x below the bound, a running product of the
values (``_residue_roots``), finds the primes at which a polynomial has
a root, all at once; the maps' roots are read from that pass's values at
those primes only.

``contains_root_of`` scales p to a monic integer q and decides in three
steps.  First a residue-field certificate: a root of q in k, an
algebraic integer, maps to a root of q mod p, so q without a root mod
such a p has no root in k; the pass finds q's first obstructing prime.
Then a rational root of q, then the lattice.

``has_square_root(c)`` answers a rational square s^2, zero included,
with |s|.  Otherwise it decides in four steps.  First a residue
certificate, which decides almost every non-square: write c =
P(theta) / d with P integral; if y*y = c, then (d y)^2 = d P(theta) in
Z[theta], so d y lies in O_k, and for a map phi at an odd p not dividing
d, d P(r) = phi(d y)^2 is a square mod p.  So a nonzero non-residue d
P(r) (Euler's criterion) leaves c no square root in k.  Then a negative
embedding, then a norm that is not a rational square, then the lattice.
Neither certificate fires when a root exists, so they change no answer,
only how soon an absence is known.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, reduce
from math import isqrt
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactnum import (
    Poly,
    Record,
    RootInterval,
    ScaledInterval,
    as_rational,
    divide_monic,
    horner_scaled,
    isolate_real_roots,
    rational_from_string,
    integer_coords,
    ratio_to_string,
    refine_root,
    require_json,
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


def int_det_solve(m: Sequence[Sequence[int]],
                  b: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """det M and det M * X, with X the solution of M X = B, for an integer
    matrix M and integer right-hand sides B (n rows, any number of columns),
    by fraction-free Gauss-Jordan elimination (Bareiss): every intermediate
    entry is a minor of [M | B], so each division is exact.  The second
    value is meaningless when det M = 0."""
    n = len(m)
    a = [list(row) + list(c) for row, c in zip(m, b)]
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
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def _adjugate(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(A, D) with A / D = M^-1, D = |det M| and A = +-adj(M) integral,
    for an integer matrix M; adj(M) = det M * M^-1 is ``int_det_solve``
    on M X = I.  A singular M raises ValueError."""
    n = len(m)
    det, adj = int_det_solve(m, [[int(k == l) for l in range(n)] for k in range(n)])
    if det == 0:
        raise ValueError("matrix is singular")
    return (adj, det) if det > 0 else ([[-x for x in row] for row in adj], -det)


def _sparse(m: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i of M as the (k, M_ik) with M_ik != 0."""
    return tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in m)


def _vec_mat(v: Sequence[int], m: Sequence[Sequence[tuple[int, int]]], n: int) -> list[int]:
    """The row vector v M, for integers v and a ``_sparse`` matrix M."""
    acc = [0] * n
    for x, row in zip(v, m):
        if x:
            for k, y in row:
                acc[k] += x * y
    return acc


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
    An entry is read like a ``Poly`` coefficient (``as_rational``), so a
    float is ValueError.
    Embedding i is the isolating interval ``root_intervals[i]``, of width
    < 1, in ascending root order, so embedding 0 corresponds to the
    smallest real root.  No attribute changes after ``__init__`` (the
    ``cached_property`` memos are functions of the spec): a caller that
    needs a narrower interval refines its own with ``refine_root``.
    """

    def __init__(self, min_poly: Poly,
                 integral_basis: Optional[Sequence[Sequence[int | Fraction | str]]] = None):
        if min_poly.is_zero or not min_poly.is_monic:
            raise NotMonic("minimal polynomial must be monic and nonzero")
        if min_poly.den != 1:
            raise NotMonic("minimal polynomial must have integer coefficients")
        n = min_poly.degree
        if n < 1:
            raise ValueError("minimal polynomial must have positive degree")
        roots = _narrow_roots(min_poly)  # raises NotSquarefree on a repeated root
        rational_roots = _integer_roots(roots) if n > 1 else []
        if rational_roots:
            raise ReducibleDetected(f"rational root {rational_roots[0]} detected")
        if len(roots) != n:
            raise NotTotallyReal(f"only {len(roots)} of {n} roots are real")

        self.min_poly = min_poly
        self.degree = n
        if integral_basis is None:
            integral_basis = [[int(i == j) for j in range(n)] for i in range(n)]
        elif len(integral_basis) != n or any(len(row) != n for row in integral_basis):
            raise ValueError("integral basis must be an n x n matrix")
        # (M, d) with M / d the basis matrix, and the same for its inverse
        flat, den = integer_coords([as_rational(x) for row in integral_basis for x in row])
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        if rows[0] != [den] + [0] * (n - 1):
            raise ValueError("basis element 0 must be the constant 1")
        self.integral_basis = tuple(tuple(Fraction(a, den) for a in row) for row in rows)
        adj, det = _adjugate(rows)  # basis^-1 = den * adj / det
        self._basis = _sparse(rows), den
        self._basis_inv = _sparse([[den * a for a in row] for row in adj]), det
        self._table = self._multiplication_table()
        self.root_intervals: tuple[RootInterval, ...] = tuple(roots)

    def _multiplication_table(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """T with omega_i * omega_j = sum_k T_ijk omega_k in the integral
        basis, stored sparsely: ``T[i][j]`` lists the (k, T_ijk) with
        T_ijk != 0.

        Built on integers: min_poly is monic, so a product reduced mod
        min_poly keeps integer coefficients.  Every T_ijk must be an
        integer, which certifies that the basis spans an order (row 0 is
        already 1); otherwise ValueError."""
        n = self.degree
        f = self.min_poly.num
        rows, den = self._basis
        inv, den_inv = self._basis_inv
        den = den * den * den_inv
        products = {}
        for i in range(n):
            for j in range(i, n):
                prod = [0] * (2 * n - 1)
                for s, x in rows[i]:
                    for t, y in rows[j]:
                        prod[s + t] += x * y
                coords = [divmod(c, den) for c in _vec_mat(divide_monic(prod, f)[1], inv, n)]
                if any(r for _, r in coords):
                    raise ValueError("integral basis does not span an order")
                products[i, j] = tuple((k, t) for k, (t, _) in enumerate(coords) if t)
        return tuple(tuple(products[min(i, j), max(i, j)] for j in range(n)) for i in range(n))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rationals() -> "NumberField":
        return NumberField(Poly([0, 1]))

    @staticmethod
    def quadratic(d: int) -> "NumberField":
        """Q(sqrt(d)) for squarefree d > 1, with the standard maximal-order
        basis: {1, (1+theta)/2} when d = 1 mod 4, the power basis otherwise."""
        if d <= 1 or any(d % (k * k) == 0 for k in range(2, isqrt(d) + 1)):
            raise ValueError("need a squarefree integer d > 1")
        p = Poly([-d, 0, 1])
        if d % 4 == 1:
            basis = [[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)]]
        else:
            basis = None
        return NumberField(p, basis)

    # -- elements -------------------------------------------------------

    def element(self, coords: Sequence[int | Fraction]) -> "FieldElement":
        """The element sum coords_i omega_i.  A coordinate must be an int or
        a Fraction: anything else, a float included, is ValueError, since a
        float would stand for its binary expansion."""
        for c in coords:
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"coordinate {c!r} is not an int or a Fraction")
        if len(coords) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(coords)}")
        return _element(self, *integer_coords(coords))

    def from_power(self, num: Sequence[int], den: int = 1) -> "FieldElement":
        """The element sum num_l theta^l / den, for integers num_l and an
        integer den > 0; a den <= 0 is ValueError, and a numerator or den
        that is not an int (a Fraction or a float), zero or not, is
        TypeError, from ``math.gcd``.  A list of at most ``degree``
        numerators is already reduced; a longer one is reduced mod
        min_poly."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        math.gcd(den, *num)  # ints only: ``_vec_mat`` skips a zero of any type
        if len(num) > self.degree:
            num = divide_monic(num, self.min_poly.num)[1]
        inv, den_inv = self._basis_inv
        return _element(self, _vec_mat(num, inv, self.degree), den * den_inv)

    def zero(self) -> "FieldElement":
        """0, one shared element per field (``_zero``)."""
        return self._zero

    def one(self) -> "FieldElement":
        """1, one shared element per field (``_one``)."""
        return self._one

    @cached_property
    def _zero(self) -> "FieldElement":
        return _element(self, [0] * self.degree, 1)

    @cached_property
    def _one(self) -> "FieldElement":
        return _element(self, [1] + [0] * (self.degree - 1), 1)

    def generator(self) -> "FieldElement":
        return self.from_power([0, 1])

    def discriminant(self) -> int:
        """disc(min_poly) = det T > 0 for the trace form T (``_trace_form``)."""
        return self._trace_form[1]

    @cached_property
    def _residue_maps(self) -> tuple[tuple[int, int], ...]:
        """Every pair (p, r), ascending, of a prime p < ``RESIDUE_PRIME_BOUND``
        not dividing D = disc(min_poly) and an r in [0, p) with min_poly(r)
        = 0 mod p: the ring map O_k -> F_p, theta -> r, of the degree-1
        prime (p, theta - r) (see the module docstring).  One pass of
        ``_residue_roots`` finds the primes with a root, and r is sought at
        those primes only, among the values that pass computed."""
        disc = self.discriminant()
        primes = [p for p in _SMALL_PRIMES if disc % p]
        vals = _residue_values(self.min_poly.num, primes)
        return tuple((p, r) for p, root in _residue_roots(vals, primes) if root
                     for r in range(p) if vals[r] % p == 0)

    @cached_property
    def _residue_primes(self) -> tuple[int, ...]:
        """The primes of ``_residue_maps``, ascending, each once."""
        return tuple(dict.fromkeys(p for p, _ in self._residue_maps))

    @cached_property
    def _trace_form(self) -> tuple[list[list[int]], int]:
        """(A, D) with A / D = T^-1 and D = det T = disc(min_poly) > 0 (the
        roots are real and distinct), for the trace form
        T_jl = Tr(theta^(j+l)) of the order Z[theta].

        The power-basis coordinates of y are c = T^-1 (Tr(theta^l y))_l.
        A = adj(T) is integral, and so is Tr(theta^l y) for an algebraic
        integer y, hence c lies in (1/D)Z^n."""
        n = self.degree
        a = self.min_poly.num
        s = [n]  # Newton's identities: s_m = Tr(theta^m)
        for m in range(1, 2 * n - 1):
            s.append(-(m * a[n - m] if m <= n else 0)
                     - sum(a[n - j] * s[m - j] for j in range(1, min(m - 1, n) + 1)))
        return _adjugate([[s[j + l] for l in range(n)] for j in range(n)])

    # -- serialization --------------------------------------------------

    @staticmethod
    def from_json(data) -> "NumberField":
        """The field of a spec object: "min_poly", the minimal polynomial's
        coefficients as rational strings, ascending, and optionally
        "integral_basis", one row of rational strings per basis element in
        the power basis; ValueError naming the expected shape on any other
        input."""
        data = require_json(data, dict, 'an object {"min_poly": [...], "integral_basis": '
                                        '[[...], ...]}, "integral_basis" optional', ("min_poly",))
        p = Poly.from_json(require_json(data["min_poly"], list,
                                        '"min_poly" as a list of rational strings'))
        basis = data.get("integral_basis")
        if basis is not None:
            rows = '"integral_basis" as a list of rows of rational strings'
            basis = [[rational_from_string(x) for x in require_json(row, list, rows)]
                     for row in require_json(basis, list, rows)]
        return NumberField(p, basis)

    def __repr__(self) -> str:
        return f"NumberField({self.min_poly!r})"


def _narrow_roots(p: Poly) -> list[RootInterval]:
    """The real roots of p, ascending, isolated to width < 1."""
    return [refine_root(r, Fraction(1, 2)) for r in isolate_real_roots(p)]


RESIDUE_PRIME_BOUND = 100
_SMALL_PRIMES = tuple(p for p in range(2, RESIDUE_PRIME_BOUND)
                      if all(p % k for k in range(2, isqrt(p) + 1)))


def _residue_values(cs: Sequence[int], primes: Sequence[int]) -> list[int]:
    """The values of the integer polynomial ``cs``, ascending, at every x
    below the largest of the ascending ``primes``, by Horner side by side,
    each congruent to cs(x) modulo M = prod(primes), which every p
    divides: a coefficient past M is reduced first, so no value exceeds
    2 M p^deg."""
    m = math.prod(primes)
    red = [c if -m < c < m else c % m for c in cs]
    xs = range(primes[-1] if primes else 0)
    vals = [red[-1]] * len(xs)
    for c in red[-2::-1]:
        vals = [v * x + c for v, x in zip(vals, xs)]
    return vals


def _residue_roots(vals: Sequence[int], primes: Sequence[int]) -> Iterator[tuple[int, bool]]:
    """(p, whether the polynomial has a root mod p) for each of the
    ascending ``primes``, from its ``_residue_values`` over them: exactly
    when p divides prod_{x < p} cs(x).  One pass over x, the running
    product modulo M = prod(primes), so every prime is decided at once."""
    m = math.prod(primes)
    prod, x = 1, 0  # prod_{t < x} cs(t) mod M
    for p in primes:
        prod = prod * math.prod(vals[x:p]) % m
        x = p
        yield p, prod % p == 0


def _value_mod(cs: Sequence[int], x: int, p: int) -> int:
    """cs(x) mod p, for integer coefficients ``cs``, ascending."""
    v = 0
    for c in reversed(cs):
        v = (v * x + c) % p
    return v


def _residue_obstruction(field: NumberField, q: Poly) -> Optional[int]:
    """The first prime of ``field._residue_primes`` at which the monic
    integer polynomial q has no root mod p, which certifies that q has no
    root in k (proof in the module docstring); None if there is none."""
    primes = field._residue_primes
    vals = _residue_values(q.num, primes)
    return next((p for p, root in _residue_roots(vals, primes) if not root), None)


def _integer_roots(roots: Sequence[RootInterval]) -> list[int]:
    """The integer roots among ``_narrow_roots`` output, ascending; each
    interval holds at most one integer.  For a monic integer polynomial
    these are all of its rational roots."""
    return [m for r in roots for m in range(-(-r.scaled.lo // r.scaled.den),
                                             r.scaled.hi // r.scaled.den + 1)
            if r.polynomial.sign_num(m, 1) == 0]


def _element(field: NumberField, num: Sequence[int], den: int) -> "FieldElement":
    """The element sum num_i omega_i / den, den != 0, in canonical form."""
    g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
    if g != 1:
        num, den = [a // g for a in num], den // g
    return FieldElement(field, tuple(num), den)


class FieldElement(Record):
    """An element of a NumberField with integral-basis coordinates num_i / den
    in canonical form (Cohen, GTM 138, 4.2.1), built by ``_element``: den > 0,
    gcd(den, *num) = 1, zero as 0 / 1.  Equality compares (field, num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int):
        _set_field(self, field)
        _set_num(self, num)
        _set_den(self, den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.field is other.field

    __hash__ = Record.__hash__

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    def _same_field(self, other: "FieldElement") -> None:
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    # -- representation conversions ------------------------------------

    def _power_ints(self) -> tuple[list[int], int]:
        """(p, d) with p / d the power-basis coordinates, ascending."""
        rows, den = self.field._basis
        return _vec_mat(self.num, rows, self.field.degree), self.den * den

    # -- ring / field structure ----------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._same_field(other)
        d, e = self.den, other.den
        return _element(self.field, [a * e + b * d for a, b in zip(self.num, other.num)], d * e)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._same_field(other)
        d, e = self.den, other.den
        return _element(self.field, [a * e - b * d for a, b in zip(self.num, other.num)], d * e)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p = other.numerator
            return _element(self.field, [a * p for a in self.num], self.den * other.denominator)
        self._same_field(other)
        acc = [0] * len(self.num)
        for ai, row in zip(self.num, self.field._table):
            if ai:
                for bj, entries in zip(other.num, row):
                    if bj:
                        c = ai * bj
                        for k, t in entries:
                            acc[k] += c * t
        return _element(self.field, acc, self.den * other.den)

    __rmul__ = __mul__

    def _mult_rows(self) -> list[list[int]]:
        """M with self * omega_j = sum_k M[j][k] / den * omega_k, i.e. den
        times the matrix of multiplication by self: M = sum_i num_i T_i.."""
        n = self.field.degree
        m = [[0] * n for _ in range(n)]
        for ai, row in zip(self.num, self.field._table):
            if ai:
                for mj, entries in zip(m, row):
                    for k, t in entries:
                        mj[k] += ai * t
        return m

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero("cannot invert zero")
        # y = sum_j y_j omega_j with self * y = 1 solves M^T y = den e_0
        m = self._mult_rows()
        det, y = int_det_solve(list(zip(*m)), [[self.den]] + [[0]] * (len(m) - 1))
        if det == 0:
            raise ReducibleDetected("zero divisor: the minimal polynomial is reducible")
        return _element(self.field, [c for c, in y], det)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral(self) -> bool:
        """True iff all integral-basis coordinates are integers."""
        return self.den == 1

    def height(self) -> int:
        """Max absolute numerator over the integral-basis coordinates."""
        return max(abs(a) // math.gcd(a, self.den) for a in self.num)

    # -- embeddings -----------------------------------------------------

    def embed_sign(self, i: int) -> Sign:
        """Exact sign of the i-th real embedding; a zero divisor raises.

        A rational x = num_0 / den (basis element 0 is the constant 1, and
        den > 0) has the sign of num_0 at every embedding, zero included,
        read with no interval work.  Otherwise the first enclosure is over
        the load-time interval, then over a local copy refined by quarters
        until it decides.  Only above degree 3 can x != 0 be a zero divisor
        (see the module docstring), so only there does an undecided first
        enclosure compute the norm."""
        num = self.num
        if not any(num[1:]):
            return (num[0] > 0) - (num[0] < 0)
        cs = self._power_ints()[0]
        r = self.field.root_intervals[i]
        lo, hi, _ = horner_scaled(cs, 1, r.scaled)
        if lo <= 0 <= hi and self.field.degree > 3 and self.norm() == 0:
            raise ReducibleDetected("zero divisor: the minimal polynomial is reducible")
        while lo <= 0 <= hi:  # sigma_i(x) != 0, so refining decides it
            r = refine_root(r, Fraction(r.scaled.hi - r.scaled.lo, 4 * r.scaled.den))
            lo, hi, _ = horner_scaled(cs, 1, r.scaled)
        return 1 if lo > 0 else -1

    def enclosure(self, theta: RootInterval) -> ScaledInterval:
        """Enclosure of sigma_i(x), over one denominator, for the embedding
        i whose root ``theta`` isolates: interval Horner on the power
        coordinates over ``theta``, which shrinks with it."""
        cs, d = self._power_ints()
        return horner_scaled(cs, d, theta.scaled)

    # -- trace and norm -------------------------------------------------

    def trace(self) -> Fraction:
        m = self._mult_rows()
        return Fraction(sum(m[j][j] for j in range(len(m))), self.den)

    def norm(self) -> Fraction:
        m = self._mult_rows()
        return Fraction(int_det_solve(m, [()] * len(m))[0], self.den ** len(m))

    # -- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        return [ratio_to_string(a, self.den) for a in self.num]

    def __repr__(self) -> str:
        return f"FieldElement({[str(c) for c in self.coords]})"


# the slot descriptors' setters, which ``__init__`` calls directly (see the
# ``exactnum`` module docstring)
_set_field, _set_num, _set_den = (FieldElement.field.__set__, FieldElement.num.__set__,
                                  FieldElement.den.__set__)


# -- square roots and rational-polynomial roots inside k ----------------


class SearchOutcome(NamedTuple):
    """Result of an in-field root search: an exactly verified root, or
    None, which certifies that k holds no root."""

    value: Optional[FieldElement]


def _lattice_root(field: NumberField, enclose, assignments, verify) -> Optional[FieldElement]:
    """The first verified algebraic integer y in k whose embeddings follow
    one of the ``assignments``; None certifies that there is none.

    ``enclose(w, thetas)[i]`` lists enclosures (``ScaledInterval``) of the
    values allowed at embedding i, shrinking with w, for ``thetas[i]`` its
    root refined to width <= w; an assignment picks one per embedding.
    The power-basis coordinates c of y lie in (1/D)Z^n, and D c = A
    (Tr(theta^l y))_l (see ``NumberField._trace_form``).  As Tr(theta^l y)
    = sum_i theta_i^l sigma_i(y), D c_k = sum_l A_kl sum_i theta_i^l
    sigma_i(y) = sum_i sigma_i(y) A_k(theta_i), for row k of A read as
    the polynomial A_k(x) = sum_l A_kl x^l (the trace-form dual basis;
    Cohen, GTM 138, 4.2).  At each width Horner encloses every
    A_k(theta_i) once, and each value allowed at embedding i times it is
    that embedding's part of D c_k, built the first time an assignment
    uses it at that width.  An assignment sums its n parts: each holds the
    product of two reals its factors hold, so the sum holds D c_k.  These
    shrink around D c until one holds no integer (no such y) or each pins
    exactly one, the only candidate, verified exactly.  All on integers;
    the width w is 1 / wden.  The theta_i are refined, and their values
    and A_k(theta_i) enclosed, only for a w finer than any before.
    """
    adj, den = field._trace_form
    thetas = list(field.root_intervals)
    finest = 0  # thetas have width at most 1 / finest, and parts are over them
    for assign in assignments:
        wden = 4 * den
        while True:
            if wden > finest:  # else thetas are narrower than 1 / wden already
                w = Fraction(1, wden)
                thetas = [refine_root(r, w) for r in thetas]
                finest, values = wden, enclose(w, thetas)
                duals = [[horner_scaled(row, 1, t.scaled) for row in adj] for t in thetas]
                parts = [[None] * len(v) for v in values]  # [i][j]: value j at i times A(theta_i)
            terms = []
            for vs, ps, a, j in zip(values, parts, duals, assign):
                if ps[j] is None:
                    ps[j] = [vs[j].times(ak) for ak in a]
                terms.append(ps[j])
            coords = [reduce(ScaledInterval.plus, col) for col in zip(*terms)]  # D c_k
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


def _residue_certificate(c: FieldElement) -> Optional[tuple[int, int]]:
    """The first residue map (p, r) of ``c.field._residue_maps``, with p
    odd and prime to the power-basis denominator d of c = P(theta) / d,
    at which P(r) * d is a nonzero non-residue mod p (Euler's criterion:
    v^((p-1)/2) = -1 mod p), which certifies that c is not a square in k
    (proof at ``has_square_root``); None if there is none."""
    num, d = c._power_ints()
    for p, r in c.field._residue_maps:
        if p > 2:
            v = _value_mod(num, r, p) * d % p  # 0 when p divides d
            if v and pow(v, (p - 1) // 2, p) == p - 1:
                return p, r
    return None


def has_square_root(c: FieldElement) -> SearchOutcome:
    """The y in k with y*y = c and sigma_0(y) >= 0, if it exists.

    Decided in this order, with no interval work before the lattice.  A
    rational square c = s^2, zero included, has the root |s|.  Otherwise
    absence is certified by a residue map at which c is a nonzero
    non-residue (``_residue_certificate``), a negative embedding, a norm
    that is not a rational square, or lattice exclusion.  The residue
    certificate decides almost every non-square.  Its proof: let phi: O_k
    -> F_p, theta -> r, be a residue map, p odd, and c = P(theta) / d with
    P integral and p not dividing d.  If y*y = c, then (d y)^2 = d
    P(theta) lies in Z[theta], so d y is an algebraic integer, in O_k, and
    phi(d y)^2 = phi(d P(theta)) = d P(r) mod p: a square in F_p.  So a
    nonzero non-residue d P(r) leaves c no square root in k.  The
    certificate never fires on a square, so it changes no answer, only
    how soon an absence is known.
    """
    field = c.field
    if not any(c.num[1:]):  # c is rational (basis element 0 is 1)
        root = _is_rational_square(Fraction(c.num[0], c.den))
        if root is not None:
            return SearchOutcome(field.one() * root)
    if _residue_certificate(c) is not None:
        return SearchOutcome(None)
    n = field.degree
    if any(c.embed_sign(i) < 0 for i in range(n)):
        return SearchOutcome(None)
    if _is_rational_square(c.norm()) is None:
        return SearchOutcome(None)  # N(y)^2 = N(c) forces a square norm
    p, d = c._power_ints()
    s = d // math.gcd(d, *p)  # the lcm of the power-basis denominators
    cs = c * (s * s)  # in Z[theta], so its square roots are algebraic integers

    def enclose(w, thetas):
        out = []
        for t in thetas:
            root = cs.enclosure(t).sqrt(w)
            out.append((root, root.scale(-1)))
        return out

    signs = ((0,) + rest for rest in itertools.product((0, 1), repeat=n - 1))
    y = _lattice_root(field, enclose, signs, lambda y: y * y == cs)
    return SearchOutcome(None if y is None else _element(field, y.num, y.den * s))


def contains_root_of(field: NumberField, p: Poly) -> SearchOutcome:
    """A root in k of the monic rational polynomial p, if any: -a_0 for a
    linear p = x + a_0, else the smallest rational root, else the first
    root found over the assignments of real roots of p to the embeddings,
    in lexicographic order.

    A None answer certifies that k holds no root, in this order: a prime
    at which p, scaled to a monic integer q of degree 2 or more, has no
    root in a residue field of degree 1 (``_residue_obstruction``, which
    answers for a q with a repeated root too), then no rational root and
    lattice exclusion.  Every embedding of a root y in k is a real root
    of p; only the balanced assignments (``_balanced_assignments``) are
    tried, since an irrational y can realise no other; each candidate is
    still verified exactly.
    """
    if p.is_zero or not p.is_monic:
        raise ValueError("expected a monic polynomial")
    num, den = p.num, p.den
    d, n = p.degree, field.degree
    if d == 1:
        return SearchOutcome(_element(field, [-num[0]] + [0] * (n - 1), den))
    # q(x) = s^d p(x / s), monic and integral for s the lcm of the
    # denominators of p's coefficients; its roots are the s * y
    s = math.lcm(*(den // math.gcd(a, den) for a in num))
    q = Poly([a * s ** (d - i) // den for i, a in enumerate(num)])
    if _residue_obstruction(field, q) is not None:
        return SearchOutcome(None)
    roots = _narrow_roots(q)
    rational = _integer_roots(roots)
    if rational:
        return SearchOutcome(_element(field, [rational[0]] + [0] * (n - 1), s))

    def enclose(w, thetas):
        roots[:] = [refine_root(r, w) for r in roots]
        return [[r.scaled for r in roots]] * n

    def is_root(y: FieldElement) -> bool:
        # Horner on q's integers: adding c to x = (a, e) adds c * e to a_0,
        # the coordinate of omega_0 = 1, and keeps gcd 1
        acc = y
        for c in q.num[-2:0:-1]:
            a = acc.num
            acc = FieldElement(field, (a[0] + c * acc.den,) + a[1:], acc.den) * y
        return acc.num[0] + q.num[0] * acc.den == 0 and not any(acc.num[1:])

    y = _lattice_root(field, enclose, _balanced_assignments(len(roots), n), is_root)
    return SearchOutcome(None if y is None else _element(field, y.num, y.den * s))


def _balanced_assignments(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """The assignments of d roots to n embeddings, in lexicographic order,
    that an irrational y in k can realise: a set S of |S| >= 2 roots, each
    used exactly n / |S| times.

    The n embeddings of k restrict to each of the e = [Q(y):Q] embeddings
    of Q(y) exactly n / e times, and the conjugates of y are e distinct
    roots; e = 1 is the rational case, decided before any assignment."""
    for assign in itertools.product(range(d), repeat=n):
        used = set(assign)
        if len(used) > 1 and all(assign.count(j) * len(used) == n for j in used):
            yield assign
