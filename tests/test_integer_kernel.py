"""The integer real layer against Fraction references.

``refine_root``, ``horner_scaled``, ``_lattice_root`` (with the
interval helpers ``_imul``/``_isum``), ``_cyclotomic_coeffs`` and
``cos_trace_min_poly`` run on integers; the references below are their
Fraction forms.  Every endpoint, pin and return value must be the same
rational; the reference ``contains_root_of`` has its own form of the
residue-field certificate, which decides an absence before any embedding
is refined.
"""

import itertools
import math
import operator
import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from hilmod.exactnum import (Poly, RootInterval, ScaledInterval, _nonroot_point, horner_scaled,
                             integer_coords, isolate_real_roots, refine_root)
from hilmod.modgrp import (_cos_trace_from_cyclotomic, _cyclotomic_coeffs, _cyclotomic_table,
                           cos_trace_min_poly, torsion_orders)
from hilmod.numfield import (RESIDUE_PRIME_BOUND, NumberField, _balanced_assignments,
                             _residue_obstruction, contains_root_of, has_square_root)
from refpoly import (REF_SPLITS, RefPoly, mat_inverse, power_coords, ref_isolate_real_roots,
                     ref_nonroot_point, root_interval, scaled_of)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


# -- Fraction references -------------------------------------------------


def ref_refine_root(r: RootInterval, width: Fraction) -> RootInterval:
    width = Fraction(width)
    if r.width <= width or r.low == r.high:
        return r
    p = RefPoly(r.polynomial.coeffs)
    lo, hi = r.low, r.high
    slo = _sign(p(lo))
    if slo == 0:
        return root_interval(p, lo, lo, r.index)
    if p(hi) == 0:
        return root_interval(p, hi, hi, r.index)
    while hi - lo > width:
        m = (lo + hi) / 2
        sm = _sign(p(m))
        if sm == 0:
            return root_interval(p, m, m, r.index)
        if sm == slo:
            lo = m
        else:
            hi = m
    return root_interval(p, lo, hi, r.index)


def ref_eval_interval(p: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    alo, ahi = Fraction(0), Fraction(0)
    for c in reversed(p.coeffs):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def _imul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(p), max(p)


def _isum(ivs):
    ivs = list(ivs)
    return sum(lo for lo, _ in ivs), sum(hi for _, hi in ivs)


class RefField:
    """A field's embeddings isolated and refined by the Fraction references
    only.  As in the library, each loop refines its own copy of the
    load-time intervals ``roots``."""

    def __init__(self, spec):
        self.field = NumberField(*spec)
        self.roots = [ref_refine_root(r, Fraction(1, 2))
                      for r in isolate_real_roots(self.field.min_poly)]
        n = self.field.degree
        t = [[self.field.from_power([0] * (j + l) + [1]).trace() for l in range(n)]
             for j in range(n)]
        self.tinv = mat_inverse(t)
        self.den = abs(RefPoly(self.field.min_poly.coeffs).discriminant())

    def embed_sign(self, x, i):
        if x.is_zero:
            return 0
        q = RefPoly(power_coords(x))
        r = self.roots[i]
        while True:
            lo, hi = ref_eval_interval(q, r.low, r.high)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if r.low == r.high:
                return 1 if q(r.low) > 0 else -1
            r = ref_refine_root(r, r.width / 4)

    def embed_interval(self, x, i, width):
        q = Poly(power_coords(x))
        r = ref_refine_root(self.roots[i], width)
        while True:
            lo, hi = ref_eval_interval(q, r.low, r.high)
            if hi - lo <= width:
                return lo, hi
            r = ref_refine_root(r, r.width / 4)

    def lattice_root(self, enclose, assignments, verify):
        field, tinv, den = self.field, self.tinv, self.den
        n = field.degree
        thetas = list(self.roots)
        for assign in assignments:
            w = Fraction(1, 4 * den)
            while True:
                allowed = enclose(w)
                thetas = [ref_refine_root(r, w) for r in thetas]
                u = [(Fraction(0), Fraction(0))] * n
                for i, j in enumerate(assign):
                    r = thetas[i]
                    power = allowed[i][j]
                    for l in range(n):
                        u[l] = _isum((u[l], power))
                        power = _imul(power, (r.low, r.high))
                coords = [_isum(_imul((x, x), ul) for x, ul in zip(row, u)) for row in tinv]
                pins = [(math.ceil(lo * den), math.floor(hi * den)) for lo, hi in coords]
                if any(a > b for a, b in pins):
                    break
                if all(a == b for a, b in pins):
                    y = field.from_power(*integer_coords([Fraction(a, den) for a, _ in pins]))
                    if verify(y):
                        return y
                    break
                widest = max(hi - lo for lo, hi in coords)
                w /= 2 ** max(1, math.ceil(2 * den * widest).bit_length())
        return None

    def has_square_root(self, c):
        field = self.field
        if c.is_zero:
            return field.zero()
        n = field.degree
        if any(self.embed_sign(c, i) < 0 for i in range(n)):
            return None
        nm = c.norm()
        if nm < 0 or isqrt(nm.numerator) ** 2 != nm.numerator \
                or isqrt(nm.denominator) ** 2 != nm.denominator:
            return None
        s = math.lcm(*(x.denominator for x in power_coords(c)))
        cs = c * (s * s)

        def enclose(w):
            out = []
            for i in range(n):
                lo, hi = self.embed_interval(cs, i, w)
                b = math.ceil(1 / w).bit_length()
                low = Fraction(isqrt(math.floor(max(lo, Fraction(0)) * 4 ** b)), 2 ** b)
                high = Fraction(isqrt(math.ceil(hi * 4 ** b)) + 1, 2 ** b)
                out.append(((low, high), (-high, -low)))
            return out

        signs = ((0,) + rest for rest in itertools.product((0, 1), repeat=n - 1))
        y = self.lattice_root(enclose, signs, lambda y: y * y == cs)
        return None if y is None else y * Fraction(1, s)

    def contains_root_of(self, p):
        field = self.field
        n, d = field.degree, p.degree
        s = math.lcm(*(a.denominator for a in p.coeffs))
        q = RefPoly([a * s ** (d - i) for i, a in enumerate(p.coeffs)])
        if d > 1 and ref_residue_obstruction(field.min_poly, q) is not None:
            return None
        roots = [ref_refine_root(r, Fraction(1, 2)) for r in isolate_real_roots(q)]
        rational = [m for r in roots for m in range(math.ceil(r.low), math.floor(r.high) + 1)
                    if q(m) == 0]
        if rational:
            return field.one() * Fraction(rational[0], s)

        def enclose(w):
            roots[:] = [ref_refine_root(r, w) for r in roots]
            return [[(r.low, r.high) for r in roots]] * n

        def is_root(y):
            acc = field.zero()
            for a in reversed(q.coeffs):
                acc = acc * y + field.one() * a
            return acc.is_zero

        y = self.lattice_root(enclose, ref_balanced_assignments(len(roots), n), is_root)
        return None if y is None else y * Fraction(1, s)


def ref_residue_obstruction(f, q):
    """The first prime p < RESIDUE_PRIME_BOUND with p not dividing disc(f),
    f having a root mod p and q none, by trial division and evaluation at
    every residue; None if there is no such p.  f and q are monic integer
    polynomials, evaluated on their integer coefficients."""
    disc = RefPoly(f.coeffs).discriminant()
    assert f.den == q.den == 1
    fs, qs = f.num, q.num

    def value(cs, x):
        return sum(c * x ** i for i, c in enumerate(cs))

    for p in range(2, RESIDUE_PRIME_BOUND):
        if any(p % k == 0 for k in range(2, p)) or disc % p == 0:
            continue
        if any(value(fs, x) % p == 0 for x in range(p)) and all(value(qs, x) % p
                                                              for x in range(p)):
            return p
    return None


def ref_balanced_assignments(d: int, n: int):
    """The full enumeration of assignments of d roots to n embeddings,
    filtered to those using at least two roots, each equally often."""
    for assign in itertools.product(range(d), repeat=n):
        used = set(assign)
        if len(used) > 1 and len({assign.count(j) for j in used}) == 1:
            yield assign


def ref_cyclotomic(m: int) -> RefPoly:
    p = RefPoly([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            p = p.divmod(ref_cyclotomic(d))[0]
    return p


def ref_cos_trace_min_poly(m: int) -> RefPoly:
    if m == 1:
        return RefPoly([-2, 1])
    if m == 2:
        return RefPoly([2, 1])
    phi = ref_cyclotomic(m)
    s = phi.degree // 2
    residual = phi
    coeffs = [Fraction(0)] * (s + 1)
    for j in range(s, -1, -1):
        cs = residual.coeffs
        c = cs[s + j] if len(cs) > s + j else Fraction(0)
        coeffs[j] = c
        residual = residual - (RefPoly([0] * (s - j) + [1]) * RefPoly([1, 0, 1]) ** j).scale(c)
    assert residual.is_zero
    return RefPoly(coeffs)


# -- refine_root and horner_scaled ---------------------------------------


def _same(a: RootInterval, b: RootInterval) -> bool:
    return (a.low, a.high, a.index) == (b.low, b.high, b.index)


def _random_poly(rng: random.Random) -> RefPoly:
    """A product of linear factors b x - a and a root-free quadratic."""
    p = RefPoly([rng.randint(1, 5), rng.randint(-2, 2), 1 + rng.randint(0, 3)])
    p = p * RefPoly([p.coeffs[0] + p.coeffs[1] ** 2, 0, 1])  # no real roots
    for _ in range(rng.randint(1, 3)):
        p = p * RefPoly([-rng.randint(-12, 12), rng.randint(1, 5)])
    return p


def _bracket(rng: random.Random, p: Poly) -> tuple[Fraction, Fraction]:
    """An interval with endpoints over 3, 5 or 7 on which p changes sign
    (or vanishes at an endpoint)."""
    while True:
        a = Fraction(rng.randint(-60, 60), rng.choice((3, 5, 7)))
        b = a + Fraction(rng.randint(1, 40), rng.choice((3, 5, 7)))
        if p(a) * p(b) <= 0:
            return a, b


def test_refine_root_non_dyadic_intervals():
    rng = random.Random(21)
    checked = 0
    for _ in range(200):
        p = _random_poly(rng)
        if not p.is_squarefree():
            continue
        lo, hi = _bracket(rng, p)
        r = root_interval(p, lo, hi, 0)
        for width in (Fraction(1, 2), Fraction(1, 3 * 10 ** 4), Fraction(2, 7 ** 30)):
            assert _same(refine_root(r, width), ref_refine_root(r, width))
        checked += 1
    assert checked > 150


def test_refine_root_isolation_splits():
    # the first midpoint 0 is a root, so isolation splits at 1/3 of the
    # span: endpoints in thirds, ninths, ... (and fifths for the quintic)
    rng = random.Random(22)
    for p in (RefPoly([0, -3, 0, 1]), RefPoly([0, -7, 0, 1]), RefPoly([0, 4, 0, -5, 0, 1]),
              RefPoly([0, -3, 0, 1]) * RefPoly([-7, 0, 1])):
        roots = isolate_real_roots(p)
        assert any(r.low.denominator % 3 == 0 or r.low.denominator % 5 == 0 for r in roots)
        for r in roots:
            for _ in range(4):
                width = Fraction(1, rng.randint(1, 10 ** rng.randint(1, 40)))
                assert _same(refine_root(r, width), ref_refine_root(r, width))


def test_refine_root_exact_midpoint_hits():
    rng = random.Random(23)
    hits = 0
    for _ in range(150):
        lo = Fraction(rng.randint(-30, 30), rng.choice((1, 3, 5)))
        hi = lo + Fraction(rng.randint(1, 20), rng.choice((1, 3, 5)))
        t = rng.randint(1, 12)
        root = lo + (hi - lo) * Fraction(2 * rng.randint(0, 2 ** (t - 1) - 1) + 1, 2 ** t)
        p = RefPoly([-root.numerator, root.denominator]) * RefPoly([1, 0, 1])
        r = root_interval(p, lo, hi, 0)
        got, want = refine_root(r, Fraction(1, 10 ** 6)), ref_refine_root(r, Fraction(1, 10 ** 6))
        assert _same(got, want)
        hits += got.low == got.high
    assert hits == 150
    # a root at an endpoint is returned at once
    p = Poly([-1, 3])
    for r in (root_interval(p, Fraction(1, 3), Fraction(2, 5), 0),
              root_interval(p, Fraction(-1, 5), Fraction(1, 3), 0)):
        assert _same(refine_root(r, Fraction(1, 100)), ref_refine_root(r, Fraction(1, 100)))


def test_refine_root_negative_and_straddling():
    rng = random.Random(24)
    for _ in range(100):
        p = _random_poly(rng)
        if not p.is_squarefree():
            continue
        for r in isolate_real_roots(p):
            for lo, hi in ((r.low, r.high), (r.low - Fraction(1, 3), r.high + Fraction(2, 5))):
                s = root_interval(p, lo, hi, r.index)
                width = Fraction(1, rng.choice((3, 5, 7)) ** rng.randint(1, 25))
                assert _same(refine_root(s, width), ref_refine_root(s, width))
    # a negative interval and one straddling 0
    p = Poly([-2, 0, 1])
    for lo, hi in ((Fraction(-8, 5), Fraction(-4, 3)), (Fraction(-1, 3), Fraction(8, 5))):
        q = p if lo < -1 else Poly([-1, 5])
        r = root_interval(q, lo, hi, 0)
        assert _same(refine_root(r, Fraction(1, 10 ** 9)), ref_refine_root(r, Fraction(1, 10 ** 9)))


def test_nonroot_point_fallbacks_match_reference():
    """p vanishes at the first k split points of (a/d, b/d), so the integer
    _nonroot_point must return the (k+1)-th, as the Fraction reference
    does; isolation on the same p must give the reference intervals."""
    rng = random.Random(28)
    leads = (1, -1, 2, -3, Fraction(1, 7), Fraction(-5, 3))
    for k in range(7):
        for _ in range(12):
            d = rng.choice((1, 2, 3, 4, 6, 7, 10))
            a = rng.randint(-30, 30)
            b = a + rng.randint(1, 25)
            lo, hi = Fraction(a, d), Fraction(b, d)
            p = RefPoly([rng.choice(leads)])
            for num, den in REF_SPLITS[:k]:
                root = lo + (hi - lo) * Fraction(num, den)
                p = p * RefPoly([-root.numerator, root.denominator])
            t = rng.randint(-3, 3)
            p = p * RefPoly([t * t + rng.randint(1, 4), 2 * t, 1])  # (x + t)^2 + s, s > 0
            u, v = _nonroot_point(p, a, b, d)
            num, den = REF_SPLITS[k]
            assert v % d == 0
            assert Fraction(u, v) == ref_nonroot_point(p, lo, hi) == lo + (hi - lo) * Fraction(num, den)
            assert [(r.low, r.high, r.index) for r in isolate_real_roots(p)] == \
                [(r.low, r.high, r.index) for r in ref_isolate_real_roots(p)], p


def test_eval_interval_matches_fraction_horner():
    rng = random.Random(25)
    for _ in range(400):
        p = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                  for _ in range(rng.randint(0, 7))])
        kind = rng.randrange(4)
        a = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 7, 9)))
        b = a + Fraction(rng.randint(0, 30), rng.choice((1, 3, 5, 7)))
        if kind == 0:
            a, b = -abs(b) - 1, -abs(a) - Fraction(1, 3) - abs(b)  # negative
            a, b = min(a, b), max(a, b)
        elif kind == 1:
            a, b = -abs(a) - Fraction(1, 5), abs(b) + Fraction(1, 7)  # straddling 0
        elif kind == 2:
            b = a  # degenerate
        assert horner_scaled(p.num, p.den, scaled_of(a, b)).fractions() \
            == ref_eval_interval(p, a, b)


# -- in-field root searches -----------------------------------------------


_SPECS = {
    "sqrt2": (Poly([-2, 0, 1]),),
    "sqrt5": (Poly([-5, 0, 1]), [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]),
    "cubic": (Poly([1, -2, -1, 1]),),
}


def _char_poly(y) -> RefPoly:
    """prod_i (x - sigma_i(y)), from the power sums Tr(y^k) (Newton)."""
    n = y.field.degree
    p = [None] + [w.trace() for w in itertools.accumulate([y] * n, operator.mul)]
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) / k)
    return RefPoly([(-1) ** (n - k) * e[n - k] for k in range(n + 1)])


def _coords(y):
    return None if y is None else y.coords


def test_has_square_root_matches_reference():
    rng = random.Random(26)
    for name, spec in _SPECS.items():
        new, ref = NumberField(*spec), RefField(spec)
        n = new.degree
        for k in range(40):
            x = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            c = new.element(x)
            if k % 2 == 0:
                c = c * c  # a square
            elif k % 4 == 1:
                c = c * c * new.element([rng.randint(2, 7)] + [0] * (n - 1))
            got = has_square_root(c).value
            want = ref.has_square_root(ref.field.element(c.coords))
            assert _coords(got) == _coords(want), (name, c)


def test_balanced_assignments_match_reference():
    """The filtered enumeration keeps lexicographic order and drops
    exactly the assignments no irrational root can realise."""
    for d in range(1, 6):
        for n in range(1, 7):
            assert list(_balanced_assignments(d, n)) == list(ref_balanced_assignments(d, n))
    assert list(_balanced_assignments(3, 4)) == [
        a for a in itertools.product(range(3), repeat=4)
        if sorted(a.count(j) for j in set(a)) == [2, 2]]
    assert len(list(_balanced_assignments(6, 6))) == 15 * 20 + 20 * 90 + 720


def test_contains_root_of_matches_reference():
    rng = random.Random(27)
    for name, spec in _SPECS.items():
        new, ref = NumberField(*spec), RefField(spec)
        n = new.degree
        polys = [cos_trace_min_poly(m) for m in range(1, 17)]
        for _ in range(12):
            y = new.element([Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(n)])
            if not y.is_zero and _char_poly(y).is_squarefree():
                polys.append(_char_poly(y))  # every root lies in k
            c = Fraction(rng.randint(2, 30), rng.choice((1, 4, 9, 3)))
            polys.append(Poly([-c, 0, 1]))
        for p in polys:
            got = contains_root_of(new, p).value
            want = ref.contains_root_of(p)
            assert _coords(got) == _coords(want), (name, p)


# -- cyclotomic polynomials -----------------------------------------------


def test_residue_obstruction_matches_reference(sqrt2, sqrt5, cubic7):
    """``_residue_obstruction`` against ``ref_residue_obstruction`` on
    psi_m = the minimal polynomial of 2cos(2pi/m) for m <= 60, on seeded
    monic polynomials with integer roots (a root mod every p, so never
    obstructed) and with repeated roots, and on q with 4000-digit
    coefficients, which the product kept modulo the primes decides in
    bounded time."""
    rng = random.Random(61)
    qs = [cos_trace_min_poly(m) for m in range(1, 61)]
    for _ in range(24):
        roots = [rng.randint(-60, 60) for _ in range(rng.randint(2, 6))]
        split = RefPoly([1])
        for r in roots:
            split = split * RefPoly([-r, 1])
        c = rng.randint(2, 40)
        qs += [split, split * RefPoly([-roots[0], 1]),  # integer roots, one repeated
               RefPoly([-c, 0, 1]) ** 2 * RefPoly([-roots[1], 1]),  # repeated sqrt(c)
               RefPoly([-c, 0, 1]) * RefPoly([rng.randint(-9, 9), rng.randint(-9, 9), 0, 1])]
    big = 10 ** 3999
    n1, n2 = big + rng.randrange(big), big + rng.randrange(big)
    huge = [RefPoly([rng.randrange(big, 10 * big), rng.randrange(big, 10 * big), 1]),
            RefPoly([n1, 0, 1]), RefPoly([-n1, 1]) * RefPoly([-n2, 1])]  # the last splits
    ct15 = NumberField(cos_trace_min_poly(15))
    outcomes = set()
    for field in (sqrt2, sqrt5, cubic7, ct15):
        for q in qs + huge:
            got = _residue_obstruction(field, q)
            assert got == ref_residue_obstruction(field.min_poly, q), (field, q)
            outcomes.add(got is None)
        for q in huge:
            t = time.perf_counter()
            _residue_obstruction(field, q)
            assert time.perf_counter() - t < 1.0
        assert _residue_obstruction(field, huge[2]) is None
    assert outcomes == {True, False}


def test_cyclotomic_polynomials_match_reference():
    table = _cyclotomic_table(range(1, 61))  # the one pass torsion_orders makes
    for m in range(1, 61):
        assert Poly(_cyclotomic_coeffs(m)) == ref_cyclotomic(m) == Poly(table[m])
        assert cos_trace_min_poly(m) == ref_cos_trace_min_poly(m)
        if m > 2:
            assert _cos_trace_from_cyclotomic(table[m]) == ref_cos_trace_min_poly(m)
            assert Poly(table[m]) == ref_cyclotomic(m)  # the table is left as it was


def test_field_info_enclosures_after_torsion_search():
    """The enclosures field-info prints, refined from the load-time
    intervals, after a torsion search on the same field object, as Fraction
    bisection gives them."""
    want = {
        "sqrt2": [("-2965821/2097152", "-5931639/4194304"),
                  ("5931639/4194304", "2965821/2097152")],
        "sqrt5": [("-4689375/2097152", "-9378747/4194304"),
                  ("9378747/4194304", "4689375/2097152")],
        "cubic": [("-1307553/1048576", "-5230209/4194304"),
                  ("1866639/4194304", "933321/2097152"),
                  ("7557873/4194304", "1889469/1048576")],
    }
    for name, spec in _SPECS.items():
        field = NumberField(*spec)
        torsion_orders(field, 18)
        got = [refine_root(r, Fraction(1, 10 ** 6)) for r in field.root_intervals]
        assert [(str(r.low), str(r.high)) for r in got] == want[name]


def test_scaled_division_matches_fraction_intervals():
    rng = random.Random(13)

    def interval(nonzero=False):
        while True:
            lo, hi = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2))
            if not nonzero or lo > 0 or hi < 0:
                return lo, hi

    for _ in range(300):
        (a, b), (c, d) = interval(), interval(nonzero=True)
        quotients = (a / c, a / d, b / c, b / d)
        got = scaled_of(a, b).divided_by(scaled_of(c, d))
        assert got.fractions() == (min(quotients), max(quotients))
    with pytest.raises(ZeroDivisionError):
        ScaledInterval(1, 2, 1).divided_by(ScaledInterval(0, 3, 2))
