"""The integer real layer against Fraction references.

``refine_root``, ``Poly.eval_scaled``, ``_lattice_root`` (with the
interval helpers ``_imul``/``_isum``), ``cyclotomic`` and
``cos_trace_min_poly`` run on integers; the references below are their
Fraction forms.  Every endpoint, pin and return value must be the same
rational, and so must the refinement history a field keeps.
"""

import itertools
import math
import random
from fractions import Fraction
from math import isqrt

import pytest

from hilmod.exactnum import Poly, RootInterval, ScaledInterval, isolate_real_roots, refine_root
from hilmod.modgrp import cos_trace_min_poly, cyclotomic, torsion_orders
from hilmod.numfield import NumberField, contains_root_of, has_square_root, mat_inverse


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


# -- Fraction references -------------------------------------------------


def ref_refine_root(r: RootInterval, width: Fraction) -> RootInterval:
    width = Fraction(width)
    if r.width <= width or r.is_exact:
        return r
    p = r.polynomial
    lo, hi = r.low, r.high
    slo = _sign(p(lo))
    if slo == 0:
        return RootInterval(p, lo, lo, r.index)
    if p(hi) == 0:
        return RootInterval(p, hi, hi, r.index)
    while hi - lo > width:
        m = (lo + hi) / 2
        sm = _sign(p(m))
        if sm == 0:
            return RootInterval(p, m, m, r.index)
        if sm == slo:
            lo = m
        else:
            hi = m
    return RootInterval(p, lo, hi, r.index)


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
    """A field's embeddings refined by the Fraction references only; built
    from a fresh copy of the field, so its history is its own."""

    def __init__(self, spec):
        self.field = NumberField(*spec)
        self.field._embeddings = [ref_refine_root(r, Fraction(1, 2))
                                  for r in isolate_real_roots(self.field.min_poly)]
        n = self.field.degree
        t = [[self.field.from_power([0] * (j + l) + [1]).trace() for l in range(n)]
             for j in range(n)]
        self.tinv = mat_inverse(t)
        self.den = abs(self.field.min_poly.discriminant())

    def embedding(self, i, width=None):
        r = self.field._embeddings[i]
        if width is not None and r.width > width:
            r = self.field._embeddings[i] = ref_refine_root(r, width)
        return r

    def embed_sign(self, x, i):
        if x.is_zero:
            return 0
        q = x.power_poly()
        r = self.embedding(i)
        while True:
            lo, hi = ref_eval_interval(q, r.low, r.high)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if r.is_exact:
                return 1 if q(r.low) > 0 else -1
            r = self.embedding(i, r.width / 4)

    def embed_interval(self, x, i, width):
        q = x.power_poly()
        r = self.embedding(i)
        while True:
            lo, hi = ref_eval_interval(q, r.low, r.high)
            if hi - lo <= width:
                return lo, hi
            r = self.embedding(i, r.width / 4)

    def lattice_root(self, enclose, assignments, verify):
        field, tinv, den = self.field, self.tinv, self.den
        n = field.degree
        for assign in assignments:
            w = Fraction(1, 4 * den)
            while True:
                allowed = enclose(w)
                u = [(Fraction(0), Fraction(0))] * n
                for i, j in enumerate(assign):
                    r = self.embedding(i, w)
                    power = allowed[i][j]
                    for l in range(n):
                        u[l] = _isum((u[l], power))
                        power = _imul(power, (r.low, r.high))
                coords = [_isum(_imul((x, x), ul) for x, ul in zip(row, u)) for row in tinv]
                pins = [(math.ceil(lo * den), math.floor(hi * den)) for lo, hi in coords]
                if any(a > b for a, b in pins):
                    break
                if all(a == b for a, b in pins):
                    y = field.from_power([Fraction(a, den) for a, _ in pins])
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
        s = math.lcm(*(x.denominator for x in c.power_coords()))
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
        q = Poly([a * s ** (d - i) for i, a in enumerate(p.coeffs)])
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

        y = self.lattice_root(enclose, itertools.product(range(len(roots)), repeat=n), is_root)
        return None if y is None else y * Fraction(1, s)


def ref_cyclotomic(m: int) -> Poly:
    p = Poly([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            p = p.divmod(ref_cyclotomic(d))[0]
    return p


def ref_cos_trace_min_poly(m: int) -> Poly:
    if m == 1:
        return Poly([-2, 1])
    if m == 2:
        return Poly([2, 1])
    phi = ref_cyclotomic(m)
    s = phi.degree // 2
    residual = phi
    coeffs = [Fraction(0)] * (s + 1)
    for j in range(s, -1, -1):
        cs = residual.coeffs
        c = cs[s + j] if len(cs) > s + j else Fraction(0)
        coeffs[j] = c
        residual = residual - (Poly([0] * (s - j) + [1]) * Poly([1, 0, 1]) ** j).scale(c)
    assert residual.is_zero
    return Poly(coeffs)


# -- refine_root and eval_scaled -----------------------------------------


def _same(a: RootInterval, b: RootInterval) -> bool:
    return (a.low, a.high, a.index) == (b.low, b.high, b.index)


def _random_poly(rng: random.Random) -> Poly:
    """A product of linear factors b x - a and a root-free quadratic."""
    p = Poly([rng.randint(1, 5), rng.randint(-2, 2), 1 + rng.randint(0, 3)])
    p = p * Poly([p.coeffs[0] + p.coeffs[1] ** 2, 0, 1])  # no real roots
    for _ in range(rng.randint(1, 3)):
        p = p * Poly([-rng.randint(-12, 12), rng.randint(1, 5)])
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
        r = RootInterval(p, lo, hi, 0)
        for width in (Fraction(1, 2), Fraction(1, 3 * 10 ** 4), Fraction(2, 7 ** 30)):
            assert _same(refine_root(r, width), ref_refine_root(r, width))
        checked += 1
    assert checked > 150


def test_refine_root_isolation_splits():
    # the first midpoint 0 is a root, so isolation splits at 1/3 of the
    # span: endpoints in thirds, ninths, ... (and fifths for the quintic)
    rng = random.Random(22)
    for p in (Poly([0, -3, 0, 1]), Poly([0, -7, 0, 1]), Poly([0, 4, 0, -5, 0, 1]),
              Poly([0, -3, 0, 1]) * Poly([-7, 0, 1])):
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
        p = Poly([-root.numerator, root.denominator]) * Poly([1, 0, 1])
        r = RootInterval(p, lo, hi, 0)
        got, want = refine_root(r, Fraction(1, 10 ** 6)), ref_refine_root(r, Fraction(1, 10 ** 6))
        assert _same(got, want)
        hits += got.is_exact
    assert hits == 150
    # a root at an endpoint is returned at once
    p = Poly([-1, 3])
    for r in (RootInterval(p, Fraction(1, 3), Fraction(2, 5), 0),
              RootInterval(p, Fraction(-1, 5), Fraction(1, 3), 0)):
        assert _same(refine_root(r, Fraction(1, 100)), ref_refine_root(r, Fraction(1, 100)))


def test_refine_root_negative_and_straddling():
    rng = random.Random(24)
    for _ in range(100):
        p = _random_poly(rng)
        if not p.is_squarefree():
            continue
        for r in isolate_real_roots(p):
            for lo, hi in ((r.low, r.high), (r.low - Fraction(1, 3), r.high + Fraction(2, 5))):
                s = RootInterval(p, lo, hi, r.index)
                width = Fraction(1, rng.choice((3, 5, 7)) ** rng.randint(1, 25))
                assert _same(refine_root(s, width), ref_refine_root(s, width))
    # a negative interval and one straddling 0
    p = Poly([-2, 0, 1])
    for lo, hi in ((Fraction(-8, 5), Fraction(-4, 3)), (Fraction(-1, 3), Fraction(8, 5))):
        q = p if lo < -1 else Poly([-1, 5])
        r = RootInterval(q, lo, hi, 0)
        assert _same(refine_root(r, Fraction(1, 10 ** 9)), ref_refine_root(r, Fraction(1, 10 ** 9)))


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
        assert p.eval_scaled(ScaledInterval.of(a, b)).fractions() == ref_eval_interval(p, a, b)


# -- in-field root searches -----------------------------------------------


_SPECS = {
    "sqrt2": (Poly([-2, 0, 1]),),
    "sqrt5": (Poly([-5, 0, 1]), [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]),
    "cubic": (Poly([1, -2, -1, 1]),),
}


def _char_poly(y) -> Poly:
    """prod_i (x - sigma_i(y)), from the power sums Tr(y^k) (Newton)."""
    n = y.field.degree
    p = [None] + [(y ** k).trace() for k in range(1, n + 1)]
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) / k)
    return Poly([(-1) ** (n - k) * e[n - k] for k in range(n + 1)])


def _assert_same_history(new: NumberField, ref: RefField) -> None:
    assert [(r.low, r.high) for r in new._embeddings] == \
        [(r.low, r.high) for r in ref.field._embeddings]


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
            _assert_same_history(new, ref)


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
            _assert_same_history(new, ref)


# -- cyclotomic polynomials -----------------------------------------------


def test_cyclotomic_polynomials_match_reference():
    for m in range(1, 61):
        assert cyclotomic(m) == ref_cyclotomic(m)
        assert cos_trace_min_poly(m) == ref_cos_trace_min_poly(m)


def test_field_info_enclosures_after_torsion_search():
    """The enclosures field-info prints after a torsion search on the same
    field object, as Fraction bisection gives them."""
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
        got = [field.embedding(i, Fraction(1, 10 ** 6)) for i in range(field.degree)]
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
        got = ScaledInterval.of(a, b).divided_by(ScaledInterval.of(c, d))
        assert got.fractions() == (min(quotients), max(quotients))
    with pytest.raises(ZeroDivisionError):
        ScaledInterval(1, 2, 1).divided_by(ScaledInterval(0, 3, 2))
