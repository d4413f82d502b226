import math
import random
from fractions import Fraction

import pytest

from hilmod.exactnum import (
    NotSquarefree,
    Poly,
    _sturm_sequence,
    horner_scaled,
    isolate_real_roots,
    rational_from_string,
    refine_root,
)
from hilmod.modgrp import cos_trace_min_poly
from hilmod.numfield import NumberField
from refpoly import RefPoly, ref_isolate_real_roots, root_interval, scaled_of


def test_poly_normal_form():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([]).is_zero
    assert Poly([0]).is_zero
    assert Poly([0, 1]).degree == 1


def test_poly_canonical_form():
    """Integer numerators over one positive denominator, gcd 1, no
    trailing zero numerator, whatever the coefficients were given as."""
    rng = random.Random(17)
    for _ in range(300):
        cs = [Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 9, 25)))
              for _ in range(rng.randint(0, 7))]
        cs += [0] * rng.randint(0, 2)
        p = Poly(cs)
        assert p.den > 0 and math.gcd(p.den, *p.num) == 1
        assert not p.num or p.num[-1] != 0
        assert all(type(a) is int for a in p.num) and type(p.den) is int
        trimmed = list(cs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert p.coeffs == tuple(Fraction(c) for c in trimmed)
        for q in (Poly([str(c) for c in cs]), Poly(p.coeffs), Poly(c * 1 for c in cs)):
            assert q == p and hash(q) == hash(p) and (q.num, q.den) == (p.num, p.den)
    assert (Poly([]).num, Poly([]).den) == ((), 1) == (Poly(["0/5"]).num, Poly(["0/5"]).den)
    ints, fracs, strs = (Poly([-2, 0, 1]), Poly([Fraction(-4, 2), Fraction(0, 3), Fraction(1)]),
                         Poly(["-2", "0/7", "3/3", "0"]))
    assert ints == fracs == strs and hash(ints) == hash(fracs) == hash(strs)
    assert (ints.num, ints.den) == ((-2, 0, 1), 1)
    assert Poly([Fraction(1, 2), 3]) == Poly(["2/4", "6/2"]) and Poly(["1/2", 3]).den == 2
    assert Poly([Fraction(1, 2), 3]) != Poly([1, 6])  # same numerators, other denominator
    assert strs.to_json() == ["-2/1", "0/1", "1/1"]
    assert Poly([Fraction(-6, 4), 0, Fraction(1, 3)]).to_json() == ["-3/2", "0/1", "1/3"]


def test_ring_ops():
    p = RefPoly([1, 1])  # 1 + x
    q = RefPoly([-1, 1])
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert (p - p).is_zero
    assert p ** 3 == Poly([1, 3, 3, 1])
    assert RefPoly([2, 4]).monic() == Poly([Fraction(1, 2), 1])


def test_divmod_identity():
    rng = random.Random(1)
    for _ in range(100):
        a = RefPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        b = RefPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_exact_rational_arithmetic():
    rng = random.Random(2)
    for _ in range(200):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a


def test_derivative_gcd_squarefree():
    p = RefPoly([-2, 0, 1])
    assert p.derivative() == Poly([0, 2])
    assert p.is_squarefree()
    sq = p * p
    assert not sq.is_squarefree()
    assert sq.squarefree_part().monic() == p


def test_discriminant_and_resultant(sqrt2, sqrt5, cubic7):
    # the field discriminant is det of the trace form: disc(min_poly)
    quartic = NumberField(Poly([9, 0, -14, 0, 1]))
    assert [k.discriminant() for k in (sqrt2, sqrt5, cubic7, quartic)] == [8, 20, 49, 3686400]
    for m in range(1, 41):
        p = cos_trace_min_poly(m)
        assert NumberField(p).discriminant() == RefPoly(p.coeffs).discriminant()
    # the Fraction reference
    assert RefPoly([-2, 0, 1]).discriminant() == 8
    assert RefPoly([1, 1, 1]).discriminant() == -3
    # shared root makes the resultant vanish
    assert RefPoly([-1, 1]).resultant(Poly([-1, 0, 1])) == 0


def _sturm_inputs() -> list[Poly]:
    """cos_trace_min_poly(m) for m <= 40, the four test fields and 300
    seeded polynomials: random coefficients, some sparse; products of
    linear factors with a quadratic; products with a squared factor; and
    trinomials s x^n + a x + b, whose remainders drop several degrees."""
    rng = random.Random(31)
    polys = [cos_trace_min_poly(m) for m in range(1, 41)]
    polys += [Poly(c) for c in ([-2, 0, 1], [-5, 0, 1], [1, -2, -1, 1], [9, 0, -14, 0, 1])]

    def rand(deg):
        zeros = rng.choice((0, 0, 2, 3))
        return RefPoly([Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 7)))
                        if rng.randrange(4) >= zeros else 0 for _ in range(deg + 1)])

    drawn = []
    while len(drawn) < 300:
        k = len(drawn)
        if k % 4 == 0:
            p = rand(rng.randint(0, 8))
        elif k % 4 == 1:
            p = rand(2)
            for _ in range(rng.randint(1, 5)):
                p = p * RefPoly([rng.randint(-9, 9), rng.choice((1, -1, 2, 3))])
        elif k % 4 == 2:
            p = rand(rng.randint(0, 3)) * rand(rng.randint(1, 2)) ** 2
        else:
            s, a, b = (rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3))
            p = RefPoly([b, a] + [0] * rng.randint(1, 6) + [s])
        if not p.is_zero:
            drawn.append(Poly(p.coeffs))
    return polys + drawn


def test_integer_sturm_sequence_matches_fraction_chain():
    # steps whose pseudo-remainder scales by an odd power of a negative
    # leading coefficient, where |lc| and lc differ in sign
    odd_negative = repeated = 0
    for p in _sturm_inputs():
        ref = RefPoly(p.coeffs).sturm_chain()
        got = _sturm_sequence(p.num)
        assert len(got) == len(ref), p
        for cs, f in zip(got, ref):
            want = f.coeffs  # ascending, as the library stores them
            c = cs[-1] / want[-1]
            assert c > 0 and [Fraction(x) for x in cs] == [c * x for x in want], p
        odd_negative += any((a.degree - b.degree) % 2 == 0 and b.leading < 0
                            for a, b in zip(ref, ref[1:-1]))
        if ref[-1].degree != 0:
            repeated += 1
            with pytest.raises(NotSquarefree):
                isolate_real_roots(p)
            continue
        assert [(r.low, r.high, r.index) for r in isolate_real_roots(p)] == \
            [(r.low, r.high, r.index) for r in ref_isolate_real_roots(p)], p
    assert repeated >= 60 and odd_negative >= 15


def test_isolate_sqrt2():
    roots = isolate_real_roots(RefPoly([-2, 0, 1]))
    assert len(roots) == 2
    assert roots[0].index == 0 and roots[1].index == 1
    assert roots[0].high <= roots[1].low
    for r in roots:
        assert r.polynomial(r.low) * r.polynomial(r.high) <= 0


def test_isolate_no_real_roots():
    assert isolate_real_roots(Poly([1, 0, 1])) == []


def test_isolate_cos_2pi_7_cubic():
    # all three roots of the 2cos(pi/7) minimal polynomial are real
    roots = isolate_real_roots(Poly([1, -2, -1, 1]))
    assert len(roots) == 3


def test_isolate_rejects_repeated_roots():
    sq = RefPoly([-2, 0, 1]) * RefPoly([-2, 0, 1])
    with pytest.raises(NotSquarefree):
        isolate_real_roots(sq)


def test_root_count_against_constructed_oracle():
    # products of distinct linear factors and real-root-free quadratics
    # give an exactly known real root count
    rng = random.Random(3)
    for _ in range(300):
        lin = rng.sample(range(-6, 7), rng.randint(0, 4))
        p = RefPoly([1])
        for r in lin:
            p = p * RefPoly([-r, 1])
        for _ in range(rng.randint(0, 2)):
            b = rng.randint(-3, 3)
            c = rng.randint(1, 5)
            if b * b - 4 * c >= 0:
                continue
            p = p * RefPoly([c, b, 1])
        if not p.is_squarefree():
            continue
        found = isolate_real_roots(p)
        assert len(found) == len(lin)
        fine = [refine_root(r, Fraction(1, 1000)) for r in found]
        got = sorted((r.low + r.high) / 2 for r in fine)
        for root, enc in zip(sorted(lin), got):
            assert abs(enc - root) <= Fraction(1, 1000)


def test_refine_root():
    r = isolate_real_roots(Poly([-2, 0, 1]))[1]
    fine = refine_root(r, Fraction(1, 100))
    assert fine.width <= Fraction(1, 100)
    assert fine.index == r.index
    assert fine.low <= Fraction(1414214, 1000000) <= fine.high + Fraction(1, 100)
    # idempotent when already satisfied
    assert refine_root(fine, Fraction(1, 10)) is fine


def test_refine_exact_hit():
    # midpoint of [0, 2] is the root 1 of x^2 - 1
    r = root_interval(Poly([-1, 0, 1]), Fraction(0), Fraction(2), 1)
    out = refine_root(r, Fraction(1, 2))
    assert out.low == out.high == 1


def test_eval_interval_encloses():
    rng = random.Random(4)
    for _ in range(100):
        p = RefPoly([rng.randint(-4, 4) for _ in range(5)])
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        b = a + Fraction(rng.randint(0, 8), rng.randint(1, 4))
        lo, hi = horner_scaled(p.num, p.den, scaled_of(a, b)).fractions()
        for t in (a, b, (a + b) / 2):
            assert lo <= p(t) <= hi


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def test_sign_at_matches_rational_horner():
    rng = random.Random(9)
    for _ in range(300):
        p = RefPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                  for _ in range(rng.randint(0, 7))])
        points = [Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(5)]
        # exact roots: p times a linear factor (b x - a) vanishes at a/b
        a, b = rng.randint(-20, 20), rng.randint(1, 9)
        points += [Fraction(a, b), rng.randint(-3, 3)]
        for q in (p, p * RefPoly([-a, b])):
            for x in points:
                assert q.sign_num(x.numerator, x.denominator) == _sign(q(x))
        assert (p * RefPoly([-a, b])).sign_num(a, b) == 0


def test_json_roundtrip():
    p = Poly([Fraction(-2), Fraction(0), Fraction(1, 3)])
    assert Poly.from_json(p.to_json()) == p
    assert Poly([-2, 0, 1]).to_json() == ["-2/1", "0/1", "1/1"]


def test_rational_from_string_accepts_p_and_p_over_q():
    for text, want in (("7", 7), ("-3/4", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)),
                       ("0/5", 0), ("-0", 0), ("007/010", Fraction(7, 10))):
        assert rational_from_string(text) == want, text


@pytest.mark.parametrize("text", [
    "0.5", ".5", "1.", "1e3", "-1e1000000", "1E3", "1_0", "1_000/2", "\u0661", "\u0661/2",
    " 1", "1 ", "1\n", "1 / 2", "1/-2", "1/+2", "--1", "+", "", "1/", "/2", "inf", "nan",
])
def test_rational_from_string_rejects_other_shapes(text):
    with pytest.raises(ValueError, match='"p" or "p/q"'):
        rational_from_string(text)


def test_rational_from_string_rejects_non_strings_and_zero_denominators():
    for value in (5, 0.5, None, ["1"]):
        with pytest.raises(ValueError, match='"p" or "p/q"'):
            rational_from_string(value)
    with pytest.raises(ValueError, match="zero denominator"):
        rational_from_string("-2/0")
