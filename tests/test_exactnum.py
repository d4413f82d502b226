import random
from fractions import Fraction

import pytest

from hilmod.exactnum import (
    NotSquarefree,
    Poly,
    RootInterval,
    ScaledInterval,
    isolate_real_roots,
    refine_root,
)


def test_poly_normal_form():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([]).is_zero
    assert Poly([0]).is_zero
    assert Poly([0, 1]).degree == 1


def test_ring_ops():
    p = Poly([1, 1])  # 1 + x
    q = Poly([-1, 1])
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert (p - p).is_zero
    assert p ** 3 == Poly([1, 3, 3, 1])
    assert Poly([2, 4]).monic() == Poly([Fraction(1, 2), 1])


def test_divmod_identity():
    rng = random.Random(1)
    for _ in range(100):
        a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
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
    p = Poly([-2, 0, 1])
    assert p.derivative() == Poly([0, 2])
    assert p.is_squarefree()
    sq = p * p
    assert not sq.is_squarefree()
    assert sq.squarefree_part().monic() == p


def test_discriminant_and_resultant():
    assert Poly([-2, 0, 1]).discriminant() == 8
    assert Poly([1, 1, 1]).discriminant() == -3
    # shared root makes the resultant vanish
    assert Poly([-1, 1]).resultant(Poly([-1, 0, 1])) == 0


def test_isolate_sqrt2():
    roots = isolate_real_roots(Poly([-2, 0, 1]))
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
    sq = Poly([-2, 0, 1]) * Poly([-2, 0, 1])
    with pytest.raises(NotSquarefree):
        isolate_real_roots(sq)


def test_root_count_against_constructed_oracle():
    # products of distinct linear factors and real-root-free quadratics
    # give an exactly known real root count
    rng = random.Random(3)
    for _ in range(300):
        lin = rng.sample(range(-6, 7), rng.randint(0, 4))
        p = Poly([1])
        for r in lin:
            p = p * Poly([-r, 1])
        for _ in range(rng.randint(0, 2)):
            b = rng.randint(-3, 3)
            c = rng.randint(1, 5)
            if b * b - 4 * c >= 0:
                continue
            p = p * Poly([c, b, 1])
        if not p.is_squarefree():
            continue
        found = isolate_real_roots(p)
        assert len(found) == len(lin)
        got = sorted(refine_root(r, Fraction(1, 1000)).midpoint for r in found)
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
    r = RootInterval(Poly([-1, 0, 1]), Fraction(0), Fraction(2), 1)
    out = refine_root(r, Fraction(1, 2))
    assert out.is_exact and out.low == 1


def test_eval_interval_encloses():
    rng = random.Random(4)
    for _ in range(100):
        p = Poly([rng.randint(-4, 4) for _ in range(5)])
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        b = a + Fraction(rng.randint(0, 8), rng.randint(1, 4))
        lo, hi = p.eval_scaled(ScaledInterval.of(a, b)).fractions()
        for t in (a, b, (a + b) / 2):
            assert lo <= p(t) <= hi


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def test_sign_at_matches_rational_horner():
    rng = random.Random(9)
    for _ in range(300):
        p = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                  for _ in range(rng.randint(0, 7))])
        points = [Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(5)]
        # exact roots: p times a linear factor (b x - a) vanishes at a/b
        a, b = rng.randint(-20, 20), rng.randint(1, 9)
        points += [Fraction(a, b), rng.randint(-3, 3)]
        for q in (p, p * Poly([-a, b])):
            for x in points:
                assert q.sign_at(x) == _sign(q(x))
        assert (p * Poly([-a, b])).sign_at(Fraction(a, b)) == 0


def test_json_roundtrip():
    p = Poly([Fraction(-2), Fraction(0), Fraction(1, 3)])
    assert Poly.from_json(p.to_json()) == p
    assert Poly([-2, 0, 1]).to_json() == ["-2/1", "0/1", "1/1"]
