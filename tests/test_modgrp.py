import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilmod.exactnum import Poly
from hilmod.modgrp import (
    IdentityElement,
    Mat2,
    NotUnimodular,
    check_sl,
    cos_trace_min_poly,
    cyclotomic,
    element_order,
    fixed_points,
    psl_normalize,
    torsion_orders,
)
from hilmod.classify import EmbeddingType, per_embedding_types

SQRT2 = str(Path(__file__).parent / "data" / "sqrt2.json")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _mat(field, a, b, c, d):
    e = field.element
    pad = lambda v: [v] + [0] * (field.degree - 1)
    return Mat2(e(pad(a)), e(pad(b)), e(pad(c)), e(pad(d)))


def test_mat_arith(rationals):
    s = _mat(rationals, 0, -1, 1, 0)
    assert s.inv() == _mat(rationals, 0, 1, -1, 0)
    t = _mat(rationals, 1, 1, 0, 1)
    assert t ** 3 == _mat(rationals, 1, 3, 0, 1)
    assert t ** -2 == _mat(rationals, 1, -2, 0, 1)
    with pytest.raises(NotUnimodular):
        _mat(rationals, 1, 0, 0, 2).inv()


def test_det_trace(sqrt2):
    th = sqrt2.generator()
    one = sqrt2.one()
    m = Mat2(one + th, one + th, one * 2, one + th)
    assert m.det() == one  # the det-1 worked example
    assert m.trace() == (one + th) * 2


def test_det_multiplicative(sqrt2, word_sampler):
    rng = random.Random(9)
    words = word_sampler(sqrt2, rng, 30)
    for a, b in zip(words, words[1:]):
        assert (a * b).det() == a.det() * b.det()


def test_check_sl(sqrt2):
    th = sqrt2.generator()
    one, zero = sqrt2.one(), sqrt2.zero()
    assert check_sl(Mat2(one + th, one + th, one * 2, one + th))
    assert not check_sl(Mat2(one, zero, zero, one * 2))
    half_theta = sqrt2.element([0, Fraction(1, 2)])
    m = Mat2(half_theta, zero, zero, th)  # det = theta^2/2 = 1, non-integral
    assert m.det() == one and not check_sl(m)


def test_psl_normalize(sqrt2):
    one, zero = sqrt2.one(), sqrt2.zero()
    i = Mat2.identity(sqrt2)
    assert psl_normalize(-i).rep == i
    s = Mat2(zero, -one, one, zero)
    assert psl_normalize(s).rep == Mat2(zero, one, -one, zero)
    with pytest.raises(NotUnimodular):
        psl_normalize(Mat2(one, zero, zero, one * 2))


def test_psl_normalize_sign_invariant(sqrt2, word_sampler):
    rng = random.Random(10)
    for m in word_sampler(sqrt2, rng, 100):
        assert psl_normalize(m).rep == psl_normalize(-m).rep


def test_fixed_points_translation(sqrt2):
    one, zero = sqrt2.one(), sqrt2.zero()
    a = psl_normalize(Mat2(one, one, zero, one))
    fp = fixed_points(a)
    for comp in fp.per_embedding:
        assert len(comp) == 1 and comp[0].kind == "infinity"


def test_fixed_points_hp_diagonal(sqrt2):
    th = sqrt2.generator()
    zero = sqrt2.zero()
    u = sqrt2.one() + th
    a = psl_normalize(Mat2(u, zero, zero, u.inverse()))
    fp = fixed_points(a)
    for comp in fp.per_embedding:
        kinds = sorted(p.kind for p in comp)
        assert kinds == ["exact", "infinity"]
        finite = next(p for p in comp if p.kind == "exact")
        assert finite.exact.is_zero  # fixes 0 and infinity at each embedding


def test_fixed_points_elliptic(sqrt2):
    one, zero = sqrt2.one(), sqrt2.zero()
    beta = psl_normalize(Mat2(zero, -one, one, zero))
    fp = fixed_points(beta)
    assert all(len(comp) == 0 for comp in fp.per_embedding)
    with pytest.raises(IdentityElement):
        fixed_points(psl_normalize(Mat2.identity(sqrt2)))


def test_fixed_point_count_matches_embedding_type(sqrt2, word_sampler):
    rng = random.Random(11)
    want = {EmbeddingType.ELLIPTIC: 0, EmbeddingType.PARABOLIC: 1,
            EmbeddingType.HYPERBOLIC: 2}
    for m in word_sampler(sqrt2, rng, 60):
        a = psl_normalize(m)
        if a.is_identity():
            continue
        fp = fixed_points(a)
        for i, t in enumerate(per_embedding_types(a)):
            assert fp.boundary_count(i) == want[t]


def test_enclosed_fixed_points_bracket_roots(rationals):
    # [[2,1],[1,1]]: quadratic x^2 - x - 1, golden ratio roots
    a = psl_normalize(_mat(rationals, 2, 1, 1, 1))
    fp = fixed_points(a)
    (pts,) = fp.per_embedding
    assert len(pts) == 2
    # golden ratio roots: -0.6180339887..., 1.6180339887...
    phi_neg = Fraction(-6180339888, 10 ** 10), Fraction(-6180339887, 10 ** 10)
    phi_pos = Fraction(16180339887, 10 ** 10), Fraction(16180339888, 10 ** 10)
    assert pts[0].enclosure[0] <= phi_neg[1] and pts[0].enclosure[1] >= phi_neg[0]
    assert pts[1].enclosure[0] <= phi_pos[1] and pts[1].enclosure[1] >= phi_pos[0]


def test_enclosed_fixed_points_below_1e12():
    """The square-root enclosure shrinks with the requested width, so a
    width below 10^-12 is reached instead of refined forever.  Run in a
    child process, so a regression fails on the timeout."""
    code = ("import json; from fractions import Fraction\n"
            "from hilmod.numfield import NumberField\n"
            "from hilmod.modgrp import Mat2, fixed_points, psl_normalize\n"
            f"f = NumberField.from_json(json.load(open({SQRT2!r})))\n"
            "e = lambda v: f.element([v, 0])\n"
            "a = psl_normalize(Mat2(e(3), e(1), e(2), e(1)))\n"
            "fp = fixed_points(a, Fraction(1, 10 ** 13))\n"
            "print(json.dumps([[[str(v) for v in p.enclosure] for p in comp]\n"
            "                  for comp in fp.per_embedding]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=10, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    # [[3,1],[2,1]]: quadratic 2x^2 - 2x - 1, roots (1 -+ sqrt3)/2
    for lower, upper in json.loads(out.stdout):
        (lo_m, hi_m), (lo_p, hi_p) = ([Fraction(v) for v in e] for e in (lower, upper))
        assert hi_m - lo_m <= Fraction(1, 10 ** 13) and hi_p - lo_p <= Fraction(1, 10 ** 13)
        # 1 - 2x = sqrt3 at the lower root, 2x - 1 = sqrt3 at the upper one
        assert (1 - 2 * hi_m) ** 2 <= 3 <= (1 - 2 * lo_m) ** 2
        assert (2 * lo_p - 1) ** 2 <= 3 <= (2 * hi_p - 1) ** 2


def test_cyclotomic():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(4) == Poly([1, 0, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])
    assert cyclotomic(12) == Poly([1, 0, -1, 0, 1])


def test_cos_trace_min_poly():
    assert cos_trace_min_poly(1) == Poly([-2, 1])
    assert cos_trace_min_poly(2) == Poly([2, 1])
    assert cos_trace_min_poly(3) == Poly([1, 1])
    assert cos_trace_min_poly(4) == Poly([0, 1])
    assert cos_trace_min_poly(5) == Poly([-1, 1, 1])
    assert cos_trace_min_poly(6) == Poly([-1, 1])
    assert cos_trace_min_poly(7) == Poly([-1, -2, 1, 1])
    assert cos_trace_min_poly(8) == Poly([-2, 0, 1])
    assert cos_trace_min_poly(12) == Poly([-3, 0, 1])
    assert cos_trace_min_poly(14) == Poly([1, -2, -1, 1])  # 2cos(pi/7)


def test_element_order(rationals):
    s = _mat(rationals, 0, -1, 1, 0)
    assert element_order(s, 10) == 4  # order 4 in SL_2
    assert element_order(_mat(rationals, 1, 1, 0, 1), 10) is None
    # the powers stop at +-I: s^2 = -I, so the order 4 is found within bound 2
    assert element_order(s, 2) == 4
    assert element_order(-Mat2.identity(rationals), 1) == 2
    assert element_order(_mat(rationals, 0, -1, 1, 1), 10) == 6  # r^3 = -I
    assert element_order(_mat(rationals, 0, -1, 1, -1), 10) == 3  # r^3 = I


def test_torsion_orders_rationals(rationals):
    found = torsion_orders(rationals, 12)
    orders = [m for m, _ in found]
    assert orders == [1, 2, 3, 4, 6]
    for m, wit in found:
        assert check_sl(wit)
        assert element_order(wit, m) == m
    # closed under divisors
    for m in orders:
        for d in range(1, m):
            if m % d == 0:
                assert d in orders


def test_torsion_orders_bad_input(rationals):
    with pytest.raises(ValueError):
        torsion_orders(rationals, 0)


def test_matrix_json_roundtrip(sqrt2):
    th = sqrt2.generator()
    one = sqrt2.one()
    m = Mat2(one + th, one + th, one * 2, one + th)
    assert Mat2.from_json(sqrt2, m.to_json()) == m
