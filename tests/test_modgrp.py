import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from hilmod import modgrp
from hilmod.exactnum import Poly, refine_root
from hilmod.modgrp import (
    IdentityElement,
    Mat2,
    NotUnimodular,
    _cyclotomic_coeffs,
    _totients,
    check_sl,
    cos_trace_min_poly,
    default_order_bound,
    disc_from_trace,
    element_order,
    fixed_points,
    psl_normalize,
    torsion_orders,
)
from hilmod.classify import ClassKind, EmbeddingType, classify

SQRT2 = str(Path(__file__).parent / "data" / "sqrt2.json")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _mat(field, a, b, c, d):
    e = field.element
    pad = lambda v: [v] + [0] * (field.degree - 1)
    return Mat2(e(pad(a)), e(pad(b)), e(pad(c)), e(pad(d)))


def test_mat_arith(rationals):
    s = _mat(rationals, 0, -1, 1, 0)
    assert s.inv() == _mat(rationals, 0, 1, -1, 0)
    with pytest.raises(NotUnimodular):
        _mat(rationals, 1, 0, 0, 2).inv()


def test_is_identity_reads_entries(monkeypatch, sqrt2):
    """True for I only, and decided on the entries: neither the test nor
    the classification of a non-identity element builds a matrix."""
    assert Mat2.identity(sqrt2).is_identity()
    parabolic = _mat(sqrt2, 1, 1, 0, 1)
    others = [-Mat2.identity(sqrt2), _mat(sqrt2, 1, 0, 0, -1), parabolic]
    u = sqrt2.one() + sqrt2.generator()
    elements = [psl_normalize(m) for m in (parabolic, _mat(sqrt2, 0, -1, 1, 0),  # order 2
                                           Mat2(u, u, sqrt2.one() * 2, u))]  # hyperbolic

    def no_matrix(*args):
        raise AssertionError("a Mat2 was built")

    monkeypatch.setattr(Mat2, "__init__", no_matrix)
    assert not any(m.is_identity() for m in others)
    for a in elements:
        assert not a.is_identity()
        assert classify(a).kind is not ClassKind.IDENTITY


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


def _encloses(enclosure: tuple[Fraction, Fraction], x) -> bool:
    lo, hi = (mpmath.mpf(v.numerator) / v.denominator for v in enclosure)
    return lo <= x <= hi


def test_fixed_points_mixed(sqrt2):
    """[[u, u], [2, u]], u = 1 + sqrt2, has trace 2u: elliptic at sigma_1
    (2 - 2 sqrt2), no boundary point there, and hyperbolic at sigma_2, where
    it fixes the roots -+sqrt(u/2) of 2x^2 - u, enclosed since 2u is no
    square in Q(sqrt2)."""
    u = sqrt2.one() + sqrt2.generator()
    a = psl_normalize(Mat2(u, u, sqrt2.element([2, 0]), u))
    elliptic, hyperbolic = fixed_points(a).per_embedding
    assert elliptic == ()
    assert [p.kind for p in hyperbolic] == ["enclosed", "enclosed"]
    with mpmath.workdps(60):
        root = mpmath.sqrt((1 + mpmath.sqrt(2)) / 2)
        assert _encloses(hyperbolic[0].enclosure, -root)
        assert _encloses(hyperbolic[1].enclosure, root)


def test_fixed_point_count_matches_embedding_type(sqrt2, word_sampler):
    rng = random.Random(11)
    want = {EmbeddingType.ELLIPTIC: 0, EmbeddingType.PARABOLIC: 1,
            EmbeddingType.HYPERBOLIC: 2}
    for m in word_sampler(sqrt2, rng, 60):
        a = psl_normalize(m)
        if a.is_identity():
            continue
        fp = fixed_points(a)
        for i, t in enumerate(classify(a).per_embedding):
            assert len(fp.per_embedding[i]) == want[t]


def test_enclosed_fixed_points_bracket_roots(rationals, sqrt2):
    """[[2, 1], [1, 1]] fixes the roots (1 -+ sqrt5)/2 of x^2 - x - 1 at every
    embedding; 5 is no square in Q or Q(sqrt2), so both are enclosures, each
    no wider than asked and each holding the root mpmath computes."""
    with mpmath.workdps(60):
        roots = [(1 - mpmath.sqrt(5)) / 2, (1 + mpmath.sqrt(5)) / 2]
        for field in (rationals, sqrt2):
            a = psl_normalize(_mat(field, 2, 1, 1, 1))
            for width in (Fraction(1, 1024), Fraction(1, 10 ** 9)):
                per_embedding = fixed_points(a, width).per_embedding
                assert len(per_embedding) == field.degree
                for comp in per_embedding:
                    assert [p.kind for p in comp] == ["enclosed", "enclosed"]
                    for p, root in zip(comp, roots):
                        assert p.enclosure[1] - p.enclosure[0] <= width
                        assert _encloses(p.enclosure, root)


def _sign_plus_sqrt2(p: Fraction, r: Fraction) -> int:
    """The exact sign of p + r*sqrt2: sqrt2 is irrational, so p^2 = 2r^2
    only when p = r = 0."""
    if p * p > 2 * r * r:
        return (p > 0) - (p < 0)
    return (r > 0) - (r < 0)


def test_enclosed_fixed_points_narrow_until_the_width(sqrt2, monkeypatch):
    """[[1 + 1000g, 1000g], [1, 1]] fixes the roots of x^2 - 1000s(x + 1),
    s = sigma_i(g) = -+sqrt2, about -1413.2 and -1.0007 at sigma_1 and
    -0.9993 and 1415.2 at sigma_2.  The large coefficient widens the first
    round's enclosures past the width asked for, so the loop narrows them
    (more than one root refinement per embedding).  Each enclosure is
    checked against the width and by an exact sign change of the embedded
    quadratic at its ends."""
    refinements = []
    monkeypatch.setattr(modgrp, "refine_root",
                        lambda *args: refinements.append(args) or refine_root(*args))
    a = psl_normalize(Mat2(sqrt2.element([1, 1000]), sqrt2.element([0, 1000]),
                           sqrt2.one(), sqrt2.one()))
    for width in (Fraction(1, 1024), Fraction(1, 10 ** 9)):
        refinements.clear()
        per_embedding = fixed_points(a, width).per_embedding
        assert len(refinements) > sqrt2.degree
        for i, comp in enumerate(per_embedding):
            s = 1 if sqrt2.root_intervals[i].low > 0 else -1  # sigma_i(g) = s * sqrt2
            assert [p.kind for p in comp] == ["enclosed", "enclosed"]
            (lo_1, hi_1), (lo_2, hi_2) = (p.enclosure for p in comp)
            assert hi_1 < lo_2
            for lo, hi in ((lo_1, hi_1), (lo_2, hi_2)):
                assert hi - lo <= width
                # q(x) = x^2 - 1000 s sqrt2 (x + 1) changes sign on [lo, hi]
                signs = [_sign_plus_sqrt2(x * x, -1000 * s * (x + 1)) for x in (lo, hi)]
                assert signs[0] * signs[1] <= 0, (i, width, signs)


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
    assert _cyclotomic_coeffs(1) == [-1, 1]
    assert _cyclotomic_coeffs(2) == [1, 1]
    assert _cyclotomic_coeffs(4) == [1, 0, 1]
    assert _cyclotomic_coeffs(6) == [1, -1, 1]
    assert _cyclotomic_coeffs(12) == [1, 0, -1, 0, 1]


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
    """The order is read from the trace of a non-scalar matrix."""
    s = _mat(rationals, 0, -1, 1, 0)
    assert element_order(s.trace(), 10) == 4  # order 4 in SL_2
    assert element_order(_mat(rationals, 1, 1, 0, 1).trace(), 10) is None
    assert element_order(_mat(rationals, -1, 1, 0, -1).trace(), 10) is None
    # the powers stop at +-I: s^2 = -I, so the order 4 is found within bound 2
    assert element_order(s.trace(), 2) == 4
    assert element_order(s.trace(), 1) is None
    assert element_order(s.trace(), 0) is None
    assert element_order(_mat(rationals, 0, -1, 1, 1).trace(), 10) == 6  # r^3 = -I
    assert element_order(_mat(rationals, 0, -1, 1, -1).trace(), 10) == 3  # r^3 = I


def _matrix_power_order(m, bound):
    """The order as the powers m, m^2, ..., m^bound give it, one 2x2
    matrix product each: the reference for ``element_order``."""
    one = Mat2.identity(m.field)
    acc = m
    for e in range(1, bound + 1):
        if acc == one:
            return e
        if acc == -one:
            return 2 * e
        acc = acc * m
    return None


def _is_scalar(m):
    return m.b.is_zero and m.c.is_zero and m.a == m.d


def test_element_order_matches_matrix_powers(sqrt2, sqrt5, cubic7, word_sampler):
    """On every non-scalar word, the order read from the trace is the one
    the matrix powers give, at every bound; +-I, whose order the trace does
    not give, is still classified."""
    rng = random.Random(17)
    kinds = set()
    for field in (sqrt2, sqrt5, cubic7):
        one = Mat2.identity(field)
        witnesses = [wit for _, wit in torsion_orders(field, 30)]
        words = word_sampler(field, rng, 40)
        # conjugates of the witnesses are elliptic words with dense entries
        words += [g * wit * g.inv() for g, wit in zip(words, witnesses * 8)]
        words += [one, -one]
        for m in words + witnesses:
            kinds.add(classify(psl_normalize(m)).kind)
            if _is_scalar(m):
                continue
            want = _matrix_power_order(m, 30)
            bounds = {-1, 0, 1, 2, 7, 30}
            if want is not None:
                e = want if want % 2 else want // 2  # the first power at +-I
                bounds |= {e - 1, e, e + 1}
            for bound in sorted(bounds):
                assert element_order(m.trace(), bound) == _matrix_power_order(m, bound), (m, bound)
    assert kinds >= set(ClassKind)


def test_disc_from_trace_matches_the_expanded_forms(sqrt2, sqrt5, cubic7, word_sampler):
    """Tr^2 - 4 of a determinant-1 matrix [[p, q], [r, s]] equals the
    fixed-point discriminant (s - p)^2 + 4qr, and the result is the
    canonical element of that value."""
    rng = random.Random(5)
    for field in (sqrt2, sqrt5, cubic7):
        for m in word_sampler(field, rng, 30) + [Mat2.identity(field)]:
            t = m.trace()
            d = disc_from_trace(t)
            assert d == t * t - field.one() * 4
            assert d == (m.d - m.a) * (m.d - m.a) + m.b * m.c * 4
            assert math.gcd(d.den, *d.num) == 1


def test_torsion_orders_rationals(rationals):
    found = torsion_orders(rationals, 12)
    orders = [m for m, _ in found]
    assert orders == [1, 2, 3, 4, 6]
    for m, wit in found:
        assert check_sl(wit)
        assert _matrix_power_order(wit, m) == m
        if not _is_scalar(wit):
            assert element_order(wit.trace(), m) == m
    # closed under divisors
    for m in orders:
        for d in range(1, m):
            if m % d == 0:
                assert d in orders


def test_torsion_orders_bad_input(rationals):
    with pytest.raises(ValueError):
        torsion_orders(rationals, 0)


def _phi_by_trial_division(m: int) -> int:
    out, r, k = m, m, 2
    while k * k <= r:
        if r % k == 0:
            while r % k == 0:
                r //= k
            out -= out // k
        k += 1
    return out - out // r if r > 1 else out


def test_order_bound_matches_trial_division():
    """The totient sieve, and default_order_bound(n) for n = 1..60, against
    the definition: the largest m <= 2(2n)^2 + 2 with phi(m) <= 2n, phi by
    trial division."""
    top = 2 * (2 * 60) ** 2 + 2
    phi = [0] + [_phi_by_trial_division(m) for m in range(1, top + 1)]
    assert _totients(top) == phi
    for n in range(1, 61):
        limit = 2 * (2 * n) ** 2 + 2
        assert default_order_bound(n) == max(m for m in range(1, limit + 1) if phi[m] <= 2 * n), n
    assert [default_order_bound(n) for n in (1, 2, 3, 6)] == [6, 12, 18, 42]


def test_torsion_search_computes_the_order_bound_once(monkeypatch, capsys):
    """Without --max-order the CLI computes default_order_bound once, and
    torsion_orders reuses the m_max it is given."""
    from hilmod import cli
    calls = []

    def counted(n):
        calls.append(n)
        return default_order_bound(n)

    for module in ("hilmod.cli", "hilmod.classify", "hilmod.modgrp"):
        monkeypatch.setattr(sys.modules[module], "default_order_bound", counted)
    assert cli.main(["torsion-search", "--field", SQRT2]) == 0
    assert json.loads(capsys.readouterr().out)["m_max"] == 12
    assert calls == [2]
