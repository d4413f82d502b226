import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import embed_mp

from hilmod.exactnum import NotSquarefree, Poly
from hilmod.numfield import (
    NotMonic,
    NotTotallyReal,
    NumberField,
    ReducibleDetected,
    contains_root_of,
    element_from_json,
    has_square_root,
    mat_inverse,
)


def test_field_construction(sqrt2):
    assert sqrt2.degree == 2
    assert sqrt2.integral_basis == ((Fraction(1), Fraction(0)),
                                    (Fraction(0), Fraction(1)))
    r0, r1 = sqrt2.embedding(0), sqrt2.embedding(1)
    assert r0.high < 0 < r1.low  # ascending order, sigma_1 smallest


def test_field_construction_errors():
    with pytest.raises(NotTotallyReal):
        NumberField(Poly([1, 0, 1]))
    with pytest.raises(NotMonic):
        NumberField(Poly([1, 0, 2]))
    with pytest.raises(NotMonic):
        NumberField(Poly([Fraction(1, 2), 0, 1]))
    with pytest.raises(NotSquarefree):
        NumberField(Poly([1, -2, 1]))
    with pytest.raises(ReducibleDetected):
        NumberField(Poly([-4, 0, 1]))  # (x-2)(x+2)
    with pytest.raises(ReducibleDetected):
        NumberField(Poly([0, 1, 0, 1]))  # x^3 + x, divisible by x


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _build_within_10s(c0: int) -> subprocess.CompletedProcess:
    """Build the field of x^2 + c0 in a child process stopped after 10 s."""
    code = f"from hilmod import NumberField, Poly; NumberField(Poly([{c0}, 0, 1]))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env={**os.environ, "PYTHONPATH": SRC})


def test_large_constant_term_accepted():
    out = _build_within_10s(-1000000000039)
    assert out.returncode == 0, out.stderr


def test_large_constant_term_rational_root_rejected():
    out = _build_within_10s(-10 ** 12)
    assert out.returncode == 1
    assert "ReducibleDetected: rational root -1000000 detected" in out.stderr


def test_quadratic_convenience_basis(sqrt5):
    # d = 1 mod 4 ships the maximal-order basis {1, (1+theta)/2}
    b = sqrt5.element([0, 1])
    assert b.power_coords() == [Fraction(1, 2), Fraction(1, 2)]
    assert b.is_integral()
    assert (b * b - b - sqrt5.one()).is_zero  # satisfies x^2 - x - 1


def test_arith_examples(sqrt2):
    th = sqrt2.generator()
    one = sqrt2.one()
    assert (one + th) * (th - one) == one
    assert (one + th).inverse() == th - one
    assert (one + th) ** 2 == sqrt2.element([3, 2])


def test_division_and_powers(sqrt2):
    th = sqrt2.generator()
    x = sqrt2.element([2, -3])
    assert (x / x) == sqrt2.one()
    assert x ** -2 == (x * x).inverse()
    with pytest.raises(ZeroDivisionError):
        sqrt2.zero().inverse()


def test_inverse_zero_divisor_raises():
    # x^4 - 5x^2 + 6 = (x^2 - 2)(x^2 - 3) has no rational root, so it is
    # accepted; theta^2 - 2 is a zero divisor and has no inverse
    field = NumberField(Poly([6, 0, -5, 0, 1]))
    with pytest.raises(ReducibleDetected):
        field.from_power([-2, 0, 1]).inverse()


def test_inverse_property_random(sqrt2, sqrt5, cubic7):
    rng = random.Random(5)
    for field in (sqrt2, sqrt5, cubic7):
        for _ in range(50):
            x = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(field.degree)])
            if x.is_zero:
                continue
            assert x * x.inverse() == field.one()


def test_embed_sign_examples(sqrt2):
    th = sqrt2.generator()
    one = sqrt2.one()
    x = one - th
    assert x.embed_sign(0) == 1   # 1 + sqrt(2)
    assert x.embed_sign(1) == -1  # 1 - sqrt(2)
    assert sqrt2.zero().embed_sign(0) == 0
    y = sqrt2.element([3, 2])
    assert y.embed_sign(0) == 1 and y.embed_sign(1) == 1


def test_embed_sign_against_mp(sqrt2, cubic7):
    rng = random.Random(6)
    for field in (sqrt2, cubic7):
        for _ in range(200):
            x = field.element([Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                               for _ in range(field.degree)])
            for i in range(field.degree):
                v = embed_mp(x, i, 50)
                s = x.embed_sign(i)
                if x.is_zero:
                    assert s == 0
                else:
                    assert (s > 0) == (v > 0)


def test_is_integral(sqrt2, sqrt5):
    th = sqrt2.generator()
    assert (sqrt2.one() + th).is_integral()
    assert not sqrt2.element([0, Fraction(1, 2)]).is_integral()
    assert sqrt5.element([0, 1]).is_integral()


def test_trace_norm(sqrt2):
    th = sqrt2.generator()
    assert th.trace() == 0
    assert th.norm() == -2
    x = sqrt2.element([3, 2])
    assert x.trace() == 6
    assert x.norm() == 9 - 2 * 4


def test_trace_brackets_embedding_sum(sqrt2, cubic7):
    rng = random.Random(7)
    for field in (sqrt2, cubic7):
        for _ in range(20):
            x = field.element([rng.randint(-5, 5) for _ in range(field.degree)])
            w = Fraction(1, 10 ** 8)
            encs = [x.embed_scaled(i, w).fractions() for i in range(field.degree)]
            lo = sum(e[0] for e in encs)
            hi = sum(e[1] for e in encs)
            assert lo <= x.trace() <= hi


def test_has_square_root_examples(sqrt2):
    th = sqrt2.generator()
    four = sqrt2.element([4, 0])
    assert has_square_root(four).value == sqrt2.element([2, 0])
    got = has_square_root(sqrt2.element([3, 2])).value
    assert got is not None and got * got == sqrt2.element([3, 2])
    assert got == sqrt2.element([-1, -1])  # the root with sigma_0(y) > 0
    assert has_square_root(th).value is None
    # norm 9 is a square, yet 9 + 6*theta is not
    assert has_square_root(sqrt2.element([9, 6])).value is None
    # over Z[sqrt5], the root of (3 + theta)/2 has half-integer coordinates
    z5 = NumberField(Poly([-5, 0, 1]))
    c = z5.element([Fraction(3, 2), Fraction(1, 2)])
    assert has_square_root(c).value == z5.element([Fraction(-1, 2), Fraction(-1, 2)])


def test_has_square_root_negative_embedding(sqrt2):
    x = sqrt2.element([1, -1])  # 1 - theta, negative at the larger root
    assert has_square_root(x).value is None


def test_has_square_root_roundtrip(sqrt2, sqrt5):
    rng = random.Random(8)
    for field in (sqrt2, sqrt5):
        for _ in range(60):
            x = field.element([rng.randint(-3, 3) for _ in range(field.degree)])
            got = has_square_root(x * x).value
            assert got is not None and got in (x, -x)


def test_contains_root_of(sqrt2, sqrt5, cubic7):
    assert contains_root_of(sqrt2, Poly([-2, 1])).value == sqrt2.element([2, 0])
    r = contains_root_of(sqrt5, Poly([-1, 1, 1]))
    assert r.value == sqrt5.element([-1, 1])  # 2cos(2*pi/5) = (-1+theta)/2
    assert contains_root_of(sqrt2, Poly([-3, 0, 1])).value is None
    # all three roots lie in k; the first assignment of real roots to the
    # embeddings, in lexicographic order, is (0, 2, 1)
    r = contains_root_of(cubic7, Poly([-49, 49, -14, 1]))
    assert r.value == cubic7.element([9, 2, -3])


def test_contains_root_of_input_checks(sqrt2):
    with pytest.raises(ValueError):
        contains_root_of(sqrt2, Poly([1, 0, 2]))
    with pytest.raises(NotSquarefree):
        contains_root_of(sqrt2, Poly([1, -2, 1]))


def test_json_roundtrips(sqrt5):
    data = sqrt5.to_json()
    back = NumberField.from_json(data)
    assert back.min_poly == sqrt5.min_poly
    assert back.integral_basis == sqrt5.integral_basis
    x = sqrt5.element([Fraction(1, 2), -3])
    assert element_from_json(sqrt5, x.to_json()).coords == x.coords


# -- the multiplication table against the power-basis round trip --------


def _ref_power(x) -> Poly:
    basis = x.field.integral_basis
    return Poly([sum(c * row[l] for c, row in zip(x.coords, basis))
                 for l in range(x.field.degree)])


def _ref_element(field, p: Poly):
    """The element with power-basis representative p, reduced mod min_poly."""
    r = p % field.min_poly
    v = list(r.coeffs) + [Fraction(0)] * (field.degree - len(r.coeffs))
    inv = mat_inverse(field.integral_basis)
    return field.element([sum(v[l] * inv[l][k] for l in range(field.degree))
                          for k in range(field.degree)])


def _ref_mul(x, y):
    return _ref_element(x.field, _ref_power(x) * _ref_power(y))


def _ref_inverse(x):
    """Extended gcd of the power representative with min_poly."""
    a, b = x.field.min_poly, _ref_power(x)
    s0, s1 = Poly.zero(), Poly.constant(1)
    while not b.is_zero:
        q, r = a.divmod(b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
    return _ref_element(x.field, s0.scale(1 / a.coeffs[0]))


def _ref_mult_matrix(x):
    """Matrix of multiplication by x on the power basis (columns)."""
    n, q = x.field.degree, _ref_power(x)
    cols = []
    for j in range(n):
        col = (q * Poly([0] * j + [1])) % x.field.min_poly
        cols.append(list(col.coeffs) + [Fraction(0)] * (n - len(col.coeffs)))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _ref_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction((-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)))
        for i, p in enumerate(perm):
            term *= m[i][p]
        total += term
    return total


def _quartic():
    # theta = sqrt2 + sqrt5; the basis {1, theta, (theta^2+1)/2, (theta^3+theta)/6}
    # spans Z[sqrt2, sqrt5] = Z + Z sqrt2 + Z sqrt5 + Z sqrt10
    h, s = Fraction(1, 2), Fraction(1, 6)
    return NumberField(Poly([9, 0, -14, 0, 1]),
                       [[1, 0, 0, 0], [0, 1, 0, 0], [h, 0, h, 0], [0, s, 0, s]])


def test_table_matches_power_basis_reference(sqrt2, sqrt5, cubic7):
    rng = random.Random(11)
    for field in (sqrt2, sqrt5, cubic7, _quartic()):
        for _ in range(40):
            x, y = (field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                   for _ in range(field.degree)]) for _ in range(2))
            assert x * y == _ref_mul(x, y)
            assert x.trace() == sum(_ref_mult_matrix(x)[i][i] for i in range(field.degree))
            assert x.norm() == _ref_det(_ref_mult_matrix(x))
            if not x.is_zero:
                assert x.inverse() == _ref_inverse(x)


def test_basis_must_span_an_order():
    # {1, theta/2} over x^2 - 2: (theta/2)^2 = 1/2 is not in its span
    with pytest.raises(ValueError, match="does not span an order"):
        NumberField(Poly([-2, 0, 1]), [[1, 0], [0, Fraction(1, 2)]])
