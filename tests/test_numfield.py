import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import embed_mp

from hilmod import cli, exactnum, numfield
from hilmod.exactnum import (NotSquarefree, Poly, ScaledInterval, divide_monic, integer_coords,
                             refine_root)
from hilmod.modgrp import cos_trace_min_poly
from hilmod.numfield import (
    RESIDUE_PRIME_BOUND,
    FieldElement,
    NotMonic,
    NotTotallyReal,
    NumberField,
    ReducibleDetected,
    _balanced_assignments,
    _element,
    _integer_roots,
    _lattice_root,
    _narrow_roots,
    _residue_certificate,
    _residue_obstruction,
    contains_root_of,
    has_square_root,
)
from refpoly import RefPoly, mat_inverse, power_coords, ref_lattice_root

DATA = Path(__file__).parent / "data"


def test_field_construction(sqrt2):
    assert sqrt2.degree == 2
    assert sqrt2.integral_basis == ((Fraction(1), Fraction(0)),
                                    (Fraction(0), Fraction(1)))
    r0, r1 = sqrt2.root_intervals
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


def test_quadratic_rejects_a_non_squarefree_d():
    """d = 8, 12 or 18 would build Z[sqrt d], not the maximal order, and
    d = 4 or 9 a reducible polynomial: each is the squarefree error."""
    for d in (4, 8, 9, 12, 18):
        with pytest.raises(ValueError, match="need a squarefree integer d > 1"):
            NumberField.quadratic(d)


def test_quadratic_convenience_basis(sqrt5):
    # d = 1 mod 4 ships the maximal-order basis {1, (1+theta)/2}
    b = sqrt5.element([0, 1])
    assert power_coords(b) == [Fraction(1, 2), Fraction(1, 2)]
    assert b.is_integral()
    assert (b * b - b - sqrt5.one()).is_zero  # satisfies x^2 - x - 1


def test_arith_examples(sqrt2):
    th = sqrt2.generator()
    one = sqrt2.one()
    assert (one + th) * (th - one) == one
    assert (one + th).inverse() == th - one
    assert (one + th) * (one + th) == sqrt2.element([3, 2])


def test_division_and_powers(sqrt2):
    x = sqrt2.element([2, -3])
    assert (x / x) == sqrt2.one()
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


def test_embed_sign_skips_the_norm_up_to_degree_3(cubic7, monkeypatch):
    """Up to degree 3 a rational-root-free minimal polynomial is
    irreducible, so an undecided first enclosure refines at once: theta - c
    for c inside the load-time interval of theta decides with no norm."""
    calls = []
    norm = FieldElement.norm
    monkeypatch.setattr(FieldElement, "norm", lambda x: calls.append(x) or norm(x))
    for i, r in enumerate(cubic7.root_intervals):
        for c in (r.low, (r.low + r.high) / 2, r.high):
            x = cubic7.from_power(*integer_coords([-c, 1]))
            lo, hi, _ = x.enclosure(r)
            assert lo <= 0 <= hi  # the first enclosure holds 0
            assert x.embed_sign(i) == (1 if embed_mp(x, i, 50) > 0 else -1)
    assert calls == []


def test_embed_sign_of_a_rational_reads_its_coordinate(monkeypatch):
    """A rational num_0 / den has the sign of num_0 at every embedding,
    zero included, read with no interval work: over every tests/data
    field with ``horner_scaled`` and ``refine_root`` raising."""
    fields = _data_fields()

    def fail(*args):
        raise AssertionError("interval work on a rational")

    monkeypatch.setattr(numfield, "horner_scaled", fail)
    monkeypatch.setattr(numfield, "refine_root", fail)
    for field in fields.values():
        n = field.degree
        for q in (0, 1, -1, 5, Fraction(7, 3), Fraction(-5, 2), 10 ** 40 + 1,
                  Fraction(-1, 10 ** 30)):
            x = field.one() * q
            assert [x.embed_sign(i) for i in range(n)] == [(q > 0) - (q < 0)] * n, (field, q)


def test_rational_square_root_needs_no_interval(monkeypatch):
    """A rational square s^2, zero included, has the root |s| in every
    field, found with no interval work and no norm: over every tests/data
    field with ``horner_scaled``, ``refine_root`` and the norm raising.
    A rational that is no rational square goes on to the other tests."""
    fields = _data_fields()

    def fail(*args):
        raise AssertionError("interval work or a norm on a rational square")

    monkeypatch.setattr(numfield, "horner_scaled", fail)
    monkeypatch.setattr(numfield, "refine_root", fail)
    monkeypatch.setattr(FieldElement, "norm", fail)
    for field in fields.values():
        for s in (0, 1, -1, 2, Fraction(-3, 7), Fraction(10 ** 30 + 1, 4)):
            y = has_square_root(field.one() * (s * s)).value
            assert y == field.one() * abs(s), (field, s)
    monkeypatch.undo()
    # 5 = theta^2 and 1/2 = (theta/2)^2, the roots with sigma_0(y) >= 0
    # at theta_0 = -sqrt5 and -sqrt2
    assert has_square_root(fields["sqrt5"].one() * 5).value == fields["sqrt5"].element([1, -2])
    assert has_square_root(fields["sqrt2"].one() * Fraction(1, 2)).value \
        == fields["sqrt2"].element([0, Fraction(-1, 2)])
    assert has_square_root(fields["sqrt2"].one() * 3).value is None


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
            encs = [x.enclosure(refine_root(r, w)).fractions() for r in field.root_intervals]
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


def test_has_square_root_bisects_each_root_once(monkeypatch, sqrt2):
    """The lattice encloses over the roots it refined itself, so one search
    bisects each embedding's root once.  On the discriminant of the fixed
    points of 1+g^2000;g^2000;1;1 that is 2,012 sign evaluations; a second
    bisection per embedding, from the load-time interval, made 4,032."""
    g = cli.parse_element("g^2000", sqrt2)
    qb, qc = -g, -g  # c x^2 + (d - a) x - b with a = 1 + g, b = g, c = d = 1
    disc = qb * qb - qc * 4
    calls = 0
    sign = exactnum._horner_sign

    def counted(*args):
        nonlocal calls
        calls += 1
        return sign(*args)

    monkeypatch.setattr(exactnum, "_horner_sign", counted)
    assert has_square_root(disc).value is None
    assert calls <= 2500


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


def _full_contains_root_of(field, p):
    """``contains_root_of`` over every assignment of real roots to the
    embeddings, balanced or not: the reference for the balanced search.
    It differs from the library routine in the assignments only."""
    d = p.degree
    s = math.lcm(*(a.denominator for a in p.coeffs))
    q = Poly([a * s ** (d - i) for i, a in enumerate(p.coeffs)])
    roots = _narrow_roots(q)
    rational = _integer_roots(roots)
    if rational:
        return field.one() * Fraction(rational[0], s)

    def enclose(w, thetas):
        roots[:] = [refine_root(r, w) for r in roots]
        return [[r.scaled for r in roots]] * field.degree

    coeffs = [field.one() * a for a in reversed(q.coeffs)]

    def is_root(y):
        acc = field.zero()
        for a in coeffs:
            acc = acc * y + a
        return acc.is_zero

    assignments = itertools.product(range(len(roots)), repeat=field.degree)
    y = _lattice_root(field, enclose, assignments, is_root)
    return None if y is None else y * Fraction(1, s)


def _min_poly_over_q(y) -> RefPoly:
    """The minimal polynomial of y over Q: the squarefree part of its
    characteristic polynomial, from the power sums Tr(y^k) (Newton)."""
    n = y.field.degree
    p = [None] + [w.trace() for w in itertools.accumulate([y] * n, operator.mul)]
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) / k)
    return RefPoly([(-1) ** (n - k) * e[n - k] for k in range(n + 1)]).squarefree_part()


def test_balanced_assignments_match_full_enumeration(sqrt2, sqrt5, cubic7):
    """A root found over the balanced assignments only is the one the full
    enumeration finds, and so is an absence."""
    ct15 = NumberField(cos_trace_min_poly(15))
    rng = random.Random(31)
    cases = [(sqrt2, RefPoly([-2, 0, 1]) * RefPoly([-3, 0, 1])),  # reducible, root sqrt(2)
             (sqrt2, RefPoly([-3, 0, 1]) * RefPoly([-5, 0, 1])),  # reducible, no root
             (sqrt5, RefPoly([-1, 1, 1]) * RefPoly([-2, 0, 1])),
             (cubic7, RefPoly(cos_trace_min_poly(7).coeffs) * RefPoly([-2, 0, 1])),
             (ct15, RefPoly([-1, 1, 1]) * RefPoly([-3, 0, 1]))]  # Q(sqrt 5) lies in ct15
    cases += [(ct15, cos_trace_min_poly(m)) for m in range(1, 41)]
    for field in (sqrt2, sqrt5, cubic7, ct15):
        n = field.degree
        for _ in range(8):
            y = field.element([Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                               for _ in range(n)])
            z = field.element([rng.randint(-2, 2) for _ in range(n)])
            if y.is_zero or z.is_zero:
                continue
            f, g = _min_poly_over_q(y), _min_poly_over_q(z)
            cases.append((field, f))  # every root lies in k
            if (f * g).is_squarefree():
                cases.append((field, f * g))  # reducible, roots of two degrees
            c = Fraction(rng.randint(2, 30), rng.choice((1, 4, 3)))
            cases.append((field, RefPoly([-c, 0, 1])))
    found = 0
    for field, p in cases:
        p = Poly(p.coeffs)
        got = contains_root_of(field, p).value
        want = _full_contains_root_of(field, p)
        assert (got and got.coords) == (want and want.coords), (field, p)
        found += got is not None
    assert len(cases) > 100 and 20 < found < len(cases)


def _product(*factors) -> Poly:
    out = RefPoly([1])
    for f in factors:
        out = out * RefPoly(f.coeffs)
    return Poly(out.coeffs)


def test_lattice_parts_match_the_per_assignment_reference(monkeypatch, sqrt2, sqrt5, cubic7):
    """The lattice that sums per-embedding parts answers as the reference
    that builds each assignment's enclosure from powers and adjugate sums
    (``refpoly.ref_lattice_root``): the same coordinates, or the same None.
    Cases: squares and non-squares, searched with no residue maps so that
    the non-squares reach the lattice too, psi_m for m <= 40, and
    products with several roots in k, where the assignment order decides
    which root comes back."""
    ct15 = NumberField(cos_trace_min_poly(15))
    fields = (sqrt2, sqrt5, cubic7, ct15)
    rng = random.Random(40)
    squares = []
    for field in fields:
        n = field.degree
        for _ in range(10):
            x, z = (field.element([Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                                   for _ in range(n)]) for _ in range(2))
            if x.is_zero:
                continue
            # z*z + 1 is totally positive; u = N(w) / w has the square norm
            # N(w)^(n-1) for n odd, a rational has one for n even
            w = z * z + field.one()
            u = w.inverse() * w.norm() if n % 2 else field.one() * rng.choice((2, 3, 5, 6, 7))
            squares += [(field, x * x), (field, x * x * u), (field, x * x * w * w)]
    polys = [(field, cos_trace_min_poly(m)) for field in fields for m in range(1, 41)]
    polys += [(sqrt2, _product(RefPoly([-2, 0, 1]), RefPoly([-8, 0, 1]))),
              (sqrt2, _product(RefPoly([-2, 0, 1]), RefPoly([-1, -2, 1]))),
              (sqrt5, _product(cos_trace_min_poly(5), cos_trace_min_poly(10))),
              (sqrt5, _product(RefPoly([-5, 0, 1]), cos_trace_min_poly(10))),
              (cubic7, _product(cos_trace_min_poly(7), cos_trace_min_poly(14))),
              (ct15, _product(cos_trace_min_poly(15), cos_trace_min_poly(30))),
              (ct15, _product(cos_trace_min_poly(5), cos_trace_min_poly(15)))]
    for field in fields:  # k is Galois, so every root of a minimal polynomial lies in k
        for _ in range(4):
            y, z = (field.element([rng.randint(-2, 2) for _ in range(field.degree)])
                    for _ in range(2))
            f, g = _min_poly_over_q(y), _min_poly_over_q(z)
            if f.degree > 1 and g.degree > 1 and (f * g).is_squarefree():
                polys.append((field, Poly((f * g).coeffs)))

    def answers():
        # no residue maps for the squares, so that their non-squares reach
        # the lattice's exclusion path; contains_root_of keeps its residue
        # obstruction, which spares the psi_m with many real roots
        with monkeypatch.context() as m:
            for field in fields:
                m.setattr(field, "_residue_maps", ())
            out = [has_square_root(c).value for _, c in squares]
        out += [contains_root_of(field, p).value for field, p in polys]
        return [y and y.coords for y in out]

    mine = answers()
    searches = []

    def reference(*args):
        searches.append(ref_lattice_root(*args))
        return searches[-1]

    monkeypatch.setattr(numfield, "_lattice_root", reference)
    assert answers() == mine
    found = sum(y is not None for y in searches)
    assert 20 < found < len(searches) - 20, (found, len(searches))


def test_lattice_builds_no_product_per_assignment(monkeypatch):
    """The lattice builds its interval products once per width, not once
    per assignment.  (x^2-2)(x^2-3)(x^2-6) over Q(zeta_15)^+ has no residue
    obstruction and no root, so the search runs all 450 balanced
    assignments; the per-assignment power loop made 7,216 products."""
    ct15 = NumberField(cos_trace_min_poly(15))
    p = _product(RefPoly([-2, 0, 1]), RefPoly([-3, 0, 1]), RefPoly([-6, 0, 1]))
    assert _residue_obstruction(ct15, p) is None
    assignments = sum(1 for _ in _balanced_assignments(6, ct15.degree))
    assert assignments == 450
    calls = 0
    times = ScaledInterval.times

    def counted(*args):
        nonlocal calls
        calls += 1
        return times(*args)

    monkeypatch.setattr(ScaledInterval, "times", counted)
    assert contains_root_of(ct15, p).value is None
    assert 0 < calls < assignments


def test_lattice_builds_each_part_on_first_use(monkeypatch, sqrt2):
    """A part is built the first time an assignment uses it at a width, so
    a square found on the first sign pattern makes no product for another
    pattern: the root 3 + theta of (3 + theta)^2 is totally positive, and
    the search takes at most 4 products over Q(sqrt2) (one width, n^2)
    and 32 over Q(zeta_15)^+ (two widths).  Building every part at each
    width made 8 and 64."""
    ct15 = NumberField(cos_trace_min_poly(15))
    calls = 0
    times = ScaledInterval.times

    def counted(*args):
        nonlocal calls
        calls += 1
        return times(*args)

    monkeypatch.setattr(ScaledInterval, "times", counted)
    for field, most in ((sqrt2, 4), (ct15, 32)):
        x = field.one() * 3 + field.generator()
        calls = 0
        assert has_square_root(x * x).value == x
        assert 0 < calls <= most, (field, calls)


def test_contains_root_of_input_checks(sqrt2):
    with pytest.raises(ValueError):
        contains_root_of(sqrt2, Poly([1, 0, 2]))
    with pytest.raises(NotSquarefree):
        contains_root_of(sqrt2, Poly([1, -2, 1]))


def test_residue_primes_match_brute_force(sqrt2, sqrt5, cubic7):
    """A prime below the bound is kept exactly when it does not divide
    disc(min_poly) and min_poly has a root mod p, and the residue maps are
    every (p, r) with p kept and min_poly(r) = 0 mod p: each kept pair is a
    root, and every root mod a kept prime is kept.  On the test fields,
    every tests/data field and Q(2cos(2pi/m)) for m <= 60, by trial
    division and evaluation of the integer coefficients at every
    residue."""
    fields = [sqrt2, sqrt5, cubic7] + list(_data_fields().values()) \
        + [NumberField(cos_trace_min_poly(m)) for m in range(1, 61)]
    kept = 0
    for field in fields:
        disc = RefPoly(field.min_poly.coeffs).discriminant()
        cs = field.min_poly.num

        def roots(p):
            return [x for x in range(p) if sum(c * x ** i for i, c in enumerate(cs)) % p == 0]

        want = tuple(p for p in range(2, RESIDUE_PRIME_BOUND)
                     if all(p % k for k in range(2, p)) and disc % p and roots(p))
        assert field._residue_primes == want, field
        assert field._residue_maps == tuple((p, r) for p in want for r in roots(p)), field
        kept += bool(want)
    assert sqrt2._residue_primes and sqrt5._residue_primes and cubic7._residue_primes
    assert kept > 40


def _data_fields() -> dict[str, NumberField]:
    """The field of every field spec under tests/data, by file name."""
    specs = {path.stem: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}
    return {name: NumberField.from_json(spec) for name, spec in specs.items()
            if isinstance(spec, dict) and "min_poly" in spec}


def test_data_fields_include_ct37():
    """ct37.json is Q(cos(2pi/37)), the field of ``cos_trace_min_poly(37)``,
    of degree 18."""
    field = _data_fields()["ct37"]
    assert field.min_poly == cos_trace_min_poly(37) and field.degree == 18


def test_residue_certificate_changes_no_square_root_answer(monkeypatch):
    """``has_square_root`` answers as it does with no residue maps, on
    squares and non-squares over every tests/data field, Q(zeta_15)^+ and
    Q(sqrt17), where 2 splits and is kept, but Euler's criterion does not
    apply: the same coordinates or the same None.  Over the degree-18
    ct37.json, a non-square with no negative embedding and a square norm
    would run the lattice over 2^17 sign patterns with no maps (about
    50 s), so there only squares of totally positive elements and
    non-squares decided by a sign or by the norm are compared."""
    sqrt17 = NumberField(Poly([-4, -1, 1]))  # theta = (1 + sqrt17) / 2
    assert sqrt17._residue_maps[:2] == ((2, 0), (2, 1))
    fields = list(_data_fields().values()) + [NumberField(cos_trace_min_poly(15)), sqrt17]
    rng = random.Random(24)
    found = certified = 0
    for field in fields:
        n, one = field.degree, field.one()
        small = n <= 6
        cases = []
        for _ in range(6 if small else 2):
            x = field.element([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                               for _ in range(n)])
            t = x * x + one  # totally positive
            cases += [t * t, t, x]
            if small:
                q = one * rng.choice((2, 3, 5, 6, Fraction(7, 9)))
                cases += [x * x, x * x * q, t * t * q, x * x * t, x * x * t * q]
        want = [has_square_root(c).value for c in cases]
        certified += sum(_residue_certificate(c) is not None for c in cases)
        found += sum(y is not None for y in want)
        monkeypatch.setattr(field, "_residue_maps", ())
        assert [has_square_root(c).value for c in cases] == want, field
    assert found > 80 and certified > 150, (found, certified)


def test_residue_certificate_skips_a_prime_of_the_denominator(sqrt2):
    """A residue map at a prime p dividing the power-basis denominator d
    of c decides nothing, as d P(r) = 0 mod p there.  3 is a non-residue
    mod 7 and mod 17, the first two primes kept for Q(sqrt2): 3 is
    decided at 7, 3/49 at 17.  Over every tests/data field, x/p is never
    decided at p, and the square (x/p)^2 is found."""
    assert sqrt2._residue_primes[:2] == (7, 17)
    three = sqrt2.one() * 3
    assert _residue_certificate(three)[0] == 7
    assert _residue_certificate(three * Fraction(1, 49))[0] == 17
    assert has_square_root(three * Fraction(1, 49)).value is None
    rng = random.Random(29)
    skipped = 0
    for field in _data_fields().values():
        for p in field._residue_primes[:4]:
            if p == 2:
                continue
            x = field.element([rng.randint(-5, 5) for _ in range(field.degree)])
            y = x * Fraction(1, p)
            assert _residue_certificate(y) is None or _residue_certificate(y)[0] != p
            if field.degree <= 6:
                root = has_square_root(y * y).value
                assert root is not None and root in (y, -y)
            skipped += 1
    assert skipped > 10


def test_residue_certificate_is_sound(sqrt2, sqrt5, cubic7):
    """Each y in O_k is a root of its characteristic polynomial, a monic
    integer polynomial, which therefore has a root mod every prime kept."""
    rng = random.Random(41)
    for field in (sqrt2, sqrt5, cubic7, NumberField(cos_trace_min_poly(15))):
        n = field.degree
        for _ in range(30):
            y = field.element([rng.randint(-20, 20) for _ in range(n)])
            f = _min_poly_over_q(y)
            char = Poly((f ** (n // f.degree)).coeffs)
            assert _residue_obstruction(field, char) is None, (field, y)


def test_residue_certificate_decides_absence_first(monkeypatch, sqrt5, cubic7):
    """The absent orders of the torsion census, and 2cos(2pi/37) over
    Q(zeta_15)^+ (18 real roots; the lattice alone took about 9 s), are
    decided by a residue field, before any root of q is isolated: the
    first prime kept, except for m = 12 over Q(sqrt5), where x^2 - 3 has a
    root mod 11 and 19 decides."""
    ct15 = NumberField(cos_trace_min_poly(15))

    def fail(*args):
        raise AssertionError("root isolation or the lattice ran")

    monkeypatch.setattr("hilmod.numfield._lattice_root", fail)
    monkeypatch.setattr("hilmod.numfield._narrow_roots", fail)
    for field, m, k, p in ((sqrt5, 8, 0, 11), (sqrt5, 12, 1, 19), (cubic7, 9, 0, 13),
                           (ct15, 37, 0, 29)):
        q = cos_trace_min_poly(m)
        assert _residue_obstruction(field, q) == field._residue_primes[k] == p
        assert contains_root_of(field, q).value is None


def test_residue_scan_skipped_for_linear_polynomials():
    """A degree-1 polynomial has a rational root: no prime is scanned."""
    field = NumberField(cos_trace_min_poly(15))
    assert contains_root_of(field, Poly([Fraction(-3, 2), 1])).value == field.one() * Fraction(3, 2)
    assert "_residue_maps" not in vars(field)
    assert contains_root_of(field, cos_trace_min_poly(5)).value is not None
    assert "_residue_maps" in vars(field)


def test_queries_leave_a_kept_field_unchanged():
    """After ``smoke_cli.REFINE`` through ``cli.main``, a classify whose
    sign decisions refine an embedding of Q(sqrt2) to about 10^4 bits, the
    field ``main`` kept has the load-time intervals of a fresh load, and
    its enclosures of 3 - 2 sqrt2 are a fresh field's, endpoint for
    endpoint, not Horner over what that classify refined."""
    from hilmod import cli
    from smoke_cli import REFINE, run_in_process

    code, _, err = run_in_process(REFINE)
    assert code == 0, err
    spec = str(REFINE[2])
    hits = cli._field_from_text.cache_info().hits
    kept = cli._load_field(spec)
    assert cli._field_from_text.cache_info().hits == hits + 1  # the field REFINE used
    fresh = NumberField.from_json(json.loads(Path(spec).read_text()))
    assert kept.root_intervals == fresh.root_intervals
    x, y = kept.element([3, -2]), fresh.element([3, -2])
    for r, s in zip(kept.root_intervals, fresh.root_intervals):
        w = Fraction(1, 100)
        assert x.enclosure(refine_root(r, w)) == y.enclosure(refine_root(s, w))


def test_json_roundtrips():
    """The field-spec reader on literal JSON against the field built
    directly; the library writes no spec, so nothing is read back."""
    spec = json.loads('{"min_poly": ["-5/1", "0/1", "1/1"], '
                      '"integral_basis": [["1", "0"], ["1/2", "1/2"]]}')
    got = NumberField.from_json(spec)
    want = NumberField(Poly([-5, 0, 1]), [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    assert got.min_poly == want.min_poly
    assert got.integral_basis == want.integral_basis
    assert got.root_intervals == want.root_intervals


# -- the multiplication table against the power-basis round trip --------


def _ref_power(x) -> RefPoly:
    basis = x.field.integral_basis
    return RefPoly([sum(c * row[l] for c, row in zip(x.coords, basis))
                 for l in range(x.field.degree)])


def _ref_element(field, p: RefPoly):
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
    a, b = RefPoly(x.field.min_poly.coeffs), _ref_power(x)
    s0, s1 = RefPoly.zero(), RefPoly.constant(1)
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
        col = (q * RefPoly([0] * j + [1])) % x.field.min_poly
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


def test_negatively_oriented_basis():
    # {1, (1 - theta)/2} over x^2 - 5: the basis matrix has determinant -1/2
    field = NumberField(Poly([-5, 0, 1]), [[1, 0], [Fraction(1, 2), Fraction(-1, 2)]])
    rng = random.Random(12)
    for _ in range(40):
        x, y = (field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                               for _ in range(2)]) for _ in range(2))
        assert x * y == _ref_mul(x, y)
        assert field.from_power(*integer_coords(power_coords(x))) == x


def test_basis_must_span_an_order():
    # {1, theta/2} over x^2 - 2: (theta/2)^2 = 1/2 is not in its span
    with pytest.raises(ValueError, match="does not span an order"):
        NumberField(Poly([-2, 0, 1]), [[1, 0], [0, Fraction(1, 2)]])


# -- the integer change of basis against the Fraction path it replaced --

_BASIS_FIELDS = [  # (name, builder); each call builds a fresh field
    ("sqrt2", lambda: NumberField(Poly([-2, 0, 1]))),
    ("sqrt2_identity", lambda: NumberField(Poly([-2, 0, 1]), [[1, 0], [0, 1]])),
    ("sqrt5", lambda: NumberField.quadratic(5)),
    ("sqrt5_negative", lambda: NumberField(Poly([-5, 0, 1]),
                                           [[1, 0], [Fraction(1, 2), Fraction(-1, 2)]])),
    ("cubic", lambda: NumberField(Poly([1, -2, -1, 1]))),
    ("quartic", _quartic),
]


def _is_power_basis(field) -> bool:
    n = field.degree
    return field.integral_basis == tuple(tuple(Fraction(int(i == j)) for j in range(n))
                                         for i in range(n))


def ref_power_coords(x) -> list[Fraction]:
    """Fraction sums over the basis rows; on the power basis, the
    coordinates themselves."""
    if _is_power_basis(x.field):
        return list(x.coords)
    basis = x.field.integral_basis
    return [sum(c * row[l] for c, row in zip(x.coords, basis)) for l in range(x.field.degree)]


def ref_from_power(field, power):
    """Fraction reduction mod min_poly; off the power basis, then the
    Fraction inverse of the basis matrix."""
    v = [Fraction(c) for c in power] + [Fraction(0)] * field.degree
    v = divide_monic(v, field.min_poly.num)[1]
    if not _is_power_basis(field):
        inv = mat_inverse(field.integral_basis)
        v = [sum(x * row[k] for x, row in zip(v, inv)) for k in range(field.degree)]
    return field.element(v)


def ref_table(field):
    """On the power basis theta^(i+j) reduced mod min_poly, otherwise each
    omega_i * omega_j by Fraction polynomial arithmetic (``_ref_mul``);
    stored sparsely, as the field stores its table."""
    n = field.degree
    f = field.min_poly.num
    if _is_power_basis(field):
        products = [[divide_monic([int(k == i + j) for k in range(2 * n - 1)], f)[1]
                     for j in range(n)] for i in range(n)]
    else:
        e = [field.element([int(k == i) for k in range(n)]) for i in range(n)]
        products = [[_ref_mul(a, b).coords for b in e] for a in e]
    return tuple(tuple(tuple((k, t) for k, t in enumerate(v) if t) for v in row)
                 for row in products)


def ref_eval_scaled(p: Poly, x: ScaledInterval) -> ScaledInterval:
    """Interval Horner over the stored integer coefficients of den * p,
    leading first."""
    lcm, cs = p.den, p.num[::-1]
    if not cs:
        return ScaledInterval(0, 0, 1)
    a, b, d = x
    lo = hi = cs[0]
    dpow = 1
    for c in cs[1:]:
        dpow *= d
        cd = c * dpow
        p = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(p) + cd, max(p) + cd
    return ScaledInterval(lo, hi, lcm * dpow)


def ref_embed_sign(x, i: int) -> int:
    if x.is_zero:
        return 0
    q = Poly(ref_power_coords(x))
    r = x.field.root_intervals[i]
    while True:
        lo, hi, _ = ref_eval_scaled(q, r.scaled)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if r.low == r.high:
            return 1 if q.sign_num(r.scaled.lo, r.scaled.den) > 0 else -1
        r = refine_root(r, r.width / 4)


@pytest.mark.parametrize("seed, build", [(k, b) for k, (_, b) in enumerate(_BASIS_FIELDS)],
                         ids=[name for name, _ in _BASIS_FIELDS])
def test_change_of_basis_matches_fraction_path(seed, build):
    # a field never changes, so the library and the references evaluate over
    # the same refined root and their enclosures compare endpoint for endpoint
    field = build()
    n = field.degree
    assert field._table == ref_table(field)
    rng = random.Random(seed)
    for _ in range(60):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        x = field.element(coords)
        p = power_coords(x)
        assert p == ref_power_coords(x)
        assert field.from_power(*integer_coords(p)) == x
        power = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(rng.randint(0, 2 * n))]
        assert field.from_power(*integer_coords(power)).coords == \
            ref_from_power(field, power).coords
        for i in range(n):
            assert x.embed_sign(i) == ref_embed_sign(x, i)
            r = refine_root(field.root_intervals[i], Fraction(1, rng.choice((3, 100, 10 ** 6))))
            want = ref_eval_scaled(Poly(ref_power_coords(x)), r.scaled)
            assert x.enclosure(r).fractions() == want.fractions()


def test_change_of_basis_does_no_fraction_arithmetic(monkeypatch):
    elements = []
    for _, build in _BASIS_FIELDS:
        field = build()
        elements.append(field.element([Fraction(3 - 2 * k, k + 1) for k in range(field.degree)]))

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic")

    for op in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
        monkeypatch.setattr(Fraction, f"__r{op}__", forbidden)
    for x in elements:
        field = x.field
        assert field.from_power(*integer_coords(power_coords(x))).coords == x.coords
        for i, r in enumerate(field.root_intervals):
            assert x.embed_sign(i) in (-1, 1)
            assert x.enclosure(refine_root(r, Fraction(1, 100))).den > 0


def test_from_power_reduces_past_the_degree(rationals, sqrt5, cubic7):
    """Only a list of more than ``degree`` numerators is reduced mod
    min_poly: over Q (degree 1) and up to power 2n - 2 over the cubic, on
    integers over a denominator, against the Fraction reduction.  The
    numerators are integers and the denominator is positive: a den <= 0
    is ValueError, and a Fraction or float numerator or den is TypeError,
    a zero one too."""
    rng = random.Random(19)
    for field, longest in ((rationals, 4), (sqrt5, 3), (cubic7, 2 * 3 - 1)):
        for k in [*range(longest + 1)] * 8:
            ints, den = [rng.randint(-60, 60) for _ in range(k)], rng.randint(1, 12)
            assert field.from_power(ints, den) == \
                ref_from_power(field, [Fraction(c, den) for c in ints]), (field, ints, den)
    g = cubic7.generator()
    assert cubic7.from_power([0, 0, 0, 0, 1]) == g * g * g * g
    for den in (0, -1, -2):
        with pytest.raises(ValueError, match="denominator must be positive"):
            sqrt5.from_power([1, 0], den)
    for bad in ([Fraction(1, 2), 0], [0, 0.5], [1, 0, 0, Fraction(1, 3)], [2.0, 1],
                [Fraction(0), 0.0], [0, 0.0], [0, 0, Fraction(0)]):
        with pytest.raises(TypeError):
            sqrt5.from_power(bad)
    for den in (1.0, Fraction(2)):
        with pytest.raises(TypeError):
            sqrt5.from_power([0, 0], den)


def test_float_coordinates_are_rejected(sqrt2):
    """A float stands for its binary expansion (0.1 is 3602879701896397 /
    2^55), never for the decimal it prints as, so no element, polynomial
    or integral-basis entry accepts one, nor a decimal string."""
    for bad in ([0.1, 0], [1, 2.0], ["1", 0]):
        with pytest.raises(ValueError, match="coordinate") as exc:
            sqrt2.element(bad)
        assert repr(next(c for c in bad if not isinstance(c, int))) in str(exc.value)
    for bad in ([0.1, 1], [1, 2.0]):
        with pytest.raises(ValueError, match=r"2\.0|0\.1"):
            Poly(bad)
    for bad in ([[1, 0], [0.5, 0.5]], [[1.0, 0], [0, 1]], [[1, 0], ["0.5", "1/2"]]):
        with pytest.raises(ValueError, match=r"0\.5|1\.0"):
            NumberField(Poly([-5, 0, 1]), bad)
    assert sqrt2.element([Fraction(1, 10), 3]).coords == (Fraction(1, 10), 3)
    assert Poly(["1/10", 1]) == Poly([Fraction(1, 10), 1])
    strings = NumberField(Poly([-5, 0, 1]), [[1, "0"], ["1/2", Fraction(1, 2)]])
    assert strings.integral_basis == NumberField.quadratic(5).integral_basis


# -- the canonical element representation -------------------------------


def _assert_canonical(x) -> None:
    """num / den with den > 0 and gcd(den, *num) = 1, so zero is 0 / 1."""
    assert type(x.num) is tuple and all(type(a) is int for a in x.num), x
    assert type(x.den) is int and x.den > 0 and math.gcd(x.den, *x.num) == 1, x


def test_one_and_zero_are_shared_canonical_elements(rationals, sqrt2, sqrt5, cubic7):
    """A field keeps one 1 and one 0, memos of the spec like its other
    ``cached_property`` values; each equals the canonical form and, as every
    record, refuses assignment and deletion."""
    for field in (rationals, sqrt2, sqrt5, cubic7):
        n = field.degree
        one, zero = field.one(), field.zero()
        assert one is field.one() and zero is field.zero()
        assert one == _element(field, [1] + [0] * (n - 1), 1) == field.element([1] + [0] * (n - 1))
        assert zero == _element(field, [0] * n, 1) == field.element([0] * n)
        for x in (one, zero):
            _assert_canonical(x)
            for name in FieldElement.__slots__:
                with pytest.raises(AttributeError):
                    setattr(x, name, None)
                with pytest.raises(AttributeError):
                    delattr(x, name)
        assert field.one() == one and field.zero() == zero and zero.is_zero


def test_elements_are_canonical(monkeypatch, sqrt2, sqrt5, cubic7):
    ct13 = NumberField.from_json(json.loads((DATA / "ct13.json").read_text()))
    rng = random.Random(13)
    samples = []
    for field in (sqrt2, sqrt5, cubic7, ct13):
        n = field.degree

        def rationals(k):
            return [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(k)]

        for _ in range(12):
            cx, cy, power = rationals(n), rationals(n), rationals(rng.randint(0, 2 * n))
            x, y = field.element(cx), field.element(cy)
            k, s = rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            ints = [c.numerator for c in cx]
            cases = [  # (result, its coordinates computed on Fractions)
                (x, tuple(cx)),
                (field.element(ints), tuple(map(Fraction, ints))),
                (x + y, tuple(a + b for a, b in zip(cx, cy))),
                (x - y, tuple(a - b for a, b in zip(cx, cy))),
                (x - x, (Fraction(0),) * n),
                (-x, tuple(-a for a in cx)),
                (x * y, _ref_mul(x, y).coords),
                (x * k, tuple(a * k for a in cx)),
                (x * s, tuple(a * s for a in cx)),
                (s * x, tuple(a * s for a in cx)),
                (field.from_power(*integer_coords(power)), ref_from_power(field, power).coords),
            ]
            if not x.is_zero:
                cases.append((x.inverse(), _ref_inverse(x).coords))
            for z, want in cases:
                _assert_canonical(z)
                assert z.coords == want
            same = [  # equal values along different paths
                ((x + y) - y, x),
                (x * (x + y), x * x + x * y),
                (x * 6 * Fraction(1, 6), x),
                (field.element(x.coords), x),
                (field.from_power(*integer_coords(power_coords(x))), x),
                (x - x, field.zero()),
                (x * 0, field.zero()),
            ]
            if not y.is_zero:
                same.append(((x * y) / y, x))
            for a, b in same:
                assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            samples.append((x, y))

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic")

    for op in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
        monkeypatch.setattr(Fraction, f"__r{op}__", forbidden)
    for x, y in samples:  # each of these raises on a Fraction operation
        x.trace(), x.norm()
        for z in [x + y, x - y, x * y, x * 3, x * Fraction(2, 3)]:
            _assert_canonical(z)
        if not x.is_zero:
            _assert_canonical(x.inverse())
