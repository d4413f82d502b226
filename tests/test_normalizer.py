import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilmod import normalizer
from hilmod.classify import ClassKind, ElementClass, EmbeddingType, classify
from hilmod.cli import parse_matrix
from hilmod.modgrp import Mat2, check_sl, psl_normalize
from hilmod.normalizer import (
    CensusSlot,
    DIRECT_SUM_Z2,
    FREE_ABELIAN,
    FiniteOrderClass,
    INCONCLUSIVE,
    NormalizerType,
    ParabolicInput,
    RankMismatch,
    SEMIDIRECT_Z2,
    SEMIDIRECT_Z4,
    census_slot,
    _coord_tuples,
    involution_search,
    lift_to_sl,
    normalizer_json,
    normalizer_rank,
    normalizer_type_psl,
)


def _psl(field, rows):
    return psl_normalize(Mat2(*(field.element(r) for r in rows)))


@pytest.fixture
def hp_example(sqrt2):
    return _psl(sqrt2, [[1, 1], [0, 0], [0, 0], [-1, 1]])


@pytest.fixture
def parabolic(sqrt2):
    return _psl(sqrt2, [[1, 0], [1, 0], [0, 0], [1, 0]])


ELL, PAR, HYP = EmbeddingType.ELLIPTIC, EmbeddingType.PARABOLIC, EmbeddingType.HYPERBOLIC


def test_normalizer_rank_table():
    par = ElementClass(ClassKind.TOTALLY_PARABOLIC, per_embedding=(PAR, PAR), disc_square=True)
    hyp = ElementClass(ClassKind.TOTALLY_HYPERBOLIC, per_embedding=(HYP, HYP), disc_square=False)
    hp = ElementClass(ClassKind.TOTALLY_HYPERBOLIC, per_embedding=(HYP, HYP), disc_square=True)
    mixed = ElementClass(ClassKind.MIXED, per_embedding=(ELL, HYP, ELL), disc_square=False)
    assert normalizer_rank(par) == 2
    assert normalizer_rank(hyp) == 2
    assert normalizer_rank(hp) == 1
    assert normalizer_rank(mixed) == 1
    with pytest.raises(FiniteOrderClass):
        normalizer_rank(ElementClass(ClassKind.TOTALLY_ELLIPTIC, per_embedding=(ELL, ELL),
                                     disc_square=False, order=2))


def test_involution_search_hp(sqrt2, hp_example):
    beta = involution_search(hp_example, 2)
    assert beta is not None
    # the canonical witness, as a PSL class: [[0,-1],[1,0]] up to sign
    want = Mat2(sqrt2.zero(), -sqrt2.one(), sqrt2.one(), sqrt2.zero())
    assert beta.same_class(want)
    assert (beta * beta).is_identity()
    assert (beta * hp_example * beta.inv()).rep == hp_example.inv().rep


def test_involution_search_fuchsian(rationals):
    a = _psl(rationals, [[2], [1], [1], [1]])
    beta = involution_search(a, 1)
    assert beta is not None
    assert (beta * a * beta.inv()).rep == a.inv().rep


def test_involution_search_empty_space(hp_example):
    assert involution_search(hp_example, -1) is None


def test_involution_search_rejects_parabolic(parabolic):
    with pytest.raises(ParabolicInput):
        involution_search(parabolic, 2)


def test_normalizer_type_parabolic(parabolic):
    nt = normalizer_type_psl(parabolic)
    assert nt == NormalizerType(FREE_ABELIAN, 2)


def test_normalizer_type_hp(hp_example):
    nt = normalizer_type_psl(hp_example, 2)
    assert nt == NormalizerType(SEMIDIRECT_Z2, 1)


def test_normalizer_type_inconclusive(sqrt2):
    mixed = _psl(sqrt2, [[1, 1], [1, 1], [2, 0], [1, 1]])
    nt = normalizer_type_psl(mixed, 0)  # height 0 exhausts immediately
    assert nt.kind == INCONCLUSIVE and nt.rank == 1


def test_normalizer_type_rejects_elliptic(rationals):
    s = _psl(rationals, [[0], [-1], [1], [0]])
    with pytest.raises(FiniteOrderClass):
        normalizer_type_psl(s)


def test_lift_to_sl():
    assert lift_to_sl(NormalizerType(FREE_ABELIAN, 2)).kind == DIRECT_SUM_Z2
    assert lift_to_sl(NormalizerType(SEMIDIRECT_Z2, 1)).kind == SEMIDIRECT_Z4
    assert lift_to_sl(NormalizerType(INCONCLUSIVE, 3)).kind == INCONCLUSIVE
    assert lift_to_sl(NormalizerType(FREE_ABELIAN, 2)).rank == 2


def test_census_slot_table():
    par = ElementClass(ClassKind.TOTALLY_PARABOLIC, per_embedding=(PAR, PAR), disc_square=True)
    hyp = ElementClass(ClassKind.TOTALLY_HYPERBOLIC, per_embedding=(HYP, HYP), disc_square=False)
    hp = ElementClass(ClassKind.TOTALLY_HYPERBOLIC, per_embedding=(HYP, HYP), disc_square=True)
    mixed = ElementClass(ClassKind.MIXED, per_embedding=(ELL, HYP), disc_square=False)
    mixed3 = ElementClass(ClassKind.MIXED, per_embedding=(ELL, HYP, ELL), disc_square=False)
    ell = ElementClass(ClassKind.TOTALLY_ELLIPTIC, per_embedding=(ELL, ELL),
                       disc_square=False, order=4)
    ident = ElementClass(ClassKind.IDENTITY, order=1)
    free = lambda r: NormalizerType(FREE_ABELIAN, r)
    semi = lambda r: NormalizerType(SEMIDIRECT_Z2, r)
    assert census_slot(par, free(2)).kind == "P"
    assert census_slot(hyp, free(2)).kind == "H1"
    assert census_slot(hyp, semi(2)).kind == "H2"
    assert census_slot(hp, free(1)).kind == "HP1"
    assert census_slot(hp, semi(1)).kind == "HP2"
    assert census_slot(mixed, free(1)).kind == "M1"
    assert census_slot(mixed3, semi(1)).j == 1
    assert census_slot(ell, None).kind == "finite_maximal"
    assert census_slot(ell, None).order == 4
    assert census_slot(ident, None) == CensusSlot("finite_maximal", order=1)
    assert census_slot(mixed, NormalizerType(INCONCLUSIVE, 1)).kind == "undetermined"
    with pytest.raises(RankMismatch):
        census_slot(hp, free(2))
    with pytest.raises(RankMismatch):
        census_slot(par, None)


def test_normalizer_json(hp_example):
    out = normalizer_json(hp_example, height_bound=2)
    assert out["rank"] == 1
    assert out["psl_type"] == "semidirect_z2"
    assert out["sl_type"] == "semidirect_z4"
    assert out["census_slot"] == "HP2"
    assert out["witness_involution"] is not None


def test_normalizer_json_mixed_slot(sqrt2):
    mixed = _psl(sqrt2, [[1, 1], [1, 1], [2, 0], [1, 1]])
    out = normalizer_json(mixed, height_bound=2)
    assert out["rank"] == 1
    if out["psl_type"] == "semidirect_z2":
        assert out["census_slot"] == "M2{1}"
    else:
        assert out["census_slot"] == "undetermined"


def test_normalizer_json_classifies_and_searches_once(monkeypatch, hp_example):
    calls = {"classify": 0, "involution_search": 0}

    def counting(name):
        inner = getattr(normalizer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(normalizer, name, counting(name))
    out = normalizer_json(hp_example, height_bound=2)
    assert out["witness_involution"] is not None
    assert calls == {"classify": 1, "involution_search": 1}


# -- the x-only search against the enumeration of all (x, y) pairs -----


def _reference_coord_tuples(n, height):
    """The canonical order, by sorting the whole product."""
    tuples = itertools.product(range(-height, height + 1), repeat=n)

    def key(t):
        return (max((abs(x) for x in t), default=0),
                tuple((abs(x), 0 if x >= 0 else 1) for x in t))

    return sorted(tuples, key=key)


def _reference_involution_search(a, height_bound):
    """Every (x, y) pair of height <= height_bound in canonical order, z
    solved from y z = -1 - x^2, every candidate checked exactly."""
    field = a.field
    a_inv = a.inv()
    coords = _reference_coord_tuples(field.degree, height_bound)
    ys = [(y, y.inverse()) for y in map(field.element, coords) if not y.is_zero]
    for xc in coords:
        x = field.element(xc)
        need = -field.one() - x * x
        for y, y_inv in ys:
            z = need * y_inv
            if not z.is_integral() or z.height() > height_bound:
                continue
            beta = Mat2(x, y, z, -x)
            if not check_sl(beta):
                continue
            b = psl_normalize(beta)
            if (b * a * b.inv()).rep == a_inv.rep:
                return b
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("height", [-1, 0, 1, 2, 3])
def test_coord_tuples_streamed_in_canonical_order(n, height):
    assert list(_coord_tuples(n, height)) == _reference_coord_tuples(n, height)


# units in power-basis coordinates: [1, 1] is 1 + g, and so on
_UNITS = {"sqrt2": ([1, 1], [-1, 1], [3, 2]),
          "sqrt5": ([Fraction(1, 2), Fraction(1, 2)], [2, 1], [-2, 1]),
          "cubic7": ([0, 1], [-1, 0, 1], [1, 1])}


def _sample_elements(fields, rng, count):
    """Infinite-order, non-parabolic elements of five shapes: words in the
    generators, products of two involutions, diagonal, upper (r = 0) and
    lower (q = 0) triangular."""
    out = []
    while len(out) < count:
        name = rng.choice(("sqrt2", "sqrt5", "cubic7", "sqrt2", "sqrt5"))
        f = fields[name]
        one, zero = f.one(), f.zero()
        shape = rng.choice(("word", "involutions", "diagonal", "upper", "lower"))
        b = f.element([rng.randint(-1, 1) for _ in range(f.degree)])
        if shape == "word":
            m = Mat2.identity(f)
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.5:
                    c = f.element([rng.randint(-2, 2) for _ in range(f.degree)])
                    m = m * Mat2(one, c, zero, one)
                else:
                    m = m * Mat2(zero, -one, one, zero)
        elif shape == "involutions":
            c = f.element([rng.randint(-1, 1) for _ in range(f.degree)])
            m = Mat2(b, -one - b * b, one, -b) * Mat2(-c, one, -one - c * c, c)
        else:
            u = f.from_power(rng.choice(_UNITS[name]))
            m = {"diagonal": Mat2(u, zero, zero, u.inverse()),
                 "upper": Mat2(u, b, zero, u.inverse()),
                 "lower": Mat2(u, zero, b, u.inverse())}[shape]
        a = psl_normalize(m)
        cls = classify(a)
        if cls.is_infinite_order and cls.kind is not ClassKind.TOTALLY_PARABOLIC:
            out.append((name, shape, a))
    return out


def test_involution_search_matches_pair_enumeration(sqrt2, sqrt5, cubic7):
    fields = {"sqrt2": sqrt2, "sqrt5": sqrt5, "cubic7": cubic7}
    cases = _sample_elements(fields, random.Random(2017), 64)
    assert {shape for _, shape, _ in cases} == {
        "word", "involutions", "diagonal", "upper", "lower"}
    found = 0
    for i, (name, shape, a) in enumerate(cases):
        height = 2 if name != "cubic7" and i % 3 == 0 else 1
        got = involution_search(a, height)
        want = _reference_involution_search(a, height)
        assert got == want, (name, shape, a.to_json(), height)
        found += got is not None
    assert 20 <= found <= 60  # both outcomes are exercised


def test_mixed_elements_have_no_witness(sqrt2, sqrt5, cubic7):
    """The sign certificate: on mixed elements the enumeration of all (x, y)
    pairs up to height 2 finds nothing, and the search returns None."""
    fields = {"sqrt2": sqrt2, "sqrt5": sqrt5, "cubic7": cubic7}
    rng = random.Random(1992)
    mixed = {name: [] for name in fields}
    while min(map(len, mixed.values())) < 3:
        for name, _, a in _sample_elements(fields, rng, 20):
            if classify(a).kind is ClassKind.MIXED and len(mixed[name]) < 3:
                mixed[name].append(a)
    for name, elements in mixed.items():
        for a in elements:
            _, q, r, _ = a.rep.entries
            # an elliptic embedding makes 4qr negative there
            assert any((q * r).embed_sign(i) < 0 for i in range(a.field.degree))
            assert _reference_involution_search(a, 2) is None, (name, a.to_json())
            for height in (0, 1, 2, 3):
                assert involution_search(a, height) is None


SQRT2 = str(Path(__file__).parent / "data" / "sqrt2.json")
SQRT5 = str(Path(__file__).parent / "data" / "sqrt5.json")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_normalizer_large_height_streams(sqrt5):
    """A height of 10^6 would be about 4*10^12 tuples if materialised."""
    argv = ["normalizer", "--field", SQRT5, "--matrix", "0;1;-1;3", "--height", "1000000"]
    code = f"import sys; from hilmod.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=10, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["psl_type"] == "semidirect_z2"
    a = psl_normalize(parse_matrix("0;1;-1;3", sqrt5))
    beta = Mat2.from_json(sqrt5, got["witness_involution"])
    assert check_sl(beta) and beta.trace().is_zero
    b = psl_normalize(beta)
    assert (b * a * b.inv()).rep == a.inv().rep


def test_normalizer_mixed_large_height_returns():
    """A mixed element needs no search, so a height of 10^6 returns at once,
    still reported inconclusive with exit 4."""
    argv = ["normalizer", "--field", SQRT2, "--matrix=1+1g;1+1g;2;1+1g",
            "--height", "1000000"]
    code = f"import sys; from hilmod.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=10, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 4, out.stderr
    assert json.loads(out.stdout)["psl_type"] == "inconclusive"
