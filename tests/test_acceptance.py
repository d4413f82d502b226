"""Acceptance gate: ten criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; assertion
failure in a criterion marks it failed.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hilmod.classify import ClassKind, EmbeddingType, classify, per_embedding_types
from hilmod.cli import main
from hilmod.ktheory import (
    BASE_C2,
    Cardinal,
    Census,
    KTerm,
    OPAQUE_LABEL,
    RingProps,
    bhs_iterate,
    dos_nil,
    nil_single,
    wh_decomposition_psl,
    wh_decomposition_sl,
)
from hilmod.modgrp import Mat2, fixed_points, psl_normalize, torsion_orders
from hilmod.normalizer import (
    SEMIDIRECT_Z2,
    SEMIDIRECT_Z4,
    involution_search,
    lift_to_sl,
    normalizer_type_psl,
)
from hilmod.numfield import NumberField, has_square_root
from hilmod.topk import BettiProfile, FiniteCensus, betti_rank, k_homology_rank, ktop_rank
from conftest import embed_mp, sample_sl2_words

DATA = Path(__file__).parent / "data"
FIN = Cardinal.finite


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_worked_examples(sqrt2):
    th = sqrt2.generator()
    one, zero = sqrt2.one(), sqrt2.zero()

    mixed = psl_normalize(Mat2(one + th, one + th, one * 2, one + th))
    cls = classify(mixed)
    assert cls.kind is ClassKind.MIXED and cls.hyperbolic_components == 1
    assert per_embedding_types(mixed) == (EmbeddingType.ELLIPTIC,
                                          EmbeddingType.HYPERBOLIC)

    u = one + th
    hp = psl_normalize(Mat2(u, zero, zero, u.inverse()))
    hcls = classify(hp)
    assert hcls.kind is ClassKind.TOTALLY_HYPERBOLIC
    assert hcls.hyperbolic_parabolic is True
    fp = fixed_points(hp)
    for comp in fp.per_embedding:
        kinds = {p.kind for p in comp}
        assert kinds == {"infinity", "exact"}
        assert next(p for p in comp if p.kind == "exact").exact.is_zero

    beta = involution_search(hp, 2)
    assert beta is not None
    assert beta.same_class(Mat2(zero, -one, one, zero))
    nt = normalizer_type_psl(hp, 2)
    assert nt.kind == SEMIDIRECT_Z2 and nt.rank == 1
    lifted = lift_to_sl(nt)
    assert lifted.kind == SEMIDIRECT_Z4 and lifted.rank == 1
    _report(1, "worked examples over Q(sqrt2) reproduce exactly")


def test_criterion_2_no_mixed_parabolic(sqrt2, sqrt3, sqrt5, cubic7):
    rng = random.Random(20)
    total = 0
    for field in (sqrt2, sqrt3, sqrt5, cubic7):
        for m in sample_sl2_words(field, rng, 1000):
            cls = classify(psl_normalize(m))
            # a parabolic embedding makes Tr^2 - 4 = 0 in k, so every one is
            assert EmbeddingType.PARABOLIC not in cls.per_embedding or all(
                t is EmbeddingType.PARABOLIC for t in cls.per_embedding)
            total += 1
    assert total == 4000
    _report(2, f"{total} random classifications, no mixed-parabolic element")


def test_criterion_3_embed_sign_oracle(sqrt2, sqrt3, sqrt5, cubic7):
    rng = random.Random(21)
    fields = (sqrt2, sqrt3, sqrt5, cubic7)
    checked = 0
    while checked < 10 ** 4:
        field = fields[rng.randrange(len(fields))]
        x = field.element([Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                           for _ in range(field.degree)])
        i = rng.randrange(field.degree)
        s = x.embed_sign(i)
        if x.is_zero:
            assert s == 0
        else:
            v = embed_mp(x, i, 100)
            assert abs(v) > 1e-50  # desk-scale elements are well separated
            assert (s > 0) == (v > 0)
        checked += 1
    _report(3, f"{checked} embedding signs agree with 100-digit evaluation")


def test_criterion_4_bhs_pascal_oracle():
    for d in range(11):
        ks = {t.degree: m for t, m in bhs_iterate(d, 0).terms if t.kind == "k"}
        assert ks == {-i: FIN(math.comb(d, i)) for i in range(d + 1)}
    for gen in (dos_nil, nil_single):
        for s in range(1, 11):
            assert gen(s, 3) == gen(s - 1, 3) + gen(s - 1, 3).shift_degree(-1)
    _report(4, "BHS binomial pattern and Pascal recurrence hold up to 10")


def test_criterion_5_regular_ring_specialization():
    censuses = [
        Census(n=2, finite=((2, FIN(2)), (3, FIN(1))), p=FIN(1), h2=FIN(3)),
        Census(n=3, hp1=FIN(1), m1=(FIN(1), FIN(1))),
        Census(n=1, h1=Cardinal.infinite()),
    ]
    for census in censuses:
        e = wh_decomposition_psl(census, 1, RingProps(regular=True))
        assert all(t.kind == "wh" for t, _ in e.terms)
    e = wh_decomposition_psl(Census(n=2, p=FIN(1)), 1, RingProps())
    assert dict(e.terms) == {KTerm.nk(1): FIN(2), KTerm.nk(0): FIN(2)}
    _report(5, "regular ring kills every NK term; parabolic block is NK_q^2 + NK_{q-1}^2")


def test_criterion_6_sl_decomposition_shape():
    census = Census(n=2, p=FIN(1), h1=FIN(1), h2=FIN(1), hp2=FIN(2), m2=(FIN(1),))
    e = wh_decomposition_sl(census, 1, RingProps())
    kinds = {t.kind for t, _ in e.terms}
    assert kinds == {"opaque", "nk"}
    assert e.multiplicity(KTerm.opaque(OPAQUE_LABEL)) == FIN(1)
    assert all(t.ring == BASE_C2 for t, _ in e.terms if t.kind == "nk")
    # two-copy vs one-copy selection: recompute from the slot definitions
    want = (dos_nil(1, 1, BASE_C2) + dos_nil(1, 1, BASE_C2)
            + nil_single(1, 1, BASE_C2) + nil_single(0, 1, BASE_C2).scale(FIN(2))
            + nil_single(0, 1, BASE_C2))
    assert dict(e.filter("nk").terms) == dict(want.terms)

    hp2_only = wh_decomposition_sl(Census(n=2, hp2=FIN(1)), 1, RingProps())
    assert dict(hp2_only.filter("nk").terms) == {KTerm.nk(1, BASE_C2): FIN(1)}
    _report(6, "SL shape: opaque leading term + R[Z/2] Nil blocks per slot type")


def test_criterion_7_topk_desk_scale():
    prof = BettiProfile(2, 1)
    assert k_homology_rank(0, prof) == 4
    assert k_homology_rank(1, prof) == 0
    for a in range(3):
        for b in range(3):
            fc = FiniteCensus(((2, a), (3, b)))
            assert ktop_rank(0, prof, fc) == 4 + a + 2 * b
            assert ktop_rank(1, prof, fc) == 0
    fc = FiniteCensus(((2, 1), (3, 1)))
    for q in range(-4, 5):
        assert ktop_rank(q, prof, fc) == ktop_rank(q + 2, prof, fc)
    for n in range(2, 7):
        pn = BettiProfile(n, 2)
        for q in range(2 * n, 2 * n + 3):
            assert betti_rank(q, pn) == 0
    _report(7, "rank formulas: even 4 + a + 2b, odd 0, Bott periodic, vanishing")


def test_criterion_8_torsion_censuses(rationals, sqrt2, sqrt5):
    expected = {
        rationals: [1, 2, 3, 4, 6],
        sqrt2: [1, 2, 3, 4, 6, 8],
        sqrt5: [1, 2, 3, 4, 5, 6, 10],
    }
    for field, want in expected.items():
        found = torsion_orders(field, 12)
        assert [m for m, _ in found] == want
        for m, wit in found:
            acc = wit
            for _ in range(m - 1):
                assert not acc.is_identity()
                acc = acc * wit
            assert acc.is_identity()
    _report(8, "torsion orders {1,2,3,4,6} / +{8} / +{5,10} with verified witnesses")


def test_criterion_9_square_root_roundtrip(sqrt2, sqrt3, sqrt5):
    rng = random.Random(22)
    for field in (sqrt2, sqrt3, sqrt5):
        for _ in range(1000):
            x = field.element([rng.randint(-4, 4) for _ in range(field.degree)])
            got = has_square_root(x * x).value
            assert got is not None and got in (x, -x)
    assert has_square_root(sqrt2.generator()).value is None
    _report(9, "3000 square-root roundtrips; sqrt(theta) certified absent")


def test_criterion_10_cli_determinism(capsys):
    runs = []
    for _ in range(2):
        code = main(["classify", "--field", str(DATA / "sqrt2.json"),
                     "--matrix", "1+1g;1+1g;2;1+1g"])
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    golden = (Path(__file__).parent / "golden" / "classify_mixed.json").read_text()
    assert runs[0] == golden

    codes = {}
    codes[0] = main(["normalizer", "--field", str(DATA / "sqrt2.json"),
                     "--matrix", "1+1g;0;0;-1+1g", "--height", "2"])
    codes[2] = main(["classify", "--field", str(DATA / "sqrt2.json"),
                     "--matrix", "not a matrix"])
    codes[3] = main(["classify", "--field", str(DATA / "sqrt2.json"),
                     "--matrix", "1;0;0;2"])
    codes[4] = main(["normalizer", "--field", str(DATA / "sqrt2.json"),
                     "--matrix", "1+1g;1+1g;2;1+1g", "--height", "0"])
    capsys.readouterr()
    assert {k: v for k, v in codes.items()} == {0: 0, 2: 2, 3: 3, 4: 4}
    _report(10, "byte-identical golden output; exit codes 0/2/3/4 exercised")
