import json
import math
import random

import pytest

from hilmod.ktheory import (
    BASE,
    BASE_C2,
    Cardinal,
    Census,
    KExpression,
    KTerm,
    MAX_CENSUS_DEGREE,
    OPAQUE_LABEL,
    RingProps,
    _nil_blocks,
    bhs_iterate,
    dos_nil,
    nil_single,
    simplify,
    wh_decomposition_psl,
    wh_decomposition_sl,
)
from refpoly import is_empty

FIN = Cardinal.finite
INF = Cardinal.infinite()
UNK = Cardinal.unknown()


def test_cardinal_addition():
    assert FIN(2) + FIN(3) == FIN(5)
    assert FIN(2) + INF == INF
    assert UNK + INF == INF
    assert UNK + FIN(0) == UNK
    assert FIN(0) + UNK == UNK
    assert UNK + FIN(1) == UNK


def test_cardinal_multiplication():
    assert FIN(2) * FIN(3) == FIN(6)
    assert FIN(0) * INF == FIN(0)  # zero annihilates
    assert FIN(0) * UNK == FIN(0)
    assert FIN(2) * UNK == UNK
    assert INF * INF == INF


def test_cardinal_json():
    for c in (FIN(0), FIN(7), INF, UNK):
        assert Cardinal.from_json(c.to_json()) == c


def test_expression_normal_form():
    t = KTerm.nk(1)
    e = KExpression([(t, FIN(1)), (t, FIN(2)), (KTerm.k(0), FIN(0))])
    assert e.terms == ((t, FIN(3)),)
    assert is_empty(KExpression([(t, FIN(0))]))


def test_expression_merge_commutes():
    a = KExpression.single(KTerm.nk(2), FIN(2))
    b = KExpression.single(KTerm.k(1))
    c = KExpression.single(KTerm.wh(1, 2, "C2"))
    assert (a + b) + c == a + (b + c) == (c + b) + a


def test_dos_nil_rows():
    assert dos_nil(0, 5).terms == ((KTerm.nk(5), FIN(2)),)
    assert dict(dos_nil(1, 5).terms) == {KTerm.nk(5): FIN(2), KTerm.nk(4): FIN(2)}
    assert dict(dos_nil(2, 5).terms) == {
        KTerm.nk(5): FIN(2), KTerm.nk(4): FIN(4), KTerm.nk(3): FIN(2)}
    assert is_empty(dos_nil(-1, 5))


def test_nil_single_rows():
    assert nil_single(0, 5).terms == ((KTerm.nk(5), FIN(1)),)
    assert dict(nil_single(2, 5).terms) == {
        KTerm.nk(5): FIN(1), KTerm.nk(4): FIN(2), KTerm.nk(3): FIN(1)}
    assert is_empty(nil_single(-1, 5))


def test_pascal_recurrence():
    for gen in (dos_nil, nil_single):
        for s in range(1, 11):
            assert gen(s, 0) == gen(s - 1, 0) + gen(s - 1, 0).shift_degree(-1)


def test_bhs_iterate_small():
    assert bhs_iterate(0, 3).terms == ((KTerm.k(3), FIN(1)),)
    d1 = dict(bhs_iterate(1, 3).terms)
    assert d1 == {KTerm.k(3): FIN(1), KTerm.k(2): FIN(1),
                  KTerm.nk(3, BASE, level=0): FIN(2)}
    d2 = bhs_iterate(2, 3)
    ks = {t.degree: m for t, m in d2.terms if t.kind == "k"}
    assert ks == {3: FIN(1), 2: FIN(2), 1: FIN(1)}


def test_bhs_binomial_pattern():
    for d in range(11):
        ks = {t.degree: m for t, m in bhs_iterate(d, 0).terms if t.kind == "k"}
        assert ks == {-i: FIN(math.comb(d, i)) for i in range(d + 1)}


def test_bhs_keeps_intermediate_nk_opaque():
    levels = {t.level for t, _ in bhs_iterate(3, 0).terms if t.kind == "nk"}
    assert levels == {0, 1, 2}  # one NK family per rewrite step, unexpanded


def test_census_validation():
    c = Census(n=3, m1=(FIN(1),))
    assert c.m1 == (FIN(1), FIN(0))
    with pytest.raises(ValueError):
        Census(n=2, m1=(FIN(1), FIN(1)))
    with pytest.raises(ValueError):
        Census(n=0)


def test_census_rejects_non_integer_counts():
    # every finite order is checked, not only the last one
    with pytest.raises(ValueError, match="order must be an integer, got 2.5"):
        Census.from_json({"n": 2, "finite": [{"order": 2.5, "count": 1},
                                             {"order": 3, "count": 1}]})
    with pytest.raises(ValueError, match="m1: finite must be an integer, got True"):
        Census.from_json({"n": 3, "m1": [True]})
    with pytest.raises(ValueError, match="finite must be an integer, got 1.5"):
        Cardinal.finite(1.5)


def test_census_rejects_orders_below_two():
    for order in (-3, 0, 1):
        with pytest.raises(ValueError, match=f"order must be >= 2, got {order}"):
            Census(n=2, finite=((3, FIN(1)), (order, FIN(1))))
    assert Census(n=2, finite=((2, FIN(1)),)).finite == ((2, FIN(1)),)


def test_census_rejects_degrees_above_maximum():
    assert Census(n=MAX_CENSUS_DEGREE).n == MAX_CENSUS_DEGREE
    for n in (MAX_CENSUS_DEGREE + 1, 10 ** 12, 10 ** 19):
        with pytest.raises(ValueError, match=f"degree must be <= {MAX_CENSUS_DEGREE}, got {n}"):
            Census(n=n)


def test_census_json_roundtrip():
    """The census reader on literal JSON against the census built directly;
    the library writes no census, so nothing is read back."""
    data = json.loads('{"n": 2, "finite": [{"order": 2, "count": {"finite": 3}}, '
                      '{"order": 3, "count": "infinite"}], '
                      '"p": "unknown", "hp2": 1, "m1": ["infinite"]}')
    want = Census(n=2, finite=((2, FIN(3)), (3, INF)), p=UNK, hp2=FIN(1), m1=(INF,))
    assert Census.from_json(data) == want


def test_psl_decomposition_regular():
    census = Census(n=2, finite=((2, FIN(2)), (3, FIN(3))), p=INF, h1=FIN(1))
    e = wh_decomposition_psl(census, 1, RingProps(regular=True))
    assert all(t.kind == "wh" for t, _ in e.terms)
    assert e.multiplicity(KTerm.wh(1, 2, "C2")) == FIN(2)
    assert e.multiplicity(KTerm.wh(1, 3, "C3")) == FIN(3)


def test_psl_decomposition_parabolic_block():
    census = Census(n=2, p=FIN(1))
    e = wh_decomposition_psl(census, 0, RingProps())
    assert dict(e.terms) == {KTerm.nk(0): FIN(2), KTerm.nk(-1): FIN(2)}


def test_psl_decomposition_empty():
    assert is_empty(wh_decomposition_psl(Census(n=2), 1, RingProps()))


def test_psl_decomposition_fuchsian():
    # n = 1: no HP or mixed slots; H1 gives two NK copies, H2 one
    census = Census(n=1, finite=((2, FIN(1)),), h1=FIN(1), h2=FIN(1))
    e = wh_decomposition_psl(census, 1, RingProps())
    assert e.multiplicity(KTerm.nk(1)) == FIN(3)
    assert e.multiplicity(KTerm.wh(1, 2, "C2")) == FIN(1)
    assert len(e.terms) == 2


def test_psl_slot_ring_is_base():
    census = Census(n=3, p=FIN(1), h2=FIN(1), hp1=FIN(1), m2=(FIN(1), FIN(2)))
    e = wh_decomposition_psl(census, 0, RingProps())
    assert all(t.ring == BASE for t, _ in e.terms if t.kind == "nk")


def test_sl_decomposition_hp2():
    census = Census(n=2, hp2=FIN(1))
    e = wh_decomposition_sl(census, 4, RingProps())
    d = dict(e.terms)
    assert d == {KTerm.opaque(OPAQUE_LABEL): FIN(1),
                 KTerm.nk(4, BASE_C2): FIN(1)}
    assert any("long_exact_sequence" in note for note in e.notes)


def test_sl_decomposition_empty_census():
    e = wh_decomposition_sl(Census(n=2), 1, RingProps())
    assert dict(e.terms) == {KTerm.opaque(OPAQUE_LABEL): FIN(1)}


def test_sl_decomposition_parabolic_block():
    e = wh_decomposition_sl(Census(n=2, p=FIN(1)), 1, RingProps())
    nk = {t: m for t, m in e.terms if t.kind == "nk"}
    assert nk == {KTerm.nk(1, BASE_C2): FIN(2), KTerm.nk(0, BASE_C2): FIN(2)}
    assert all(t.ring == BASE_C2 for t in nk)


def test_simplify_regular_commutes():
    census = Census(n=2, finite=((2, FIN(1)),), p=FIN(1), h2=FIN(2))
    props = RingProps(regular=True)
    a = wh_decomposition_psl(census, 1, props)
    b = simplify(wh_decomposition_psl(census, 1, RingProps()), props)
    assert a == b


def test_simplify_finite_exponent():
    e = simplify(dos_nil(2, 1), RingProps(nk_finite_exponent=True))
    assert dict(e.terms) == {KTerm.nk(1): FIN(1), KTerm.nk(0): FIN(1),
                             KTerm.nk(-1): FIN(1)}
    assert any("nk_finite_exponent_collapse" in n for n in e.notes)


def test_simplify_noop():
    e = dos_nil(1, 0)
    assert simplify(e, RingProps()) == e


def test_infinite_census_multiplicities():
    e = wh_decomposition_psl(Census(n=2, p=INF), 0, RingProps())
    assert e.multiplicity(KTerm.nk(0)) == INF
    e2 = wh_decomposition_psl(Census(n=2, h2=UNK), 0, RingProps())
    assert e2.multiplicity(KTerm.nk(0)) == UNK


def _one_block_at_a_time(census: Census, q: int, sl: bool) -> KExpression:
    """Reference: each binomial Nil block is its own KExpression, scaled by
    its slot's multiplicity and added with + in slot order, so every step
    re-merges and re-sorts the terms so far.  Not yet simplified."""
    ring = BASE_C2 if sl else BASE
    n = census.n
    blocks = [(n - 1, 2, census.p), (n - 1, 2, census.h1), (n - 1, 1, census.h2),
              (n - 2, 2, census.hp1), (n - 2, 1, census.hp2)]
    for j in range(1, n):
        blocks += [(j - 1, 2, census.m1[j - 1]), (j - 1, 1, census.m2[j - 1])]
    if sl:
        expr = KExpression.single(KTerm.opaque(OPAQUE_LABEL))
    else:
        expr = KExpression([(KTerm.wh(q, order, f"C{order}"), c) for order, c in census.finite])
    for s, copies, mult in blocks:
        block = KExpression([(KTerm.nk(q - i, ring), FIN(copies * math.comb(s, i)))
                             for i in range(s + 1)])
        expr = expr + block.scale(mult)
    return expr


def test_decompositions_match_one_block_at_a_time():
    rng = random.Random(20171)

    def card():
        return rng.choice([FIN(0), FIN(0), FIN(1), FIN(rng.randrange(2, 10 ** 6)), INF, UNK])
    all_props = [RingProps(), RingProps(regular=True), RingProps(nk_finite_exponent=True),
                 RingProps(regular=True, nk_finite_exponent=True)]
    kinds = set()
    for _ in range(300):
        n = rng.choice([1, 2, 3, rng.randrange(4, 13), rng.randrange(13, 25)])
        census = Census(n=n, finite=tuple((rng.randrange(2, 13), card())  # orders may repeat
                                          for _ in range(rng.randrange(4))),
                        m1=tuple(card() for _ in range(n - 1)), m2=tuple(card() for _ in range(n - 1)),
                        **{k: card() for k in ("p", "h1", "h2", "hp1", "hp2")})
        q = rng.randrange(-2, 4)
        kinds |= {m.kind for m in census.m1 + (census.p, census.h2)}
        for sl, fn in ((False, wh_decomposition_psl), (True, wh_decomposition_sl)):
            unsimplified = _one_block_at_a_time(census, q, sl)
            for props in all_props:
                got, want = fn(census, q, props), simplify(unsimplified, props)
                assert got.to_json() == want.to_json()
                assert got.notes[:len(want.notes)] == want.notes  # sl appends its sequence
                assert len(got.notes) == len(want.notes) + sl
    assert kinds == {"finite", "infinite", "unknown"}


def test_nil_blocks_one_pair_per_degree():
    """A census of degree n gives at most n (NK term, multiplicity) pairs,
    one per degree q - i, not one per block and degree."""
    for n in (1, 2, 3, 10, MAX_CENSUS_DEGREE):
        census = Census(n=n, p=FIN(1), h1=INF, h2=UNK, hp1=FIN(2), hp2=FIN(3),
                        m1=[FIN(j) for j in range(n - 1)], m2=[UNK] * (n - 1))
        for ring in (BASE, BASE_C2):
            pairs = _nil_blocks(census, 1, ring)
            assert len(pairs) <= n
            assert len({term for term, _ in pairs}) == len(pairs)
