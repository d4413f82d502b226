import json
import math

import pytest

from hilmod.topk import (
    BadProfile,
    BettiProfile,
    FiniteCensus,
    betti_breakdown,
    betti_rank,
    k_homology_rank,
    ktop_json,
    ktop_rank,
)


def test_profile_validation():
    BettiProfile(2, 1)
    BettiProfile(2, 1, ((1, 1, 3),))
    with pytest.raises(BadProfile):
        BettiProfile(0, 1)
    with pytest.raises(BadProfile):
        BettiProfile(2, 0)
    with pytest.raises(BadProfile):
        BettiProfile(2, 1, ((1, 2, 0),))  # p + r != n
    with pytest.raises(BadProfile):
        BettiProfile(2, 1, ((1, 1, -1),))


def test_betti_examples():
    prof = BettiProfile(2, 1)
    assert betti_rank(0, prof) == 1
    assert betti_rank(1, prof) == 0
    assert betti_rank(2, prof) == 3  # binom(2,1) + 1*binom(1,0)
    assert betti_rank(3, prof) == 0  # h - 1 = 0
    assert betti_rank(4, prof) == 0
    assert betti_rank(-1, prof) == 0


def test_betti_eis_top_degree():
    prof = BettiProfile(2, 3)
    assert betti_rank(3, prof) == 2  # h - 1 at q = 2n-1


def test_betti_cusp_only_middle_degree():
    prof = BettiProfile(2, 1, ((1, 1, 5),))
    for q in range(-1, 6):
        b = betti_breakdown(q, prof)
        assert b["b_cusp"] == (5 if q == 2 else 0)


def test_betti_vanishes_outside_range():
    for n in range(2, 7):
        prof = BettiProfile(n, 2)
        for q in range(2 * n, 2 * n + 4):
            assert betti_rank(q, prof) == 0
        assert betti_rank(-3, prof) == 0


def test_alternating_sum_closed_form():
    # independent identity: sum_q (-1)^q rk H_q = 2^n + (-1)^n * cusp
    # (universal classes give 2^n - 1 over even q < 2n, Eisenstein +1)
    for n in range(2, 7):
        for h in range(1, 6):
            for cusp in (0, 3):
                dims = ((1, n - 1, cusp),) if cusp else ()
                prof = BettiProfile(n, h, dims)
                alt = sum((-1) ** q * betti_rank(q, prof) for q in range(2 * n))
                assert alt == 2 ** n + (-1) ** n * cusp


def test_k_homology_rank():
    prof = BettiProfile(2, 1)
    assert k_homology_rank(0, prof) == 4
    assert k_homology_rank(1, prof) == 0
    prof2 = BettiProfile(2, 2)
    assert k_homology_rank(1, prof2) == 1  # b_3 = h - 1
    assert k_homology_rank(3, prof2) == k_homology_rank(1, prof2)


def test_finite_census():
    fc = FiniteCensus(((2, 1), (3, 2)))
    assert fc.correction() == 1 + 2 * 2
    assert FiniteCensus().correction() == 0
    assert FiniteCensus.from_json(json.loads('[{"order": 2, "count": 1}, '
                                             '{"order": 3, "count": 2}]')) == fc
    with pytest.raises(BadProfile):
        FiniteCensus(((1, 1),))


def test_ktop_rank():
    prof = BettiProfile(2, 1)
    fc = FiniteCensus(((2, 2), (3, 1)))
    assert ktop_rank(0, prof, fc) == 4 + 2 + 2
    assert ktop_rank(1, prof, fc) == 0
    assert ktop_rank(0, prof) == 4


def test_bott_periodicity():
    prof = BettiProfile(3, 2, ((1, 2, 1),))
    fc = FiniteCensus(((2, 1),))
    for q in range(-4, 5):
        assert ktop_rank(q, prof, fc) == ktop_rank(q + 2, prof, fc)


def test_monotonicity():
    base = BettiProfile(3, 1)
    more_h = BettiProfile(3, 4)
    more_cusp = BettiProfile(3, 1, ((1, 2, 7),))
    for q in range(0, 6):
        assert betti_rank(q, more_h) >= betti_rank(q, base)
        assert betti_rank(q, more_cusp) >= betti_rank(q, base)


def test_ktop_json_breakdown():
    prof = BettiProfile(2, 1)
    fc = FiniteCensus(((2, 1),))
    out = ktop_json(0, prof, fc)
    assert out["rank"] == 5
    assert out["breakdown"] == {"b_univ": 2, "b_eis": 1, "b_cusp": 0,
                                "h0": 1, "finite": 1}
    assert sum(out["breakdown"].values()) == out["rank"]
    assert out["cusp_defaulted"] is True  # n = 2 is even, cusp dims empty
    odd = ktop_json(1, prof, fc)
    assert odd["rank"] == 0 and odd["breakdown"]["finite"] == 0
    assert odd["cusp_defaulted"] is False


@pytest.mark.parametrize("prof, fc", [
    (BettiProfile(1, 1), FiniteCensus()),
    (BettiProfile(2, 1), FiniteCensus(((2, 2), (3, 1)))),
    (BettiProfile(2, 3, ((1, 1, 2), (2, 0, 1))), FiniteCensus(((2, 1),))),
    (BettiProfile(3, 2, ((1, 2, 1),)), FiniteCensus(((4, 1), (6, 3)))),
])
def test_ktop_json_rank_is_ktop_rank(prof, fc):
    for q in range(-2, 2 * prof.n + 2):
        assert ktop_json(q, prof, fc)["rank"] == ktop_rank(q, prof, fc), q
