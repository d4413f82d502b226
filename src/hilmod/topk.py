"""Rational ranks of the topological K-theory of the reduced group
C*-algebra of PSL_2(O_k): closed-form Betti numbers of the quotient,
parity folding via the Chern character, and the correction from
conjugacy classes of maximal finite subgroups."""

from __future__ import annotations

import math
from typing import Sequence

from .exactnum import Record, require_ints, require_json


class BadProfile(ValueError):
    pass


class BettiProfile(Record):
    """Numeric inputs: field degree n, class number h (an input, never
    computed), and cusp-form Hodge dimensions as (p, r, dim) triples with
    p + r = n.  Cusp dimensions default to empty, which makes the rank at
    the middle degree a lower bound only (flagged in output)."""

    __slots__ = ("n", "h", "cusp_dims")

    def __init__(self, n: int, h: int, cusp_dims: Sequence[Sequence[int]] = ()):
        require_ints(degree=n, class_number=h)
        if n < 1:
            raise BadProfile("degree must be >= 1")
        if h < 1:
            raise BadProfile("class number must be >= 1")
        cusp_dims = tuple(tuple(t) for t in cusp_dims)
        for p, r, dim in cusp_dims:
            require_ints(p=p, r=r, dim=dim)
            if p < 0 or r < 0 or dim < 0:
                raise BadProfile("cusp entries must be nonnegative")
            if p + r != n:
                raise BadProfile(f"cusp split {p}+{r} != {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "cusp_dims", cusp_dims)

    @property
    def cusp_total(self) -> int:
        return sum(dim for _, _, dim in self.cusp_dims)

    @property
    def cusp_defaulted(self) -> bool:
        return not self.cusp_dims


class FiniteCensus(Record):
    """Conjugacy classes of maximal finite subgroups as (order, count)
    pairs; a class of order o contributes a free summand of rank o - 1 in
    even degree."""

    __slots__ = ("classes",)

    def __init__(self, classes: Sequence[Sequence[int]] = ()):
        classes = tuple(tuple(t) for t in classes)
        for order, count in classes:
            require_ints(order=order, count=count)
            if order < 2 or count < 0:
                raise BadProfile("census needs orders >= 2 and counts >= 0")
        object.__setattr__(self, "classes", classes)

    def correction(self) -> int:
        return sum(count * (order - 1) for order, count in self.classes)

    @staticmethod
    def from_json(data) -> "FiniteCensus":
        shape = 'a list of objects {"order": m, "count": c}'
        entries = [require_json(e, dict, shape, ("order", "count"))
                   for e in require_json(data, list, shape)]
        return FiniteCensus(tuple((e["order"], e["count"]) for e in entries))


def betti_breakdown(q: int, prof: BettiProfile) -> dict:
    """The three pieces of rk H_q(X): universal classes (even degrees),
    Eisenstein classes (degrees n .. 2n-1), cusp forms (degree n only)."""
    n, h = prof.n, prof.h
    if q < 0 or q >= 2 * n:
        return {"b_univ": 0, "b_eis": 0, "b_cusp": 0}
    univ = math.comb(n, q // 2) if q % 2 == 0 else 0
    if q < n:
        eis = 0
    elif q < 2 * n - 1:
        eis = h * math.comb(n - 1, q - n)
    elif q == 2 * n - 1:
        eis = h - 1
    else:
        eis = 0
    cusp = prof.cusp_total if q == n else 0
    return {"b_univ": univ, "b_eis": eis, "b_cusp": cusp}


def betti_rank(q: int, prof: BettiProfile) -> int:
    b = betti_breakdown(q, prof)
    return b["b_univ"] + b["b_eis"] + b["b_cusp"]


def k_homology_rank(q: int, prof: BettiProfile) -> int:
    """Chern-character folding: sum of Betti ranks over the parity class
    of q (finite sum; ranks vanish outside [0, 2n))."""
    return sum(betti_rank(j, prof) for j in range(q % 2, 2 * prof.n, 2))


def ktop_rank(q: int, prof: BettiProfile, fc: FiniteCensus = FiniteCensus()) -> int:
    """rk K_q^top(C*_r(PSL_2(O_k))): the folded homology rank, plus in
    even degree one rank-(o-1) summand per finite class of order o."""
    rank = k_homology_rank(q, prof)
    if q % 2 == 0:
        rank += fc.correction()
    return rank


def ktop_json(q: int, prof: BettiProfile, fc: FiniteCensus = FiniteCensus()) -> dict:
    parity = q % 2
    breakdown = {"b_univ": 0, "b_eis": 0, "b_cusp": 0}
    for j in range(parity, 2 * prof.n, 2):
        b = betti_breakdown(j, prof)
        for key in breakdown:
            breakdown[key] += b[key]
    # rk H_0 = 1 is the constant universal class; report it separately
    breakdown["h0"] = 1 if parity == 0 else 0
    breakdown["b_univ"] -= breakdown["h0"]
    breakdown["finite"] = fc.correction() if parity == 0 else 0
    defaulted = prof.cusp_defaulted and prof.n % 2 == parity
    return {
        "q_mod_2": parity,
        "rank": sum(breakdown.values()),  # ktop_rank(q, prof, fc)
        "breakdown": breakdown,
        "cusp_defaulted": defaulted,
    }
