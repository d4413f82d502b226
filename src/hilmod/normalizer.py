"""Normalizer / commensurator structure of infinite cyclic subgroups in
PSL_2(O_k), its lift to SL_2(O_k), and census slot assignment.

The free-abelian rank of the normalizer is certain and determined by the
element class alone.  Whether a Z/2 factor is present is decided by a
bounded search for an involution beta = [[x, y], [z, -x]] in O_k, of
coordinate height at most h, conjugating the element to its inverse.
Only x is enumerated, (2h+1)^n values in a canonical order: the
conjugation condition is linear in (y, z) and det beta = 1 fixes their
product, so each x leaves at most two candidates (one in-field square-root
test), except for a diagonal element, where x = 0 and y is enumerated.
The witness is the first in the canonical (x, y) order, the one an
enumeration of all pairs would find.  A search that reaches the bound
without a witness is reported as inconclusive rather than guessed.

A mixed element has no such involution over k at any height: at an
elliptic embedding the discriminant that x must make a square is negative
for every x (see ``involution_search``), so its search returns None at
once (Katok, Fuchsian Groups, 1992: an elliptic element of PSL_2(R) is not
conjugate to its inverse by an orientation-preserving map).  The report
still maps that None to inconclusive, as for any search without a witness;
only for totally hyperbolic elements is the Z/2 factor truly open beyond
the bound."""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .classify import ClassKind, ElementClass, classify
from .modgrp import Mat2, PslElem, check_sl, psl_normalize
from .numfield import FieldElement, has_square_root


class FiniteOrderClass(ValueError):
    pass


class ParabolicInput(ValueError):
    pass


class RankMismatch(ValueError):
    pass


FREE_ABELIAN = "free_abelian"
SEMIDIRECT_Z2 = "semidirect_z2"
DIRECT_SUM_Z2 = "direct_sum_z2"
SEMIDIRECT_Z4 = "semidirect_z4"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class NormalizerType:
    """Z^r (free_abelian), Z^r x| Z/2 (semidirect_z2), or rank-certain but
    Z/2-factor undecided (inconclusive).  A semidirect_z2 type found by
    ``involution_search`` carries its witness; it is not part of the type."""

    kind: str
    rank: int
    witness: Optional[PslElem] = dataclasses.field(default=None, compare=False)


@dataclass(frozen=True)
class SlNormalizerType:
    """Z^r + Z/2 (direct_sum_z2) or Z^r x| Z/4 (semidirect_z4)."""

    kind: str
    rank: int


@dataclass(frozen=True)
class CensusSlot:
    kind: str  # "P" | "H1" | "H2" | "HP1" | "HP2" | "M1" | "M2" |
               # "finite_maximal" | "undetermined"
    j: Optional[int] = None      # mixed slots: hyperbolic component count
    order: Optional[int] = None  # finite_maximal slots


def normalizer_rank(cls: ElementClass) -> int:
    """Certain free-abelian rank of N_G[H] for the class of the generator,
    over a field of degree n = len(cls.per_embedding)."""
    if not cls.is_infinite_order:
        raise FiniteOrderClass("normalizer rank is defined for infinite-order classes")
    n = len(cls.per_embedding)
    if cls.kind is ClassKind.TOTALLY_PARABOLIC:
        return n
    if cls.kind is ClassKind.TOTALLY_HYPERBOLIC:
        return n - 1 if cls.hyperbolic_parabolic else n
    return cls.hyperbolic_components  # mixed


def _coord_key(t) -> tuple:
    """Sort key of the canonical order of ``_coord_tuples``."""
    return (max((abs(c) for c in t), default=0), tuple((abs(c), c < 0) for c in t))


def _shell(n: int, k: int, digits: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The n-tuples over ``digits`` = (0, 1, -1, ..., k, -k) with some
    |coord| = k, in lexicographic order."""
    for v in digits:
        if abs(v) == k:
            for rest in itertools.product(digits, repeat=n - 1):
                yield (v, *rest)
        elif n > 1:
            for rest in _shell(n - 1, k, digits):
                yield (v, *rest)


def _coord_tuples(n: int, height: int) -> Iterator[tuple[int, ...]]:
    """Integer coordinate tuples with max |coord| <= height, in a canonical
    order: by height, then lexicographically in the per-coordinate order
    0, 1, -1, 2, -2, ...  Streamed shell by shell, never materialised."""
    if height < 0:
        return
    yield (0,) * n
    for k in range(1, height + 1):
        yield from _shell(n, k, (0,) + tuple(v for m in range(1, k + 1) for v in (m, -m)))


def involution_search(a: PslElem, height_bound: int,
                      cls: Optional[ElementClass] = None) -> Optional[PslElem]:
    """The first order-two beta = [[x, y], [z, -x]] in O_k of coordinate
    height <= ``height_bound`` with beta a beta^-1 = a^-1, in the canonical
    order of (x, y); None when there is none up to the bound.

    For a = [[p, q], [r, s]] of infinite order the conjugation condition is
    x(p - s) + r y + q z = 0 (beta a beta^-1 = -a^-1 would force tr a = 0),
    and det 1 is y z = -(1 + x^2).  So only x is enumerated:
    - q, r != 0: r y and q z are the roots of T^2 + x(p - s) T - rq(1 + x^2),
      whose discriminant is D x^2 + 4qr with D = (p - s)^2 + 4qr = tr^2 - 4;
    - exactly one of q, r is 0: the system is linear;
    - q = r = 0: x = 0 and y is free, so y is enumerated too.
    Every candidate is then checked exactly.

    A mixed a returns None at once, certified at every height: at an
    elliptic embedding sigma, sigma(D) < 0 forces sigma(4qr) <
    -sigma(p - s)^2 <= 0, so sigma(D x^2 + 4qr) < 0 and no x in k makes
    it a square (q = 0 or r = 0 would make D = (p - s)^2 >= 0).
    ``cls`` is the class of a, computed when not given.
    """
    cls = classify(a) if cls is None else cls
    if cls.kind is ClassKind.TOTALLY_PARABOLIC:
        raise ParabolicInput("totally parabolic normalizers contain no involution")
    if not cls.is_infinite_order:
        raise FiniteOrderClass("involution search needs an infinite-order element")
    if height_bound < 0 or cls.kind is ClassKind.MIXED:
        return None
    field = a.field
    n = field.degree
    p, q, r, s = a.rep.entries
    a_inv = a.inv()
    diagonal = q.is_zero and r.is_zero
    r_inv = None if r.is_zero else r.inverse()
    q_inv = None if q.is_zero else q.inverse()
    p_s = p - s
    four_qr = q * r * 4
    disc = p_s * p_s + four_qr

    def candidates(x: FieldElement) -> Iterator[tuple[FieldElement, FieldElement]]:
        """Every (y, z) in k solving both conditions, y in canonical order
        (the order only matters among integral y)."""
        if r_inv is not None and q_inv is not None:
            root = has_square_root(disc * (x * x) + four_qr).value
            if root is None:
                return
            t = x * p_s
            roots = (root, -root) if not root.is_zero else (root,)
            ys = [(e - t) * r_inv * Fraction(1, 2) for e in roots]
            for y in sorted(ys, key=lambda y: _coord_key(y.coords)):
                yield y, (-t - r * y) * q_inv
            return
        t = x * p_s
        need = -field.one() - x * x  # = y*z
        if diagonal:  # x = 0 (p != s, else a = +-1) leaves y free
            for yc in _coord_tuples(n, height_bound):
                y = field.element(yc)
                if not y.is_zero:
                    yield y, need / y
        elif r_inv is None:
            z = -t * q_inv
            if not z.is_zero:
                yield need / z, z
        else:
            y = -t * r_inv
            if not y.is_zero:
                yield y, need / y

    for xc in [(0,) * n] if diagonal else _coord_tuples(n, height_bound):
        x = field.element(xc)
        for y, z in candidates(x):
            if not (y.is_integral() and z.is_integral()):
                continue
            if max(y.height(), z.height()) > height_bound:
                continue
            beta = Mat2(x, y, z, -x)
            if not check_sl(beta):
                continue
            b = psl_normalize(beta)
            if (b * a * b.inv()).rep == a_inv.rep:
                return b
    return None


def normalizer_type_psl(a: PslElem, height_bound: int = 5,
                        cls: Optional[ElementClass] = None) -> NormalizerType:
    """Normalizer type of <a> in PSL_2(O_k), with the witness involution
    when one is found.  ``cls`` is the class of a, computed when not given."""
    cls = classify(a) if cls is None else cls
    if not cls.is_infinite_order:
        raise FiniteOrderClass("normalizer type is defined for infinite-order elements")
    rank = normalizer_rank(cls)
    if cls.kind is ClassKind.TOTALLY_PARABOLIC:
        # all normalizer elements are translations; no Z/2 factor, certain
        return NormalizerType(FREE_ABELIAN, rank)
    witness = involution_search(a, height_bound, cls)
    if witness is not None:
        return NormalizerType(SEMIDIRECT_Z2, rank, witness)
    return NormalizerType(INCONCLUSIVE, rank)


def lift_to_sl(nt: NormalizerType) -> SlNormalizerType:
    """Normalizer in SL_2(O_k) of a lift of the cyclic subgroup: the center
    {+-I} contributes Z/2 directly in the free-abelian case and promotes
    the Z/2 on top to a Z/4."""
    if nt.kind == FREE_ABELIAN:
        return SlNormalizerType(DIRECT_SUM_Z2, nt.rank)
    if nt.kind == SEMIDIRECT_Z2:
        return SlNormalizerType(SEMIDIRECT_Z4, nt.rank)
    return SlNormalizerType(INCONCLUSIVE, nt.rank)


def census_slot(cls: ElementClass, nt: Optional[NormalizerType]) -> CensusSlot:
    """Which census set the commensuration class of the generator lands in."""
    if not cls.is_infinite_order:
        return CensusSlot("finite_maximal", order=cls.order)
    if nt is None:
        raise RankMismatch("infinite-order classes need a normalizer type")
    rank = normalizer_rank(cls)
    if nt.rank != rank:
        raise RankMismatch(
            f"normalizer rank {nt.rank} does not match the class rank {rank}")
    if nt.kind == INCONCLUSIVE:
        return CensusSlot("undetermined")
    free = nt.kind == FREE_ABELIAN
    if cls.kind is ClassKind.TOTALLY_PARABOLIC:
        return CensusSlot("P")
    if cls.kind is ClassKind.TOTALLY_HYPERBOLIC:
        if cls.hyperbolic_parabolic:
            return CensusSlot("HP1" if free else "HP2")
        return CensusSlot("H1" if free else "H2")
    return CensusSlot("M1" if free else "M2", j=cls.hyperbolic_components)


def normalizer_json(a: PslElem, height_bound: int = 5) -> dict:
    cls = classify(a)
    nt = normalizer_type_psl(a, height_bound, cls)
    slot = census_slot(cls, nt)
    wit = nt.witness.to_json() if nt.witness is not None else None
    slot_name = slot.kind if slot.j is None else f"{slot.kind}{{{slot.j}}}"
    return {
        "rank": nt.rank,
        "psl_type": nt.kind,
        "sl_type": lift_to_sl(nt).kind,
        "witness_involution": wit,
        "census_slot": slot_name,
    }
