"""Symbolic K-theory term calculus.

Expressions are multisets of terms (Whitehead groups of finite subgroups,
Bass Nil-groups of the coefficient ring or of its Z/2 group ring, K-groups
of the base ring, one opaque homology leading term) with cardinal
multiplicities.  The binomial Nil blocks come in a two-copy flavour for
normalizers with a free abelian quotient and a one-copy flavour for the
semidirect ones, where the order-four element flips each pair of
Nil-groups and only the diagonal survives.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .exactnum import Record, require_ints, require_json

BASE = "base"
BASE_C2 = "base_c2"  # the group ring R[Z/2]

_RING_NAMES = {BASE: "R", BASE_C2: "R[Z/2]"}

MAX_CENSUS_DEGREE = 100  # a census of degree n gives n Nil terms from about n^2 products


class Cardinal(Record):
    """A multiplicity: a finite count, countably infinite, or unknown."""

    __slots__ = ("kind", "count")

    def __init__(self, kind: str, count: int = 0):
        object.__setattr__(self, "kind", kind)  # "finite" | "infinite" | "unknown"
        object.__setattr__(self, "count", count)

    @staticmethod
    def finite(k: int) -> "Cardinal":
        require_ints(finite=k)
        if k < 0:
            raise ValueError("negative multiplicity")
        return Cardinal("finite", k)

    @staticmethod
    def infinite() -> "Cardinal":
        return Cardinal("infinite")

    @staticmethod
    def unknown() -> "Cardinal":
        return Cardinal("unknown")

    @property
    def is_zero(self) -> bool:
        return self.kind == "finite" and self.count == 0

    def __add__(self, other: "Cardinal") -> "Cardinal":
        if self.kind == "finite" and other.kind == "finite":
            return Cardinal("finite", self.count + other.count)
        if "infinite" in (self.kind, other.kind):
            return Cardinal.infinite()
        # unknown absorbs, except against a hard zero
        return other if self.is_zero else (self if other.is_zero else Cardinal.unknown())

    def __mul__(self, other: "Cardinal") -> "Cardinal":
        if self.is_zero or other.is_zero:
            return Cardinal.finite(0)
        if self.kind == "finite" and other.kind == "finite":
            return Cardinal("finite", self.count * other.count)
        if "unknown" in (self.kind, other.kind):
            return Cardinal.unknown()
        return Cardinal.infinite()

    def to_json(self):
        return {"finite": self.count} if self.kind == "finite" else self.kind

    @staticmethod
    def from_json(data) -> "Cardinal":
        if isinstance(data, dict):
            require_json(data, dict, 'an object {"finite": count}', ("finite",))
            return Cardinal.finite(data["finite"])
        if data == "infinite":
            return Cardinal.infinite()
        if data == "unknown":
            return Cardinal.unknown()
        if isinstance(data, int):
            return Cardinal.finite(data)
        raise ValueError(f"bad cardinal: {data!r}")


class KTerm(NamedTuple):
    """One symbolic summand.  Exactly one kind:

    - wh: Wh_degree of a finite maximal subgroup (order + census id kept)
    - nk: NK_degree of a ring; ``level`` > 0 tags the opaque Nil-groups of
      intermediate group rings R[Z^level] picked up by iterated BHS
    - k: K_degree of the base ring
    - opaque: an unevaluated homology term, by label
    """

    kind: str  # "wh" | "nk" | "k" | "opaque"
    degree: Optional[int] = None
    ring: Optional[str] = None
    group_order: Optional[int] = None
    group_id: Optional[str] = None
    label: Optional[str] = None
    level: int = 0

    @staticmethod
    def wh(degree: int, group_order: int, group_id: str) -> "KTerm":
        return KTerm("wh", degree=degree, group_order=group_order, group_id=group_id)

    @staticmethod
    def nk(degree: int, ring: str = BASE, level: int = 0) -> "KTerm":
        return KTerm("nk", degree=degree, ring=ring, level=level)

    @staticmethod
    def k(degree: int) -> "KTerm":
        return KTerm("k", degree=degree)

    @staticmethod
    def opaque(label: str) -> "KTerm":
        return KTerm("opaque", label=label)

    def sort_key(self):
        order = {"opaque": 0, "wh": 1, "nk": 2, "k": 3}
        return (order[self.kind], self.label or "", self.group_id or "",
                self.group_order or 0, self.ring or "", self.level,
                -(self.degree if self.degree is not None else 0))

    def describe(self) -> str:
        if self.kind == "wh":
            return f"Wh_{self.degree}({self.group_id})"
        if self.kind == "nk":
            ring = _RING_NAMES[self.ring]
            if self.level:
                ring += f"[Z^{self.level}]"
            return f"NK_{self.degree}({ring})"
        if self.kind == "k":
            return f"K_{self.degree}(R)"
        return self.label

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for key in ("degree", "ring", "group_order", "group_id", "label"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        if self.level:
            out["level"] = self.level
        return out


class KExpression(Record):
    """A canonically sorted multiset of (KTerm, Cardinal) pairs.

    Zero-multiplicity entries are dropped and duplicate terms merged, so
    the merge is associative and commutative with a unique normal form.
    ``notes``, a tuple, carries non-structural annotations (long exact
    sequences, collapse remarks) and is ignored by equality and hashing."""

    __slots__ = ("terms", "notes")

    def __init__(self, pairs: Sequence[tuple[KTerm, Cardinal]] = (),
                 notes: Sequence[dict] = ()):
        merged: dict[KTerm, Cardinal] = {}
        for term, mult in pairs:
            prev = merged.get(term)
            merged[term] = mult if prev is None else prev + mult
        items = [(t, m) for t, m in merged.items() if not m.is_zero]
        items.sort(key=lambda tm: tm[0].sort_key())
        object.__setattr__(self, "terms", tuple(items))
        object.__setattr__(self, "notes", tuple(notes))

    def _key(self) -> tuple:
        return (self.terms,)

    @staticmethod
    def single(term: KTerm, mult: Cardinal = Cardinal.finite(1)) -> "KExpression":
        return KExpression([(term, mult)])

    def __add__(self, other: "KExpression") -> "KExpression":
        return KExpression(self.terms + other.terms, self.notes + other.notes)

    def scale(self, c: Cardinal) -> "KExpression":
        return KExpression([(t, m * c) for t, m in self.terms], self.notes)

    def shift_degree(self, delta: int) -> "KExpression":
        out = []
        for t, m in self.terms:
            if t.degree is not None:
                t = KTerm(t.kind, t.degree + delta, t.ring, t.group_order, t.group_id,
                          t.label, t.level)
            out.append((t, m))
        return KExpression(out, self.notes)

    def multiplicity(self, term: KTerm) -> Cardinal:
        for t, m in self.terms:
            if t == term:
                return m
        return Cardinal.finite(0)

    def filter(self, kind: str) -> "KExpression":
        return KExpression([(t, m) for t, m in self.terms if t.kind == kind])

    def __repr__(self) -> str:
        if not self.terms:
            return "KExpression(0)"
        parts = []
        for t, m in self.terms:
            if m == Cardinal.finite(1):
                parts.append(t.describe())
            elif m.kind == "finite":
                parts.append(f"{t.describe()}^{m.count}")
            else:
                parts.append(f"{t.describe()}^({m.kind})")
        return "KExpression(" + " + ".join(parts) + ")"

    def to_json(self) -> list[dict]:
        return [{"term": t.to_json(), "multiplicity": m.to_json()}
                for t, m in self.terms]


class RingProps(NamedTuple):
    regular: bool = False            # all NK groups vanish
    nk_finite_exponent: bool = False  # NK blocks collapse (up to iso) to one copy each


_ZERO = Cardinal.finite(0)


class Census(Record):
    """Conjugacy-class counts feeding the decomposition theorems.

    ``finite``: (group order, count) for maximal finite subgroup classes.
    ``m1``/``m2`` are indexed by the hyperbolic component count j = 1..n-1.
    """

    __slots__ = ("n", "finite", "p", "h1", "h2", "hp1", "hp2", "m1", "m2")

    def __init__(self, n: int, finite: Sequence[tuple[int, Cardinal]] = (),
                 p: Cardinal = _ZERO, h1: Cardinal = _ZERO, h2: Cardinal = _ZERO,
                 hp1: Cardinal = _ZERO, hp2: Cardinal = _ZERO,
                 m1: Sequence[Cardinal] = (), m2: Sequence[Cardinal] = ()):
        require_ints(n=n)
        finite = tuple(finite)
        for order, _ in finite:
            require_ints(order=order)
            if order < 2:
                raise ValueError(f"finite subgroup order must be >= 2, got {order}")
        if n < 1:
            raise ValueError("degree must be >= 1")
        if n > MAX_CENSUS_DEGREE:
            raise ValueError(f"degree must be <= {MAX_CENSUS_DEGREE}, got {n}")
        values = (n, finite, p, h1, h2, hp1, hp2, _pad(m1, n - 1), _pad(m2, n - 1))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_json(data) -> "Census":
        """The census of a spec object: "n", the degree, and optionally
        "finite", a list of {"order": m, "count": cardinal}, the cardinals
        "p", "h1", "h2", "hp1" and "hp2", and the lists of cardinals "m1"
        and "m2"; a cardinal is {"finite": count}, a bare count,
        "infinite" or "unknown", and an absent one is 0.  ValueError naming
        the expected shape on any other input."""
        data = require_json(data, dict, 'an object {"n": degree, "finite": [...], "p": cardinal, '
                                        '..., "m1": [...], "m2": [...]}, only "n" required', ("n",))

        def card(key: str, value) -> Cardinal:
            try:
                return Cardinal.from_json(value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None

        def listed(key: str) -> list:
            return require_json(data.get(key, []), list, f"{key!r} as a list")

        finite = [require_json(e, dict, 'each "finite" entry as an object '
                                        '{"order": m, "count": cardinal}', ("order", "count"))
                  for e in listed("finite")]
        return Census(
            n=data["n"],
            finite=tuple((e["order"], card("count", e["count"])) for e in finite),
            m1=tuple(card("m1", c) for c in listed("m1")),
            m2=tuple(card("m2", c) for c in listed("m2")),
            **{k: card(k, data[k]) for k in ("p", "h1", "h2", "hp1", "hp2") if k in data},
        )


def _pad(cs: Sequence[Cardinal], want: int) -> tuple[Cardinal, ...]:
    cs = tuple(cs)
    if len(cs) > want:
        raise ValueError(f"expected at most {want} mixed slots, got {len(cs)}")
    return cs + (Cardinal.finite(0),) * (want - len(cs))


# -- Nil block generators ------------------------------------------------


def _nil_pairs(s: int, q: int, ring: str, copies: int) -> list[tuple[KTerm, Cardinal]]:
    """The (term, multiplicity) pairs of one binomial Nil block: NK_{q-i}(ring)
    with multiplicity copies*binom(s, i) for i = 0..s, none for s = -1."""
    return [(KTerm.nk(q - i, ring), Cardinal.finite(copies * math.comb(s, i)))
            for i in range(s + 1)]


def dos_nil(s: int, q: int, ring: str = BASE) -> KExpression:
    """Two-copy Nil block: sum over i of NK_{q-i}(ring) with multiplicity
    2*binom(s, i).  s = -1 yields the empty expression."""
    return KExpression(_nil_pairs(s, q, ring, 2))


def nil_single(s: int, q: int, ring: str = BASE) -> KExpression:
    """One-copy Nil block (Z/4 coinvariants of the flipped pairs):
    multiplicities binom(s, i)."""
    return KExpression(_nil_pairs(s, q, ring, 1))


def bhs_iterate(d: int, q: int) -> KExpression:
    """Symbolic K_q(R[Z^d]) by applying the Bass-Heller-Swan rewrite
    K_j(R'[Z]) = K_j(R') + K_{j-1}(R') + 2 NK_j(R') a total of d times.

    Only K-terms are rewritten; the NK terms of intermediate group rings
    are kept opaque (tagged with their level) since BHS says nothing about
    decomposing them further."""
    if d < 0:
        raise ValueError("d must be >= 0")
    expr = KExpression.single(KTerm.k(q))
    for step in range(d):
        out = []
        for t, m in expr.terms:
            if t.kind == "k":
                out.append((t, m))
                out.append((KTerm.k(t.degree - 1), m))
                out.append((KTerm.nk(t.degree, BASE, level=step),
                            m * Cardinal.finite(2)))
            else:
                out.append((t, m))
        expr = KExpression(out)
    return expr


# -- assembled decompositions -------------------------------------------


def _nil_blocks(census: Census, q: int, ring: str) -> list[tuple[KTerm, Cardinal]]:
    """The shared block pattern, one (NK_{q-i}, multiplicity) pair per i:
    a slot whose normalizer has rank r gets a Nil block with s = r - 1,
    two-copy for the type-1 slots, one-copy for the type-2 slots, and each
    NK_{q-i} sums its multiplicities over the blocks.  A block with a
    finite slot adds copies * count * binom(s, i); an infinite or unknown
    slot adds itself, since every binom(s, i) with i <= s is positive."""
    n = census.n
    table = [(n - 1, 2, census.p), (n - 1, 2, census.h1), (n - 1, 1, census.h2),
             (n - 2, 2, census.hp1), (n - 2, 1, census.hp2)]
    for j in range(1, n):
        table += [(j - 1, 2, census.m1[j - 1]), (j - 1, 1, census.m2[j - 1])]
    pairs = []
    for i in range(n):
        blocks = [(s, copies, mult) for s, copies, mult in table if s >= i]
        count = sum(copies * mult.count * math.comb(s, i)
                    for s, copies, mult in blocks if mult.kind == "finite")
        rest = [mult for _, _, mult in blocks if mult.kind != "finite"]
        pairs.append((KTerm.nk(q - i, ring), sum(rest, Cardinal.finite(count))))
    return pairs


def wh_decomposition_psl(census: Census, q: int,
                         props: RingProps = RingProps()) -> KExpression:
    """Whitehead group of PSL_2(O_k) in degree q: Wh_q of the finite
    maximal subgroups plus the Nil blocks of the infinite cyclic census."""
    wh = [(KTerm.wh(q, order, f"C{order}"), count) for order, count in census.finite]
    return simplify(KExpression(wh + _nil_blocks(census, q, BASE)), props)


OPAQUE_LABEL = "H_q^G(EbarG;K_R)"


def wh_decomposition_sl(census: Census, q: int,
                        props: RingProps = RingProps()) -> KExpression:
    """Whitehead group of SL_2(O_k) in degree q: an opaque equivariant
    homology leading term plus the same Nil block pattern with R[Z/2]
    coefficients.  The long exact sequence constraining the opaque term is
    attached as a note."""
    opaque = [(KTerm.opaque(OPAQUE_LABEL), Cardinal.finite(1))]
    expr = simplify(KExpression(opaque + _nil_blocks(census, q, BASE_C2)), props)
    sequence_note = {
        "long_exact_sequence": [
            "... -> (+)_{M in F} H_q^M(EM;K_R)",
            "-> H_q^G(EG;K_R) (+) (+)_{M in F} K_q(R(M))",
            f"-> {OPAQUE_LABEL} -> ...",
        ],
        "finite_census": [{"order": o, "count": c.to_json()} for o, c in census.finite],
    }
    return KExpression(expr.terms, expr.notes + (sequence_note,))


def simplify(e: KExpression, props: RingProps) -> KExpression:
    """Apply coefficient-ring knowledge: a regular ring kills every NK
    term; finite-exponent Nil groups collapse each NK block to a single
    copy up to isomorphism (annotated, since for infinite direct sums the
    multiplicities become moot)."""
    if props.regular:
        return KExpression([(t, m) for t, m in e.terms if t.kind != "nk"], e.notes)
    if props.nk_finite_exponent:
        out = [(t, Cardinal.finite(1) if t.kind == "nk" else m) for t, m in e.terms]
        notes = e.notes + ({"nk_finite_exponent_collapse":
                            "NK multiplicities flattened to one copy each "
                            "(finite-exponent Nil groups, up to isomorphism)"},)
        return KExpression(out, notes)
    return e
