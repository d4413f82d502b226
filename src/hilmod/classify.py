"""Element taxonomy for PSL_2(O_k): per-embedding type, global class,
hyperbolic-parabolic detection, and orders of torsion elements."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .modgrp import PslElem
from .numfield import FieldElement, has_square_root


class InconsistentClassification(RuntimeError):
    """A mixed element with a parabolic component, which is asserted to be
    impossible; raised instead of silently reclassifying."""


class NotElliptic(ValueError):
    pass


class NotHyperbolic(ValueError):
    pass


class EmbeddingType(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class ClassKind(Enum):
    IDENTITY = "identity"
    TOTALLY_ELLIPTIC = "totally_elliptic"
    TOTALLY_PARABOLIC = "totally_parabolic"
    TOTALLY_HYPERBOLIC = "totally_hyperbolic"
    MIXED = "mixed"


@dataclass(frozen=True)
class ElementClass:
    """The classification facts of one element, computed once by
    ``classify`` and passed along."""

    kind: ClassKind
    order: Optional[int] = None                 # totally elliptic only
    hyperbolic_parabolic: Optional[bool] = None  # totally hyperbolic only
    hyperbolic_components: Optional[int] = None  # mixed only
    per_embedding: tuple[EmbeddingType, ...] = ()  # empty for the identity
    disc_square: Optional[bool] = None  # Tr^2 - 4 a square in k; None for the identity

    @property
    def is_infinite_order(self) -> bool:
        return self.kind in (ClassKind.TOTALLY_PARABOLIC,
                             ClassKind.TOTALLY_HYPERBOLIC, ClassKind.MIXED)


def _disc(a: PslElem) -> FieldElement:
    t = a.trace()
    return t * t - a.field.one() * 4


def _type_of_sign(s: int) -> EmbeddingType:
    if s < 0:
        return EmbeddingType.ELLIPTIC
    if s == 0:
        return EmbeddingType.PARABOLIC
    return EmbeddingType.HYPERBOLIC


def embedding_type(a: PslElem, i: int) -> EmbeddingType:
    """Type of the i-th embedded component, from the sign of Tr^2 - 4."""
    return _type_of_sign(_disc(a).embed_sign(i))


def per_embedding_types(a: PslElem) -> tuple[EmbeddingType, ...]:
    d = _disc(a)
    return tuple(_type_of_sign(d.embed_sign(i)) for i in range(a.field.degree))


def _disc_is_square(a: PslElem) -> bool:
    return has_square_root(_disc(a)).value is not None


def is_hp(a: PslElem) -> bool:
    """Whether a totally hyperbolic element is hyperbolic-parabolic.

    Criterion: the boundary fixed points are cusps (points of P^1(k))
    exactly when the fixed-point quadratic splits over k, i.e. when the
    discriminant Tr^2 - 4 is a square in k.
    """
    types = per_embedding_types(a)
    if any(t is not EmbeddingType.HYPERBOLIC for t in types):
        raise NotHyperbolic("hyperbolic-parabolic test needs a totally hyperbolic element")
    return _disc_is_square(a)


def classify(a: PslElem) -> ElementClass:
    """Class of a, with its per-embedding types and whether Tr^2 - 4 is a
    square in k.  Only a totally hyperbolic element needs the square test:
    an elliptic embedding makes Tr^2 - 4 negative there, so no square, and
    a parabolic one makes it exactly zero."""
    if a.is_identity():
        return ElementClass(ClassKind.IDENTITY)
    types = per_embedding_types(a)
    n_ell = sum(t is EmbeddingType.ELLIPTIC for t in types)
    n_par = sum(t is EmbeddingType.PARABOLIC for t in types)
    n_hyp = sum(t is EmbeddingType.HYPERBOLIC for t in types)
    n = len(types)
    if n_par == n:
        return ElementClass(ClassKind.TOTALLY_PARABOLIC,
                            per_embedding=types, disc_square=True)
    if n_ell == n:
        return ElementClass(ClassKind.TOTALLY_ELLIPTIC, order=_order_search(a),
                            per_embedding=types, disc_square=False)
    if n_hyp == n:
        square = _disc_is_square(a)
        return ElementClass(ClassKind.TOTALLY_HYPERBOLIC, hyperbolic_parabolic=square,
                            per_embedding=types, disc_square=square)
    if n_par > 0:
        raise InconsistentClassification(
            f"mixed element with a parabolic component: {types}")
    return ElementClass(ClassKind.MIXED, hyperbolic_components=n_hyp,
                        per_embedding=types, disc_square=False)


def _euler_phi(m: int) -> int:
    out, k = m, 2
    mm = m
    while k * k <= mm:
        if mm % k == 0:
            while mm % k == 0:
                mm //= k
            out -= out // k
        k += 1
    if mm > 1:
        out -= out // mm
    return out


def default_order_bound(n: int) -> int:
    """Largest m with phi(m) <= 2n; beyond it no trace 2cos(2*pi/m) can
    live in a degree-n field (SL order is at most twice the PSL order)."""
    best, m = 1, 1
    # phi(m) >= sqrt(m/2), so m <= 2*(2n)^2 suffices
    while m <= 2 * (2 * n) ** 2 + 2:
        if _euler_phi(m) <= 2 * n:
            best = m
        m += 1
    return best


def _order_search(a: PslElem, bound: Optional[int] = None) -> Optional[int]:
    if bound is None:
        bound = default_order_bound(a.field.degree)
    acc = a
    for e in range(1, bound + 1):
        if acc.is_identity():
            return e
        acc = acc * a
    return None


def elliptic_order(a: PslElem, bound: Optional[int] = None) -> Optional[int]:
    """Smallest m >= 1 with a^m = identity in PSL.  Returns None (order
    search exhausted) only if the element was misclassified."""
    if not a.is_identity():
        types = per_embedding_types(a)
        if any(t is not EmbeddingType.ELLIPTIC for t in types):
            raise NotElliptic("order search needs a totally elliptic element")
    return _order_search(a, bound)


def classification_json(a: PslElem) -> dict:
    """Machine-readable classification record."""
    cls = classify(a)
    out: dict = {"class": cls.kind.value}
    if cls.kind is not ClassKind.IDENTITY:
        out["per_embedding"] = [t.value for t in cls.per_embedding]
        out["trace"] = a.trace().to_json()
        out["disc_square_in_k"] = cls.disc_square
        if cls.kind is ClassKind.TOTALLY_HYPERBOLIC:
            out["hyperbolic_parabolic"] = cls.hyperbolic_parabolic
        if cls.kind is ClassKind.MIXED:
            out["hyperbolic_components"] = cls.hyperbolic_components
        if cls.kind is ClassKind.TOTALLY_ELLIPTIC:
            out["order"] = cls.order
    return out
