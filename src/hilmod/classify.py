"""Element taxonomy for PSL_2(O_k): per-embedding type, global class,
hyperbolic-parabolic detection, and orders of torsion elements."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .modgrp import PslElem, default_order_bound, element_order
from .numfield import FieldElement, has_square_root


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
        return ElementClass(ClassKind.TOTALLY_ELLIPTIC, order=_psl_order(a),
                            per_embedding=types, disc_square=False)
    if n_hyp == n:
        square = _disc_is_square(a)
        return ElementClass(ClassKind.TOTALLY_HYPERBOLIC, hyperbolic_parabolic=square,
                            per_embedding=types, disc_square=square)
    # no parabolic embedding here: one means Tr^2 - 4 = 0 in k, so all are
    return ElementClass(ClassKind.MIXED, hyperbolic_components=n_hyp,
                        per_embedding=types, disc_square=False)


def _psl_order(a: PslElem, bound: Optional[int] = None) -> Optional[int]:
    """The order of a in PSL_2: the first e <= bound with a^e = +-I.

    ``element_order`` returns e when a^e = I and 2e when a^e = -I.  An even
    answer is always 2e: a first hit a^e = I with e even cannot occur,
    since (a^(e/2))^2 = I forces a^(e/2) = +-I in SL_2 over a field."""
    if bound is None:
        bound = default_order_bound(a.field.degree)
    order = element_order(a.rep, bound)
    return order if order is None or order % 2 else order // 2


def elliptic_order(a: PslElem, bound: Optional[int] = None) -> Optional[int]:
    """Smallest m >= 1 with a^m = identity in PSL.  Returns None (order
    search exhausted) only if the element was misclassified."""
    if not a.is_identity():
        types = per_embedding_types(a)
        if any(t is not EmbeddingType.ELLIPTIC for t in types):
            raise NotElliptic("order search needs a totally elliptic element")
    return _psl_order(a, bound)


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
