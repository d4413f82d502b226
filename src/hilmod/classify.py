"""Element taxonomy for PSL_2(O_k).

``classify`` computes an element's classification facts once and returns
them as an ``ElementClass``: the global class, the type of each real
embedding (from the sign of Tr^2 - 4 there), whether Tr^2 - 4 is a square
in k, and the order.  That record is the one representation of the facts;
the normalizer and the census slots read it rather than recompute them."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .modgrp import PslElem, default_order_bound, element_order
from .numfield import FieldElement, has_square_root


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
    per_embedding: tuple[EmbeddingType, ...] = ()  # empty for the identity
    disc_square: Optional[bool] = None  # Tr^2 - 4 a square in k; None for the identity
    order: Optional[int] = None  # in PSL_2: the identity and totally elliptic only

    @property
    def is_infinite_order(self) -> bool:
        return self.kind in (ClassKind.TOTALLY_PARABOLIC,
                             ClassKind.TOTALLY_HYPERBOLIC, ClassKind.MIXED)

    @property
    def hyperbolic_parabolic(self) -> Optional[bool]:
        """Totally hyperbolic only: the boundary fixed points are cusps
        (points of P^1(k)) exactly when the fixed-point quadratic splits
        over k, i.e. when Tr^2 - 4 is a square in k."""
        return self.disc_square if self.kind is ClassKind.TOTALLY_HYPERBOLIC else None

    @property
    def hyperbolic_components(self) -> Optional[int]:
        """Mixed only: the number of hyperbolic embeddings."""
        if self.kind is not ClassKind.MIXED:
            return None
        return self.per_embedding.count(EmbeddingType.HYPERBOLIC)


def _disc(a: PslElem) -> FieldElement:
    t = a.trace()
    return t * t - a.field.one() * 4


def _type_of_sign(s: int) -> EmbeddingType:
    if s < 0:
        return EmbeddingType.ELLIPTIC
    if s == 0:
        return EmbeddingType.PARABOLIC
    return EmbeddingType.HYPERBOLIC


def per_embedding_types(a: PslElem) -> tuple[EmbeddingType, ...]:
    d = _disc(a)
    return tuple(_type_of_sign(d.embed_sign(i)) for i in range(a.field.degree))


def classify(a: PslElem) -> ElementClass:
    """Class of a, with its per-embedding types, whether Tr^2 - 4 is a
    square in k, and its order when finite.  Only a totally hyperbolic
    element needs the square test: an elliptic embedding makes Tr^2 - 4
    negative there, so no square, and a parabolic one makes it exactly
    zero."""
    if a.is_identity():
        return ElementClass(ClassKind.IDENTITY, order=1)
    types = per_embedding_types(a)
    if all(t is EmbeddingType.PARABOLIC for t in types):
        return ElementClass(ClassKind.TOTALLY_PARABOLIC, types, disc_square=True)
    if all(t is EmbeddingType.ELLIPTIC for t in types):
        return ElementClass(ClassKind.TOTALLY_ELLIPTIC, types, disc_square=False,
                            order=_psl_order(a))
    if all(t is EmbeddingType.HYPERBOLIC for t in types):
        square = has_square_root(_disc(a)).value is not None
        return ElementClass(ClassKind.TOTALLY_HYPERBOLIC, types, disc_square=square)
    # no parabolic embedding here: one means Tr^2 - 4 = 0 in k, so all are
    return ElementClass(ClassKind.MIXED, types, disc_square=False)


def _psl_order(a: PslElem) -> Optional[int]:
    """The order of a in PSL_2: the first e <= the phi bound with a^e = +-I.

    ``element_order`` returns e when a^e = I and 2e when a^e = -I.  An even
    answer is always 2e: a first hit a^e = I with e even cannot occur,
    since (a^(e/2))^2 = I forces a^(e/2) = +-I in SL_2 over a field."""
    order = element_order(a.rep, default_order_bound(a.field.degree))
    return order if order is None or order % 2 else order // 2


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
