import dataclasses
import random

import pytest

from hilmod.classify import (
    ClassKind,
    ElementClass,
    EmbeddingType,
    classification_json,
    classify,
    default_order_bound,
    per_embedding_types,
)
from hilmod.modgrp import Mat2, psl_normalize


def _psl(field, rows):
    e = field.element
    return psl_normalize(Mat2(*(e(r) for r in rows)))


@pytest.fixture
def mixed_example(sqrt2):
    # [[1+t, 1+t], [2, 1+t]]
    return _psl(sqrt2, [[1, 1], [1, 1], [2, 0], [1, 1]])


@pytest.fixture
def hp_example(sqrt2):
    # diag(1+t, (1+t)^-1) = diag(1+t, -1+t)
    return _psl(sqrt2, [[1, 1], [0, 0], [0, 0], [-1, 1]])


def test_embedding_types_mixed(mixed_example):
    assert per_embedding_types(mixed_example) == (
        EmbeddingType.ELLIPTIC, EmbeddingType.HYPERBOLIC)


def test_classify_mixed(mixed_example):
    cls = classify(mixed_example)
    assert cls.kind is ClassKind.MIXED
    assert cls.hyperbolic_components == 1
    assert cls.is_infinite_order


def test_classify_parabolic(sqrt2):
    a = _psl(sqrt2, [[1, 0], [1, 0], [0, 0], [1, 0]])
    assert classify(a).kind is ClassKind.TOTALLY_PARABOLIC
    assert per_embedding_types(a)[0] is EmbeddingType.PARABOLIC


def test_classify_hp(hp_example):
    cls = classify(hp_example)
    assert cls.kind is ClassKind.TOTALLY_HYPERBOLIC
    assert cls.hyperbolic_parabolic is True
    assert cls.disc_square is True


def test_classify_identity(sqrt2):
    a = psl_normalize(Mat2.identity(sqrt2))
    cls = classify(a)
    assert cls.kind is ClassKind.IDENTITY
    assert not cls.is_infinite_order
    assert cls.order == 1


def test_is_hp_false_fuchsian(rationals):
    # [[2,1],[1,1]]: disc 5 is not a rational square
    a = _psl(rationals, [[2], [1], [1], [1]])
    assert classify(a).hyperbolic_parabolic is False
    assert classify(a).disc_square is False


def test_elliptic_orders(rationals, sqrt2):
    s = _psl(rationals, [[0], [-1], [1], [0]])
    assert classify(s).order == 2
    r3 = _psl(rationals, [[0], [-1], [1], [1]])
    assert classify(r3).order == 3
    ident = psl_normalize(Mat2.identity(sqrt2))
    assert classify(ident).order == 1


def test_element_class_stores_four_facts(sqrt2, word_sampler):
    # the derived facts are read off the stored ones, never stored beside them
    assert [f.name for f in dataclasses.fields(ElementClass)] == \
        ["kind", "per_embedding", "disc_square", "order"]
    rng = random.Random(13)
    for m in word_sampler(sqrt2, rng, 40):
        a = psl_normalize(m)
        cls = classify(a)
        if cls.kind is ClassKind.IDENTITY:
            assert cls.per_embedding == () and cls.order == 1
            continue
        assert cls.per_embedding == per_embedding_types(a)
        hyp = cls.per_embedding.count(EmbeddingType.HYPERBOLIC)
        assert cls.hyperbolic_components == (hyp if cls.kind is ClassKind.MIXED else None)
        assert cls.hyperbolic_parabolic == (
            cls.disc_square if cls.kind is ClassKind.TOTALLY_HYPERBOLIC else None)
        assert (cls.order is not None) == (cls.kind is ClassKind.TOTALLY_ELLIPTIC)


def test_default_order_bound():
    assert default_order_bound(1) == 6   # phi(m) <= 2
    assert default_order_bound(2) == 12  # phi(m) <= 4


def test_classification_conjugation_invariant(sqrt2, word_sampler):
    rng = random.Random(12)
    words = word_sampler(sqrt2, rng, 40)
    for m, g in zip(words, reversed(words)):
        a = psl_normalize(m)
        conj = psl_normalize(g * m * g.inv())
        ca, cb = classify(a), classify(conj)
        assert ca.kind == cb.kind
        assert ca.hyperbolic_components == cb.hyperbolic_components
        assert ca.hyperbolic_parabolic == cb.hyperbolic_parabolic
        assert classify(a).kind == classify(psl_normalize(m.inv())).kind


def test_classification_json(mixed_example, hp_example):
    out = classification_json(mixed_example)
    assert out["class"] == "mixed"
    assert out["hyperbolic_components"] == 1
    assert out["per_embedding"] == ["elliptic", "hyperbolic"]
    assert out["disc_square_in_k"] is False
    out2 = classification_json(hp_example)
    assert out2["class"] == "totally_hyperbolic"
    assert out2["hyperbolic_parabolic"] is True
