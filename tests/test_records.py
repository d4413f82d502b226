"""The library's value records: immutable, equal by value, validated, and
built without the ``dataclasses`` machinery."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilmod.classify import ClassKind, ElementClass, EmbeddingType
from hilmod.exactnum import Poly, RootInterval, ScaledInterval
from hilmod.ktheory import MAX_CENSUS_DEGREE, Cardinal, Census, KTerm, RingProps
from hilmod.modgrp import BoundaryPoint, FixedPointData, Mat2, psl_normalize
from hilmod.normalizer import CensusSlot, NormalizerType, SlNormalizerType
from hilmod.numfield import NumberField, SearchOutcome
from hilmod.topk import BettiProfile, FiniteCensus

SRC = Path(__file__).resolve().parents[1] / "src"

K = NumberField.quadratic(2)


def _x():
    return K.element([1, 3])


def _mat():
    one, zero = K.one(), K.zero()
    return Mat2(one, K.element([0, 1]), zero, one)


# one factory per record type; two calls give equal, distinct instances
RECORDS = {
    "Poly": lambda: Poly([-2, 0, 1]),
    "RootInterval": lambda: RootInterval(Poly([-2, 0, 1]), ScaledInterval(1, 2, 1), 1),
    "FieldElement": _x,
    "SearchOutcome": lambda: SearchOutcome(_x()),
    "Mat2": _mat,
    "PslElem": lambda: psl_normalize(_mat()),
    "BoundaryPoint": lambda: BoundaryPoint("enclosed", enclosure=(Fraction(1), Fraction(2))),
    "FixedPointData": lambda: FixedPointData((_x(), _x(), _x()), ((BoundaryPoint("infinity"),),)),
    "ElementClass": lambda: ElementClass(ClassKind.TOTALLY_PARABOLIC,
                                         (EmbeddingType.PARABOLIC,) * 2, disc_square=True),
    "NormalizerType": lambda: NormalizerType("free_abelian", 2),
    "SlNormalizerType": lambda: SlNormalizerType("direct_sum_z2", 2),
    "CensusSlot": lambda: CensusSlot("M1", j=1),
    "Cardinal": lambda: Cardinal.finite(3),
    "KTerm": lambda: KTerm.nk(2, level=1),
    "RingProps": lambda: RingProps(regular=True),
    "Census": lambda: Census(3, finite=[(2, Cardinal.finite(1))], m1=[Cardinal.infinite()]),
    "BettiProfile": lambda: BettiProfile(2, 1, [[1, 1, 3]]),
    "FiniteCensus": lambda: FiniteCensus([[2, 5], [3, 1]]),
}


def test_cli_import_loads_no_dataclass_machinery():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, hilmod.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
    for path in sorted((SRC / "hilmod").glob("*.py")):
        assert not re.search(r"^\s*(import|from)\s+dataclasses\b", path.read_text(), re.M), path


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_and_equal_by_value(name):
    make = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    field = type(a)._fields[0] if hasattr(type(a), "_fields") else type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        setattr(a, "extra", None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_normalizer_type_equality_ignores_witness():
    w = psl_normalize(_mat())
    with_witness = NormalizerType("semidirect_z2", 1, witness=w)
    assert with_witness == NormalizerType("semidirect_z2", 1)
    assert hash(with_witness) == hash(NormalizerType("semidirect_z2", 1))
    assert with_witness.witness is w
    assert with_witness != NormalizerType("semidirect_z2", 2)


def test_record_validation_still_raises():
    other = NumberField.quadratic(5)
    with pytest.raises(ValueError, match="different fields"):
        Mat2(K.one(), other.zero(), K.zero(), K.one())
    with pytest.raises(ValueError, match="degree must be <="):
        Census(MAX_CENSUS_DEGREE + 1)
    with pytest.raises(ValueError, match="negative multiplicity"):
        Cardinal.finite(-1)


def test_foreign_operands_raise_type_error():
    """An operand of a foreign type gives NotImplemented, so Python raises
    TypeError, not AttributeError from reading the operand's fields."""
    x, m = _x(), _mat()
    for op in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x,
               lambda: x * "2", lambda: x / 2, lambda: 2 / x, lambda: x + m,
               lambda: m * 2, lambda: m * x, lambda: x * m,
               lambda: psl_normalize(m) * 2, lambda: psl_normalize(m) * m):
        with pytest.raises(TypeError):
            op()
    assert x * 2 == 2 * x == x * Fraction(2) == x + x  # scalars still multiply


def test_records_are_not_tuples_under_arithmetic():
    x = _x()
    assert 2 * x == x + x == x * 2  # a scalar multiple, not tuple repetition
    with pytest.raises(TypeError):
        2 * _mat()
