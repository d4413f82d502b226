"""The library's value records: immutable, equal by value, validated, and
built without the ``dataclasses`` machinery; and what importing the
package and the CLI loads."""

import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hilmod
from hilmod import numfield
from hilmod.classify import ClassKind, ElementClass, EmbeddingType
from hilmod.exactnum import Poly, Record, RootInterval, ScaledInterval
from hilmod.ktheory import MAX_CENSUS_DEGREE, Cardinal, Census, KExpression, KTerm, RingProps
from hilmod.modgrp import BoundaryPoint, FixedPointData, Mat2, PslElem, psl_normalize
from hilmod.normalizer import CensusSlot, NormalizerType, SlNormalizerType
from hilmod.numfield import FieldElement, NumberField, SearchOutcome
from hilmod.topk import BettiProfile, FiniteCensus

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DATA = TESTS / "data"

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
    "KExpression": lambda: KExpression([(KTerm.nk(2), Cardinal.infinite())],
                                       ({"collapse": "one copy"},)),
    "RingProps": lambda: RingProps(regular=True),
    "Census": lambda: Census(3, finite=[(2, Cardinal.finite(1))], m1=[Cardinal.infinite()]),
    "BettiProfile": lambda: BettiProfile(2, 1, [[1, 1, 3]]),
    "FiniteCensus": lambda: FiniteCensus([[2, 5], [3, 1]]),
}


def _child(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True).stdout


def test_cli_import_loads_no_dataclass_machinery():
    out = _child("import sys, hilmod.cli; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out.strip() == "[]"
    for path in sorted((SRC / "hilmod").glob("*.py")):
        assert not re.search(r"^\s*(import|from)\s+dataclasses\b", path.read_text(), re.M), path


# runs each argv through hilmod.cli.main in one interpreter; prints the
# census modules loaded after the import and after each query
_SUBCOMMAND_LOADS = """
import contextlib, io, json, sys
import hilmod.cli

def loaded():
    return sorted({"hilmod.ktheory", "hilmod.topk"} & set(sys.modules))

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hilmod.cli.main(argv)
    return [code, out.getvalue(), loaded()]

print(json.dumps([loaded()] + [run(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_element_subcommands_do_not_load_the_census_layer():
    sqrt2 = str(DATA / "sqrt2.json")
    queries = [
        ["field-info", "--field", sqrt2],
        ["classify", "--field", sqrt2, "--matrix=1+1g;1+1g;2;1+1g"],
        ["normalizer", "--field", sqrt2, "--matrix=1+1g;0;0;-1+1g", "--height", "2"],
        ["torsion-search", "--field", sqrt2, "--max-order", "12"],
        ["wh-decomp", "--census", str(DATA / "census_p.json"), "--q", "1"],
        ["ktop", "--field", sqrt2, "--class-number", "1",
         "--finite-census", str(DATA / "fc.json"), "--degree", "0"],
    ]
    at_import, *runs = json.loads(_child(_SUBCOMMAND_LOADS, json.dumps(queries)))
    assert at_import == []
    for argv, (code, _, loaded) in zip(queries[:4], runs):
        assert (code, loaded) == (0, []), argv[0]
    (wh_code, wh_out, wh_loaded), (ktop_code, ktop_out, ktop_loaded) = runs[4:]
    assert (wh_code, wh_loaded) == (0, ["hilmod.ktheory"])
    assert wh_out == (TESTS / "golden" / "whdecomp_p.json").read_text()
    assert (ktop_code, ktop_loaded) == (0, ["hilmod.ktheory", "hilmod.topk"])
    assert ktop_out == (TESTS / "golden" / "ktop_even.json").read_text()


# every name ``hilmod`` exports, by the submodule that defines it; a
# submodule's own name stands for the submodule, except ``classify``, which
# the submodule defines as a function.  ``topk`` comes before its
# names and ``Cardinal`` before ``ktheory``, so that in a fresh interpreter
# both a census submodule and a census name are first resolved cold.
EXPORTS = {
    "exactnum": ("exactnum", "NotSquarefree", "Poly", "RootInterval",
                 "isolate_real_roots", "refine_root"),
    "numfield": ("numfield", "DivisionByZero", "FieldElement", "NotMonic",
                 "NotTotallyReal", "NumberField", "ReducibleDetected", "SearchOutcome",
                 "contains_root_of", "has_square_root"),
    "modgrp": ("modgrp", "FixedPointData", "Mat2", "NotUnimodular", "PslElem", "check_sl",
               "cos_trace_min_poly", "fixed_points", "psl_normalize", "torsion_orders"),
    "classify": ("ClassKind", "ElementClass", "EmbeddingType", "classify",
                 "classification_json"),
    "normalizer": ("normalizer", "CensusSlot", "NormalizerType", "SlNormalizerType",
                   "census_slot", "involution_search", "lift_to_sl", "normalizer_json",
                   "normalizer_rank", "normalizer_type_psl"),
    "topk": ("topk", "BettiProfile", "FiniteCensus", "betti_rank", "k_homology_rank",
             "ktop_rank"),
    "ktheory": ("Cardinal", "Census", "KExpression", "KTerm", "RingProps", "bhs_iterate",
                "dos_nil", "nil_single", "simplify", "wh_decomposition_psl",
                "wh_decomposition_sl", "ktheory"),
}

# in a fresh interpreter: the census modules loaded by ``import hilmod``,
# then every export that is not the object of its submodule
_EXPORT_CHECK = """
import json, sys
import hilmod

def defined(mod, name):
    module = sys.modules["hilmod." + mod]
    return getattr(module, name, module)

loaded = sorted({"hilmod.ktheory", "hilmod.topk"} & set(sys.modules))
wrong = [f"{mod}.{name}" for mod, names in json.loads(sys.argv[1]).items()
         for name in names if getattr(hilmod, name) is not defined(mod, name)]
print(json.dumps([loaded, wrong]))
"""


def test_package_exports_are_unchanged():
    loaded, wrong = json.loads(_child(_EXPORT_CHECK, json.dumps(EXPORTS)))
    assert loaded == []
    assert wrong == []
    names = {name for names in EXPORTS.values() for name in names}
    assert names <= set(dir(hilmod))
    assert set(hilmod.__all__) == names
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hilmod.no_such_name


# fields that equality and hashing leave out, by record type
UNCOMPARED = {"NormalizerType": {"witness"}, "KExpression": {"notes"}}


def _fields(record) -> tuple[str, ...]:
    cls = type(record)
    return cls._fields if hasattr(cls, "_fields") else cls.__slots__


def _with_field(record, field: str, value):
    """A copy of ``record`` with one field replaced, without validation."""
    if hasattr(type(record), "_fields"):
        return record._replace(**{field: value})
    copy = object.__new__(type(record))
    for f in _fields(record):
        object.__setattr__(copy, f, value if f == field else getattr(record, f))
    return copy


def _record_classes() -> set[type]:
    """Every ``Record`` class of the library (tests may subclass some)."""
    todo, seen = [Record], set()
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("hilmod."):
                seen.add(cls)
    return seen


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_and_equal_by_value(name):
    make = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for f in _fields(a):
        changed = _with_field(a, f, object())
        if f in UNCOMPARED.get(name, ()):
            assert a == changed and hash(a) == hash(changed)
        else:
            assert a != changed and not a == changed and changed != a, f
    if isinstance(a, Record):
        assert hash(a) == hash(a._key())
    if name == "PslElem":
        assert a != a.rep and a.rep != a
    field = _fields(a)[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        setattr(a, "extra", None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_records_compare_by_key_unless_hot():
    """Every ``Record`` class hashes by its key; only the one with
    measured equality traffic spells out ``__eq__`` (see ``exactnum``)."""
    classes = _record_classes()
    assert {cls.__name__ for cls in classes} <= set(RECORDS)
    assert {cls.__name__ for cls in classes if "__eq__" in vars(cls)} == {"FieldElement"}
    assert all(cls.__hash__ is Record.__hash__ for cls in classes)


def test_records_define_only_called_operations():
    """A PSL class product or inverse is ``psl_normalize`` of the ``Mat2``
    product or inverse of the representatives, a power of an element is
    the literal parser's bounded g^e, and a fixed-point count is
    ``len(per_embedding[i])``; none of them is a method.  Power-basis
    Fractions and an expression's emptiness are test helpers in refpoly.
    The library reads only the CLI's JSON inputs and writes only its
    reports, so no other JSON direction is defined."""
    unused = {PslElem: {"__mul__", "inv"}, FieldElement: {"__pow__", "power_coords"},
              Mat2: {"height", "from_json"}, FixedPointData: {"boundary_count"},
              KExpression: {"is_empty", "from_json"}, NumberField: {"to_json"},
              KTerm: {"from_json"}, Census: {"to_json"}, FiniteCensus: {"to_json"},
              BettiProfile: {"to_json", "from_json"}}
    for cls, names in unused.items():
        assert not names & set(dir(cls)), cls.__name__
    assert not hasattr(numfield, "element_from_json")


def test_modules_import_no_private_names_from_each_other():
    """What one ``hilmod`` module takes from another is public: a shared
    helper is a method of the type it works on (``ScaledInterval.sqrt``)."""
    for path in sorted((SRC / "hilmod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)


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
