"""Exact computation with Hilbert modular groups over totally real
number fields: element classification, normalizer structure, symbolic
Whitehead-group decompositions, and topological K-theory ranks.

The package has two layers, and the rule is: ``hilmod.cli`` loads the
element layer (``exactnum``, ``numfield``, ``modgrp``, ``classify``,
``normalizer``) eagerly at start, and the census layer (``ktheory``,
``topk``) loads on first use.  The element layer is imported with the
package.  The census layer's re-exported names (``_CENSUS``) and its two
submodules are resolved by ``__getattr__`` on first access, and the CLI
imports it only inside ``wh-decomp`` and ``ktop``.
"""

from .exactnum import (
    NotSquarefree,
    Poly,
    RootInterval,
    isolate_real_roots,
    refine_root,
)
from .numfield import (
    DivisionByZero,
    FieldElement,
    NotMonic,
    NotTotallyReal,
    NumberField,
    ReducibleDetected,
    SearchOutcome,
    contains_root_of,
    has_square_root,
)
from .modgrp import (
    FixedPointData,
    Mat2,
    NotUnimodular,
    PslElem,
    check_sl,
    cos_trace_min_poly,
    fixed_points,
    psl_normalize,
    torsion_orders,
)
from .classify import (
    ClassKind,
    ElementClass,
    EmbeddingType,
    classify,
    classification_json,
)
from .normalizer import (
    CensusSlot,
    NormalizerType,
    SlNormalizerType,
    census_slot,
    involution_search,
    lift_to_sl,
    normalizer_json,
    normalizer_rank,
    normalizer_type_psl,
)

# census layer: name -> the submodule that defines it, or the submodule itself
_CENSUS = {
    "ktheory": "ktheory",
    "Cardinal": "ktheory",
    "Census": "ktheory",
    "KExpression": "ktheory",
    "KTerm": "ktheory",
    "RingProps": "ktheory",
    "bhs_iterate": "ktheory",
    "dos_nil": "ktheory",
    "nil_single": "ktheory",
    "simplify": "ktheory",
    "wh_decomposition_psl": "ktheory",
    "wh_decomposition_sl": "ktheory",
    "topk": "topk",
    "BettiProfile": "topk",
    "FiniteCensus": "topk",
    "betti_rank": "topk",
    "k_homology_rank": "topk",
    "ktop_rank": "topk",
}


def __getattr__(name: str):
    module = _CENSUS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    mod = import_module(f"{__name__}.{module}")
    value = mod if name == module else getattr(mod, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_CENSUS))


# what ``from hilmod import *`` binds: every public name, the census layer's too
__all__ = sorted(name for name in {*globals(), *_CENSUS} if not name.startswith("_"))

__version__ = "0.1.0"
