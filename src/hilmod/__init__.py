"""Exact computation with Hilbert modular groups over totally real
number fields: element classification, normalizer structure, symbolic
Whitehead-group decompositions, and topological K-theory ranks."""

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
from .ktheory import (
    Cardinal,
    Census,
    KExpression,
    KTerm,
    RingProps,
    bhs_iterate,
    dos_nil,
    nil_single,
    simplify,
    wh_decomposition_psl,
    wh_decomposition_sl,
)
from .topk import (
    BettiProfile,
    FiniteCensus,
    betti_rank,
    k_homology_rank,
    ktop_rank,
)

__version__ = "0.1.0"
