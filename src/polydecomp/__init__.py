"""Exact functional decomposition of univariate polynomials.

The package treats polynomials over the rationals as a monoid under
composition and answers structural questions about it: finding right
factors of a given degree, enumerating all decompositions into
indecomposables up to unit twists, classifying indecomposable factors,
Chebyshev-specific identities, and the restricted monoids of odd
polynomials and of polynomials critical at the origin.
"""

from .chebyshev import chebyshev, chebyshev_reduction_identities, extract_odd_base
from .classify import (
    RittInvariants,
    ShapeClass,
    classify_shape,
    critical_value_polynomial,
    invariants_of_factors,
    ritt_invariants,
)
from .cusp import (
    ADecompositions,
    CuspReport,
    IrrationalRootRequiredError,
    MaxBase,
    MaxSkeleton,
    MoveResult,
    PatternMismatchError,
    PostconditionError,
    admissible_shifts,
    apply_cusp_move,
    classify_CD,
    compose_in_A_criterion,
    cusp_report,
    enumerate_A_decompositions,
    in_A,
    index_at_zero,
    max_decompositions,
)
from .decompose import (
    CompositeTooLargeError,
    Decomposition,
    Ritt1Report,
    canonicalize,
    common_composite,
    complete_decomposition,
    enumerate_classes,
    is_indecomposable,
    right_factor,
    ritt1_check,
)
from .oddmonoid import (
    OddSwapResult,
    adjust_to_odd,
    classify_odd_swap,
    decompose_in_O,
    is_irreducible_in_O,
    is_odd,
)
from .parsing import ParseError, format_poly, parse
from .poly import Polynomial, Unit, compose_all

__all__ = [
    "ADecompositions",
    "CompositeTooLargeError",
    "CuspReport",
    "Decomposition",
    "IrrationalRootRequiredError",
    "MaxBase",
    "MaxSkeleton",
    "MoveResult",
    "OddSwapResult",
    "ParseError",
    "PatternMismatchError",
    "Polynomial",
    "PostconditionError",
    "Ritt1Report",
    "RittInvariants",
    "ShapeClass",
    "Unit",
    "adjust_to_odd",
    "admissible_shifts",
    "apply_cusp_move",
    "canonicalize",
    "chebyshev",
    "chebyshev_reduction_identities",
    "classify_CD",
    "classify_odd_swap",
    "classify_shape",
    "common_composite",
    "complete_decomposition",
    "compose_all",
    "compose_in_A_criterion",
    "critical_value_polynomial",
    "cusp_report",
    "decompose_in_O",
    "enumerate_A_decompositions",
    "enumerate_classes",
    "extract_odd_base",
    "format_poly",
    "in_A",
    "index_at_zero",
    "invariants_of_factors",
    "is_indecomposable",
    "is_irreducible_in_O",
    "is_odd",
    "max_decompositions",
    "parse",
    "right_factor",
    "ritt1_check",
    "ritt_invariants",
]

__version__ = "0.1.0"
