"""Exact invariants of smoothed three-component normal crossing Calabi-Yau threefolds.

The package models normal crossing unions Y = Y1 u Y2 u Y3 of threefolds by
their numerical shadows, decides d-semistability through the triple point
formula, applies the sequential blow-up construction that trivializes the
collective normal class, and computes the topological invariants
(e, h11, h12, and Picard-rank-one pairings) of the smoothed Calabi-Yau
threefold, entirely in exact arithmetic.
"""

from .exactlat import (
    IntersectionLattice,
    RationalMatrix,
    adjunction_euler,
    kernel_dimension,
    pair,
)
from .ncconfig import (
    ComponentGeometry,
    Diagnostic,
    DualComplexInfo,
    NCConfiguration,
    SurfaceGeometry,
    TripleCurve,
    component_restriction_classes,
    dual_complex,
    restriction_difference_matrix,
    validate,
)
from .degeneration import (
    NormalClassTriple,
    collective_normal_class,
    is_d_semistable,
    triple_sum_check,
)
from .construction import (
    AmpleMarginProblem,
    BlowupTrace,
    CollectiveDivisor,
    ample_margin,
    check_collective_divisor,
    extend_restriction_matrix,
    sequential_blowup,
    transport_chern,
)
from .invariants import (
    SmoothingInvariants,
    cubic_form_value,
    euler_closed,
    euler_smoothing,
    h11_closed,
    h11_kernel,
    hodge,
    picard_one_pairings,
    smoothing_invariants,
)
from .catalog import (
    ExpandedConfiguration,
    Family,
    PartitionSpec,
    base_change_expand,
    enumerate_partitions,
    expected_table,
    family_ids,
    get_family,
    instantiate,
)

__version__ = "0.1.0"

__all__ = [
    "IntersectionLattice",
    "RationalMatrix",
    "adjunction_euler",
    "kernel_dimension",
    "pair",
    "ComponentGeometry",
    "Diagnostic",
    "DualComplexInfo",
    "NCConfiguration",
    "SurfaceGeometry",
    "TripleCurve",
    "component_restriction_classes",
    "dual_complex",
    "restriction_difference_matrix",
    "validate",
    "NormalClassTriple",
    "collective_normal_class",
    "is_d_semistable",
    "triple_sum_check",
    "AmpleMarginProblem",
    "BlowupTrace",
    "CollectiveDivisor",
    "ample_margin",
    "check_collective_divisor",
    "extend_restriction_matrix",
    "sequential_blowup",
    "transport_chern",
    "SmoothingInvariants",
    "cubic_form_value",
    "euler_closed",
    "euler_smoothing",
    "h11_closed",
    "h11_kernel",
    "hodge",
    "picard_one_pairings",
    "smoothing_invariants",
    "ExpandedConfiguration",
    "Family",
    "PartitionSpec",
    "base_change_expand",
    "enumerate_partitions",
    "expected_table",
    "family_ids",
    "get_family",
    "instantiate",
]
