"""Exact invariants of smoothed three-component normal crossing Calabi-Yau threefolds.

The package models normal crossing unions Y = Y1 u Y2 u Y3 of threefolds by
their numerical shadows, decides d-semistability through the triple point
formula, applies the sequential blow-up construction that trivializes the
collective normal class, and computes the topological invariants
(e, h11, h12, and Picard-rank-one pairings) of the smoothed Calabi-Yau
threefold, entirely in exact arithmetic.

``import nc3`` loads no submodule.  A public name is looked up in its
submodule on first use, which loads that submodule and the ones it imports.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "exactlat": (
        "IntersectionLattice", "RationalMatrix", "adjunction_euler", "kernel_dimension", "pair",
    ),
    "ncconfig": (
        "ComponentGeometry", "Diagnostic", "NCConfiguration", "SurfaceGeometry",
        "TripleCurve", "component_restriction_classes", "restriction_difference_matrix",
        "validate",
    ),
    "degeneration": (
        "NormalClassTriple", "collective_normal_class", "is_d_semistable", "triple_sum_check",
    ),
    "construction": (
        "AmpleMarginProblem", "BlowupTrace", "CollectiveDivisor", "ample_margin",
        "check_collective_divisor", "extend_restriction_matrix", "sequential_blowup",
        "transport_chern",
    ),
    "invariants": (
        "SmoothingInvariants", "euler_closed", "euler_smoothing", "h11_closed",
        "h11_kernel", "hodge", "picard_one_pairings", "smoothing_invariants",
    ),
    "catalog": (
        "Family", "PartitionSpec", "enumerate_partitions", "expected_table", "family_ids",
        "get_family", "instantiate",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
