"""Exact counting and distributions for integer compositions in a rectangle.

A rectangle of size l x m holds the compositions with at most m parts,
each part between 0 and l (more generally between a and b).  The package
computes the underlying (l+1)-nomial triangles exactly, counts restricted
compositions, derives the exact pmf of the integer a uniform random
composition represents, and quantifies how fast that pmf approaches the
matching normal law.
"""
from .compositions import (
    DEFAULT_ENUM_GUARD,
    Composition,
    EnumerationGuardError,
    PartBounds,
    UNBOUNDED,
    count,
    count_support,
    enumerate_compositions,
    h_sequence,
)
from .distributions import (
    DistanceReport,
    ErrorReport,
    ExactPmf,
    NormalRef,
    RectSpec,
    error_decomposition,
    iter_sample,
    normal_distance,
    pmf_S,
    pmf_X,
    pmf_pair,
    sample,
    stirling_h_estimate,
    stirling_h_ratio,
)
from .polycoeff import (
    TriangleRow,
    central_asymptotic,
    central_asymptotic_log,
    central_asymptotic_ratio,
    central_coeff,
    iter_raw_rows,
    poly_coeff,
    triangle_row,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "DEFAULT_ENUM_GUARD",
    "DistanceReport",
    "EnumerationGuardError",
    "ErrorReport",
    "ExactPmf",
    "NormalRef",
    "PartBounds",
    "RectSpec",
    "SplitMix64",
    "TriangleRow",
    "UNBOUNDED",
    "central_asymptotic",
    "central_asymptotic_log",
    "central_asymptotic_ratio",
    "central_coeff",
    "count",
    "count_support",
    "enumerate_compositions",
    "error_decomposition",
    "h_sequence",
    "iter_raw_rows",
    "iter_sample",
    "normal_distance",
    "pmf_S",
    "pmf_X",
    "pmf_pair",
    "poly_coeff",
    "sample",
    "stirling_h_estimate",
    "stirling_h_ratio",
    "triangle_row",
]
