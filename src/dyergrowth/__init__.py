"""Exact growth series, sphere counts and Euler characteristics of Dyer groups."""

from importlib import resources as _resources
from pathlib import Path as _Path

from .coxclassify import (
    CoxeterDiagram,
    IrreducibleCoxeterType,
    classify_finite,
    longest_length,
    solomon_growth,
    to_diagram,
)
from .dyergraph import INFINITY, DyerGraph, GraphValidationError, StructureReport, VertexSubset
from .euler import EulerResult, euler_recursive, euler_via_growth
from .growth import (
    CrossCheckMismatch,
    GrowthEngine,
    GrowthResult,
    amalgam_growth,
    bx_series,
    cyclic_growth,
    graph_product_check,
    growth,
    pd_series,
    spherical_growth,
    sphere_sizes,
    spherical_subset_growth,
    subset_recursion_growth,
)
from .oracle import CensusReport, Unsupported, bfs_census, build_oracle, canonicalize
from .ratfun import NEG_INFINITY, PoleError, Polynomial, RationalFunction

__all__ = [
    "INFINITY",
    "NEG_INFINITY",
    "CensusReport",
    "CoxeterDiagram",
    "CrossCheckMismatch",
    "DyerGraph",
    "EulerResult",
    "GraphValidationError",
    "GrowthEngine",
    "GrowthResult",
    "IrreducibleCoxeterType",
    "PoleError",
    "Polynomial",
    "RationalFunction",
    "StructureReport",
    "Unsupported",
    "VertexSubset",
    "amalgam_growth",
    "bfs_census",
    "build_oracle",
    "bx_series",
    "canonicalize",
    "classify_finite",
    "cyclic_growth",
    "euler_recursive",
    "euler_via_growth",
    "graph_product_check",
    "growth",
    "longest_length",
    "pd_series",
    "solomon_growth",
    "spherical_growth",
    "sphere_sizes",
    "spherical_subset_growth",
    "subset_recursion_growth",
    "to_diagram",
]

__version__ = "0.1.0"


def corpus_files() -> list:
    """Paths of the bundled example graph files, sorted by name."""
    base = _Path(_resources.files(__name__) / "corpus")
    return sorted(base.glob("*.json"))


__all__.append("corpus_files")
