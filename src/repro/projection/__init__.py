"""Feasibility projection ``P_C``: density grid, look-ahead legalization,
macro shredding and region constraints."""

from .grid import BinRegion, DensityGrid, default_grid_shape
from .lal import ProjectionStats, find_expansion_regions, project_rectangles
from .projector import FeasibilityProjection, ProjectionResult
from .regions import region_violation_distance, snap_to_regions
from .shredding import (
    ShreddedView,
    build_shredded_view,
    interpolate_macro_positions,
    shred_coherence,
    shred_counts,
)
from .spreading import spread_with_spacing

__all__ = [
    "BinRegion",
    "DensityGrid",
    "FeasibilityProjection",
    "ProjectionResult",
    "ProjectionStats",
    "ShreddedView",
    "build_shredded_view",
    "default_grid_shape",
    "find_expansion_regions",
    "interpolate_macro_positions",
    "project_rectangles",
    "region_violation_distance",
    "shred_coherence",
    "shred_counts",
    "snap_to_regions",
    "spread_with_spacing",
]
