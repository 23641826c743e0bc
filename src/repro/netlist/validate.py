"""Semantic checks on netlists and placements beyond structural validation.

:func:`Netlist.validate_structure` (run at construction) guarantees the
arrays are mutually consistent; the checks here are about placement
*quality*: legality with respect to the core, overlap-freedom, and
connectivity sanity.  They are used by tests and by the legalizers to
certify their output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netlist import Netlist, Placement

__all__ = [
    "LegalityReport",
    "check_legal",
    "find_overlaps",
    "total_overlap_area",
]


@dataclass
class LegalityReport:
    """Outcome of :func:`check_legal`."""

    out_of_core: list[int] = field(default_factory=list)
    off_row: list[int] = field(default_factory=list)
    off_site: list[int] = field(default_factory=list)
    overlaps: list[tuple[int, int]] = field(default_factory=list)
    region_violations: list[int] = field(default_factory=list)

    @property
    def legal(self) -> bool:
        return not (
            self.out_of_core or self.off_row or self.off_site
            or self.overlaps or self.region_violations
        )

    def summary(self) -> str:
        return (
            f"out_of_core={len(self.out_of_core)} off_row={len(self.off_row)} "
            f"off_site={len(self.off_site)} overlaps={len(self.overlaps)} "
            f"region={len(self.region_violations)}"
        )


def check_legal(
    netlist: Netlist,
    placement: Placement,
    tol: float = 1e-6,
    check_sites: bool = False,
    max_reported: int = 100,
) -> LegalityReport:
    """Check row alignment, core containment and overlap-freedom.

    Only movable cells are checked (fixed objects are taken as given).
    Overlap detection is done with a sweep over row-sorted intervals, so it
    is near-linear for legal placements.
    """
    report = LegalityReport()
    core = netlist.core
    bounds = core.bounds
    row_h = core.row_height

    movable = np.flatnonzero(netlist.movable)
    x = placement.x
    y = placement.y
    half_w = 0.5 * netlist.widths
    half_h = 0.5 * netlist.heights

    for i in movable:
        if (
            x[i] - half_w[i] < bounds.xlo - tol
            or x[i] + half_w[i] > bounds.xhi + tol
            or y[i] - half_h[i] < bounds.ylo - tol
            or y[i] + half_h[i] > bounds.yhi + tol
        ):
            report.out_of_core.append(int(i))
            if len(report.out_of_core) >= max_reported:
                break

    # Row alignment: bottom edge of each movable standard cell must sit on
    # a row boundary.
    std = movable[~netlist.is_macro[movable]]
    bottoms = y[std] - half_h[std]
    offsets = (bottoms - bounds.ylo) / row_h
    misaligned = np.abs(offsets - np.round(offsets)) > tol / row_h + 1e-9
    report.off_row = [int(i) for i in std[misaligned][:max_reported]]

    if check_sites:
        site_w = core.site_width
        lefts = x[std] - half_w[std]
        s_off = (lefts - bounds.xlo) / site_w
        off_site = np.abs(s_off - np.round(s_off)) > tol / site_w + 1e-9
        report.off_site = [int(i) for i in std[off_site][:max_reported]]

    report.overlaps = find_overlaps(netlist, placement, tol=tol,
                                    max_reported=max_reported)

    for region in netlist.regions:
        for i in region.cells:
            if not netlist.movable[i]:
                continue
            if not region.rect.contains_point(x[i], y[i], tol=tol):
                report.region_violations.append(int(i))

    return report


def find_overlaps(
    netlist: Netlist,
    placement: Placement,
    tol: float = 1e-6,
    max_reported: int = 100,
) -> list[tuple[int, int]]:
    """All pairs of movable cells whose rectangles overlap by more than tol.

    Sweeps along x: cells are taken in order of their left edge, and each
    is compared, in a Python loop, with every cell still active (right
    edge past its left edge), whatever its row.  The cost is
    ``O(n log n + n * a)`` for an active set of ``a`` cells; on a legal
    placement ``a`` is about the number of rows a vertical line crosses,
    so about ``O(n ** 1.5)`` on a square core.
    """
    movable = np.flatnonzero(netlist.movable & (netlist.areas > 0))
    if movable.size == 0:
        return []
    x = placement.x[movable]
    y = placement.y[movable]
    hw = 0.5 * netlist.widths[movable]
    hh = 0.5 * netlist.heights[movable]
    order = np.argsort(x - hw, kind="stable")
    overlaps: list[tuple[int, int]] = []
    active: list[int] = []
    for oi in order:
        xlo_i = x[oi] - hw[oi]
        active = [
            oj for oj in active if x[oj] + hw[oj] > xlo_i + tol
        ]
        for oj in active:
            if (
                abs(y[oi] - y[oj]) < hh[oi] + hh[oj] - tol
                and abs(x[oi] - x[oj]) < hw[oi] + hw[oj] - tol
            ):
                a, b = int(movable[oi]), int(movable[oj])
                overlaps.append((min(a, b), max(a, b)))
                if len(overlaps) >= max_reported:
                    return overlaps
        active.append(oi)
    return overlaps


def total_overlap_area(netlist: Netlist, placement: Placement) -> float:
    """Sum of pairwise overlap areas among movable cells (brute force is
    avoided via the same sweep as :func:`find_overlaps`)."""
    movable = np.flatnonzero(netlist.movable & (netlist.areas > 0))
    if movable.size == 0:
        return 0.0
    x = placement.x[movable]
    y = placement.y[movable]
    hw = 0.5 * netlist.widths[movable]
    hh = 0.5 * netlist.heights[movable]
    order = np.argsort(x - hw, kind="stable")
    total = 0.0
    active: list[int] = []
    for oi in order:
        xlo_i = x[oi] - hw[oi]
        active = [oj for oj in active if x[oj] + hw[oj] > xlo_i]
        for oj in active:
            dx = min(x[oi] + hw[oi], x[oj] + hw[oj]) - max(
                x[oi] - hw[oi], x[oj] - hw[oj]
            )
            dy = min(y[oi] + hh[oi], y[oj] + hh[oj]) - max(
                y[oi] - hh[oi], y[oj] - hh[oj]
            )
            if dx > 0 and dy > 0:
                total += dx * dy
        active.append(oi)
    return total
