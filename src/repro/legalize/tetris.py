"""Tetris-style greedy legalization.

The classic Hill-style legalizer: process standard cells left-to-right;
each cell takes the lowest-cost legal slot among nearby rows, where each
row advances a "frontier" past the cells already placed in it.  Fast and
robust; Abacus (see :mod:`.abacus`) usually yields lower displacement.
"""

from __future__ import annotations

import logging

import numpy as np

from .. import telemetry
from ..core.invariants import assert_legal
from ..faults import hooks as fault_hooks
from ..netlist import Netlist, Placement
from .instrument import record_displacement
from .macros import legalize_macros, macro_obstacles
from .rows import RowMap, snap_placement_to_sites

logger = logging.getLogger(__name__)


def tetris_legalize(
    netlist: Netlist,
    placement: Placement,
    row_window: int = 6,
    snap_sites: bool = True,
    check_invariants: bool = False,
) -> Placement:
    """Legalize all movable cells (macros first, then standard cells).

    ``row_window`` bounds how many rows above/below a cell's position are
    tried before the search widens (it expands automatically when no slot
    fits).  ``snap_sites`` aligns final x positions to the site grid.
    ``check_invariants`` certifies the output with
    :func:`repro.core.invariants.assert_legal` before returning.
    """
    with telemetry.span("legalize", algorithm="tetris") as sp:
        out = _tetris_impl(netlist, placement, row_window, snap_sites,
                           check_invariants)
        record_displacement("tetris", netlist, placement, out, sp)
    return out


def _tetris_impl(
    netlist: Netlist,
    placement: Placement,
    row_window: int,
    snap_sites: bool,
    check_invariants: bool,
) -> Placement:
    fault_hooks.maybe_raise("legalize.tetris")
    out = legalize_macros(netlist, placement)
    rowmap = RowMap(netlist, extra_obstacles=macro_obstacles(netlist, out),
                    site_align=snap_sites)

    std = np.flatnonzero(netlist.movable & ~netlist.is_macro)
    if std.size == 0:
        if check_invariants:
            assert_legal(netlist, out, check_sites=snap_sites)
        return out
    order = std[np.argsort(placement.x[std] - 0.5 * netlist.widths[std],
                           kind="stable")]

    # Flat per-segment frontier: next free x in each segment.  The
    # candidate search below runs over the contiguous flat slice of the
    # row window with pure array ops; np.argmin's first-minimum tie
    # break reproduces the historical nested-loop scan (row ascending,
    # segment ascending, strict improvement only) exactly, so this is
    # placement-identical to the nested-loop oracle in
    # ``tests/_reference_legalize.py``.
    frontier = rowmap.seg_lo.copy()
    seg_start = rowmap.seg_start
    seg_lo, seg_hi = rowmap.seg_lo, rowmap.seg_hi
    seg_row, centers = rowmap.seg_row, rowmap.row_centers
    want_rows = rowmap.row_indices(out.y[order])

    for cell, want_row in zip(order, want_rows):
        w = netlist.widths[cell]
        want_x = out.x[cell] - 0.5 * w
        best = None  # (cost, flat segment index, x position)
        window = row_window
        while best is None and window <= 4 * rowmap.num_rows:
            lo_row = max(want_row - window, 0)
            hi_row = min(want_row + window, rowmap.num_rows - 1)
            f0, f1 = seg_start[lo_row], seg_start[hi_row + 1]
            if f1 > f0:
                hi = seg_hi[f0:f1]
                x = np.maximum(frontier[f0:f1], np.minimum(want_x, hi - w))
                ok = (x + w <= hi + 1e-9) & (x >= seg_lo[f0:f1] - 1e-9)
                if ok.any():
                    dy = np.abs(centers[seg_row[f0:f1]] - out.y[cell])
                    cost = np.where(ok, np.abs(x - want_x) + dy, np.inf)
                    j = int(np.argmin(cost))
                    best = (float(cost[j]), f0 + j, float(x[j]))
            window *= 2
        if best is None:
            # Pathologically full layout: leave the cell; the caller can
            # check legality and react.
            logger.warning("tetris: no legal slot for cell %d", int(cell))
            continue
        _, f, x = best
        frontier[f] = x + w
        out.x[cell] = x + 0.5 * w
        out.y[cell] = centers[seg_row[f]]
    if snap_sites:
        out = snap_placement_to_sites(netlist, out, rowmap)
    logger.debug(
        "tetris: legalized %d standard cells, mean |dx|+|dy| = %.3g",
        std.size,
        float(np.abs(out.x[std] - placement.x[std]).mean()
              + np.abs(out.y[std] - placement.y[std]).mean()),
    )
    if check_invariants:
        assert_legal(netlist, out, check_sites=snap_sites)
    return out
