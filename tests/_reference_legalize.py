"""Reference legalizers: Tetris and Abacus as first written.

The oracle for the legalizer equivalence tests in
``tests/test_legalize.py``, the role ``_reference_projection`` plays for
the feasibility projection.  Both scan a cell's candidate rows and
their segments in nested Python loops (row ascending, segment
ascending, strict improvement only).  The vectorized searches in
``repro.legalize.tetris`` and ``repro.legalize.abacus`` must return
exactly the same placements.  Abacus's cluster insertion (``_insert``,
``_Cluster``) is shared with the fast path, so it is imported, not
copied.
"""

from __future__ import annotations

import numpy as np

from repro.legalize.abacus import _Cluster, _insert
from repro.legalize.macros import legalize_macros, macro_obstacles
from repro.legalize.rows import RowMap, snap_placement_to_sites
from repro.netlist import Netlist, Placement


def _tetris_reference(
    netlist: Netlist,
    placement: Placement,
    row_window: int = 6,
    snap_sites: bool = True,
) -> Placement:
    """Tetris with the nested-loop row/segment search."""
    out = legalize_macros(netlist, placement)
    rowmap = RowMap(netlist, extra_obstacles=macro_obstacles(netlist, out),
                    site_align=snap_sites)

    std = np.flatnonzero(netlist.movable & ~netlist.is_macro)
    if std.size == 0:
        return out
    order = std[np.argsort(placement.x[std] - 0.5 * netlist.widths[std],
                           kind="stable")]

    frontiers: list[list[float]] = [
        [seg.lo for seg in segs] for segs in rowmap.segments
    ]

    for cell in order:
        w = netlist.widths[cell]
        want_x = out.x[cell] - 0.5 * w
        want_row = rowmap.row_index(out.y[cell])
        best = None  # (cost, row, seg index, x position)
        window = row_window
        while best is None and window <= 4 * rowmap.num_rows:
            lo_row = max(want_row - window, 0)
            hi_row = min(want_row + window, rowmap.num_rows - 1)
            for row in range(lo_row, hi_row + 1):
                dy = abs(rowmap.row_center_y(row) - out.y[cell])
                if best is not None and dy >= best[0]:
                    continue
                for s, seg in enumerate(rowmap.segments[row]):
                    x = max(frontiers[row][s], min(want_x, seg.hi - w))
                    if x + w > seg.hi + 1e-9 or x < seg.lo - 1e-9:
                        continue
                    cost = abs(x - want_x) + dy
                    if best is None or cost < best[0]:
                        best = (cost, row, s, x)
            window *= 2
        if best is None:
            continue
        _, row, s, x = best
        frontiers[row][s] = x + w
        out.x[cell] = x + 0.5 * w
        out.y[cell] = rowmap.row_center_y(row)
    if snap_sites:
        out = snap_placement_to_sites(netlist, out, rowmap)
    return out


def _abacus_reference(
    netlist: Netlist,
    placement: Placement,
    row_window: int = 4,
    snap_sites: bool = True,
) -> Placement:
    """Abacus with the nested-loop row/segment search."""
    out = legalize_macros(netlist, placement)
    rowmap = RowMap(netlist, extra_obstacles=macro_obstacles(netlist, out),
                    site_align=snap_sites)

    std = np.flatnonzero(netlist.movable & ~netlist.is_macro)
    if std.size == 0:
        return out
    order = std[np.argsort(placement.x[std] - 0.5 * netlist.widths[std],
                           kind="stable")]

    clusters: list[list[list[_Cluster]]] = [
        [[] for _ in segs] for segs in rowmap.segments
    ]

    for cell in order:
        w = netlist.widths[cell]
        desired = out.x[cell] - 0.5 * w
        want_row = rowmap.row_index(out.y[cell])
        best = None  # (cost, row, seg, new clusters, x)
        window = row_window
        while best is None and window <= 4 * rowmap.num_rows:
            lo_row = max(want_row - window, 0)
            hi_row = min(want_row + window, rowmap.num_rows - 1)
            for row in range(lo_row, hi_row + 1):
                dy = abs(rowmap.row_center_y(row) - out.y[cell])
                if best is not None and dy >= best[0]:
                    continue
                for s, seg in enumerate(rowmap.segments[row]):
                    trial = _insert(
                        clusters[row][s], int(cell), desired, 1.0, w,
                        seg.lo, seg.hi,
                    )
                    if trial is None:
                        continue
                    new_clusters, x = trial
                    cost = abs(x - desired) + dy
                    if best is None or cost < best[0]:
                        best = (cost, row, s, new_clusters, x)
            window *= 2
        if best is None:
            continue
        _, row, s, new_clusters, _ = best
        clusters[row][s] = new_clusters

    for row, row_clusters in enumerate(clusters):
        y = rowmap.row_center_y(row)
        for seg_clusters in row_clusters:
            for cluster in seg_clusters:
                for cell, off in zip(cluster.cells, cluster.offsets):
                    out.x[cell] = cluster.x + off + 0.5 * netlist.widths[cell]
                    out.y[cell] = y
    if snap_sites:
        out = snap_placement_to_sites(netlist, out, rowmap)
    return out
