"""Abacus row-based legalization [Spindler et al., DATE 2008].

Cells are processed in x order; each is trial-inserted into candidate
rows.  Within a row (more precisely, within each obstacle-free segment)
cells form *clusters* placed at their weighted-optimal position; adding a
cell that would overlap its predecessor merges clusters, which keeps
every cell at the least-squares-optimal legal position given the cell
order.  Displacement is typically much lower than Tetris.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..core.invariants import assert_legal
from ..faults import hooks as fault_hooks
from ..netlist import Netlist, Placement
from .instrument import record_displacement
from .macros import legalize_macros, macro_obstacles
from .rows import RowMap, snap_placement_to_sites

logger = logging.getLogger(__name__)


@dataclass
class _Cluster:
    """A maximal group of abutting cells within one segment."""

    x: float = 0.0        # left edge of the cluster
    e: float = 0.0        # total weight
    q: float = 0.0        # weighted sum of (desired left edge - offset)
    w: float = 0.0        # total width
    cells: list[int] = field(default_factory=list)
    offsets: list[float] = field(default_factory=list)

    def add_cell(self, cell: int, desired: float, weight: float, width: float) -> None:
        self.offsets.append(self.w)
        self.cells.append(cell)
        self.e += weight
        self.q += weight * (desired - self.w)
        self.w += width

    def merge(self, other: "_Cluster") -> None:
        shift = self.w
        for off in other.offsets:
            self.offsets.append(off + shift)
        self.cells.extend(other.cells)
        self.e += other.e
        # q accumulates e_i * (desired_i - offset_i); the merged cells'
        # offsets grow by `shift`, so their q contribution shrinks.
        self.q += other.q - other.e * shift
        self.w += other.w

    def optimal_x(self, lo: float, hi: float) -> float:
        x = self.q / self.e if self.e > 0 else lo
        return min(max(x, lo), max(hi - self.w, lo))


def _insert(
    clusters: list[_Cluster],
    cell: int,
    desired: float,
    weight: float,
    width: float,
    lo: float,
    hi: float,
) -> tuple[list[_Cluster], float] | None:
    """Trial-insert a cell; returns (new clusters, final left edge) or
    None when the segment cannot hold it."""
    used = sum(c.w for c in clusters)
    if used + width > hi - lo + 1e-9:
        return None
    out = [
        _Cluster(c.x, c.e, c.q, c.w, list(c.cells), list(c.offsets))
        for c in clusters
    ]
    new = _Cluster()
    new.add_cell(cell, desired, weight, width)
    new.x = new.optimal_x(lo, hi)
    out.append(new)
    # Collapse: merge with predecessor while overlapping.
    while len(out) >= 2 and out[-2].x + out[-2].w > out[-1].x + 1e-12:
        prev = out[-2]
        prev.merge(out[-1])
        out.pop()
        prev.x = prev.optimal_x(lo, hi)
    tail = out[-1]
    # Left edge of the inserted cell after collapsing.
    final = tail.x + tail.offsets[tail.cells.index(cell)]
    return out, final


def abacus_legalize(
    netlist: Netlist,
    placement: Placement,
    row_window: int = 4,
    snap_sites: bool = True,
    check_invariants: bool = False,
) -> Placement:
    """Legalize movable cells: macros greedily, standard cells by Abacus.

    ``snap_sites`` aligns final x positions to the site grid.
    ``check_invariants`` certifies the output with
    :func:`repro.core.invariants.assert_legal` before returning.
    """
    with telemetry.span("legalize", algorithm="abacus") as sp:
        out = _abacus_impl(netlist, placement, row_window, snap_sites,
                           check_invariants)
        record_displacement("abacus", netlist, placement, out, sp)
    return out


def _abacus_impl(
    netlist: Netlist,
    placement: Placement,
    row_window: int,
    snap_sites: bool,
    check_invariants: bool,
) -> Placement:
    fault_hooks.maybe_raise("legalize.abacus")
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

    # clusters[flat segment] -> list of clusters (row-major flat layout
    # shared with the RowMap's seg_* arrays).
    clusters: list[list[_Cluster]] = [[] for _ in range(rowmap.seg_lo.size)]
    # Exact committed cluster widths per segment, refreshed after every
    # commit with the same left-to-right summation `_insert` performs,
    # so the vectorized capacity prefilter reproduces its feasibility
    # test bit for bit.
    used = np.zeros(rowmap.seg_lo.size, dtype=np.float64)
    seg_start = rowmap.seg_start
    seg_lo, seg_hi = rowmap.seg_lo, rowmap.seg_hi
    seg_row, centers = rowmap.seg_row, rowmap.row_centers
    capacity = seg_hi - seg_lo
    want_rows = rowmap.row_indices(out.y[order])

    for cell, want_row in zip(order, want_rows):
        w = netlist.widths[cell]
        desired = out.x[cell] - 0.5 * w
        best = None  # (cost, flat seg, new clusters, x)
        window = row_window
        while best is None and window <= 4 * rowmap.num_rows:
            lo_row = max(want_row - window, 0)
            hi_row = min(want_row + window, rowmap.num_rows - 1)
            f0, f1 = seg_start[lo_row], seg_start[hi_row + 1]
            if f1 > f0:
                # Vectorized prefilter over the whole row window: drop
                # segments that cannot hold the cell (the exact check
                # `_insert` performs) and, via a displacement lower
                # bound, segments that cannot beat the current best.
                # The 1e-7 slack absorbs ulp-level re-association in the
                # cluster width sums (the trial's final edge can exceed
                # `hi - w` by an ulp), keeping this a true lower bound;
                # a candidate within the slack of the incumbent could
                # not have replaced it anyway (strict improvement only).
                dy = np.abs(centers[seg_row[f0:f1]] - out.y[cell])
                lower = dy + np.maximum(
                    np.maximum(seg_lo[f0:f1] - desired,
                               desired - (seg_hi[f0:f1] - w)),
                    0.0,
                ) - 1e-7
                feasible = used[f0:f1] + w <= capacity[f0:f1] + 1e-9
                for j in np.flatnonzero(feasible):
                    if best is not None and lower[j] >= best[0]:
                        continue
                    f = int(f0) + int(j)
                    trial = _insert(
                        clusters[f], int(cell), desired, 1.0, w,
                        seg_lo[f], seg_hi[f],
                    )
                    if trial is None:
                        continue
                    new_clusters, x = trial
                    cost = abs(x - desired) + dy[j]
                    if best is None or cost < best[0]:
                        best = (cost, f, new_clusters, x)
            window *= 2
        if best is None:
            logger.warning("abacus: no legal slot for cell %d", int(cell))
            continue
        _, f, new_clusters, _ = best
        clusters[f] = new_clusters
        used[f] = sum(c.w for c in new_clusters)

    # Read final positions out of the cluster structures.
    for f, seg_clusters in enumerate(clusters):
        y = centers[seg_row[f]]
        for cluster in seg_clusters:
            for cell, off in zip(cluster.cells, cluster.offsets):
                out.x[cell] = cluster.x + off + 0.5 * netlist.widths[cell]
                out.y[cell] = y
    if snap_sites:
        out = snap_placement_to_sites(netlist, out, rowmap)
    logger.debug(
        "abacus: legalized %d standard cells, mean |dx|+|dy| = %.3g",
        std.size,
        float(np.abs(out.x[std] - placement.x[std]).mean()
              + np.abs(out.y[std] - placement.y[std]).mean()),
    )
    if check_invariants:
        assert_legal(netlist, out, check_sites=snap_sites)
    return out
