"""Look-ahead legalization: the density part of the feasibility projection.

This is the SimPL-style ``P_C`` the paper builds on (Sections 3-5):

1. rasterize movable area into the density grid and find bins above the
   target utilization ``gamma``,
2. cluster overfilled bins and grow each cluster to the *smallest*
   rectangular bin sub-array whose total demand fits ``gamma`` times its
   capacity,
3. inside each such region, run top-down geometric partitioning: pick a
   bin-aligned cut, split the (coordinate-sorted) cells so their area
   matches the two sides' capacities, linearly rescale each side into its
   sub-region, and continue to single-bin granularity.

The construction preserves the relative order of cells in each direction
and approximately minimizes L1 displacement — the properties Section S2
uses to argue convexity and self-consistency of the projection.

The partitioning runs one tree level at a time: every node of a depth is
sorted, split and rescaled in the same array operations, and all leaves
are spread in one pass at the end.  It returns exactly the bytes of the
node-at-a-time recursion it replaced (kept as the test oracle), which
takes care to sum areas and capacities in numpy's own order
(:mod:`repro.projection.summation`).

Everything here operates on plain rectangle arrays so macro shredding can
feed shreds through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .. import telemetry
from .grid import BinRegion, DensityGrid
from .summation import row_sums


@dataclass
class ProjectionStats:
    """Diagnostics from one projection call."""

    num_regions: int = 0
    num_overfilled_bins: int = 0
    max_recursion_depth: int = 0


def find_expansion_regions(
    grid: DensityGrid,
    usage: np.ndarray,
    gamma: float,
) -> list[BinRegion]:
    """Minimal rectangular bin regions around overfilled-bin clusters.

    Regions are grown greedily one row/column at a time toward the side
    with the most free capacity until demand <= gamma * capacity, then
    overlapping regions are merged (re-checking the bound after merges).
    """
    over = grid.overfilled_bins(usage, gamma)
    if not over.any():
        return []
    free = gamma * grid.capacity - usage
    labels, count = ndimage.label(over)
    regions: list[BinRegion] = []
    for lbl in range(1, count + 1):
        xs, ys = np.nonzero(labels == lbl)
        region = BinRegion(int(xs.min()), int(ys.min()),
                           int(xs.max()) + 1, int(ys.max()) + 1)
        regions.append(_grow_region(grid, usage, free, gamma, region))
    return _merge_regions(grid, usage, free, gamma, regions)


def _region_balance(usage: np.ndarray, free: np.ndarray, r: BinRegion) -> float:
    """Free capacity minus demand over the region (>=0 means feasible)."""
    return float(free[r.ix0:r.ix1, r.iy0:r.iy1].sum())


def _grow_region(
    grid: DensityGrid,
    usage: np.ndarray,
    free: np.ndarray,
    gamma: float,
    region: BinRegion,
) -> BinRegion:
    while _region_balance(usage, free, region) < 0:
        candidates: list[tuple[float, BinRegion]] = []
        if region.ix0 > 0:
            gain = float(free[region.ix0 - 1, region.iy0:region.iy1].sum())
            candidates.append((gain, BinRegion(region.ix0 - 1, region.iy0,
                                               region.ix1, region.iy1)))
        if region.ix1 < grid.nx:
            gain = float(free[region.ix1, region.iy0:region.iy1].sum())
            candidates.append((gain, BinRegion(region.ix0, region.iy0,
                                               region.ix1 + 1, region.iy1)))
        if region.iy0 > 0:
            gain = float(free[region.ix0:region.ix1, region.iy0 - 1].sum())
            candidates.append((gain, BinRegion(region.ix0, region.iy0 - 1,
                                               region.ix1, region.iy1)))
        if region.iy1 < grid.ny:
            gain = float(free[region.ix0:region.ix1, region.iy1].sum())
            candidates.append((gain, BinRegion(region.ix0, region.iy0,
                                               region.ix1, region.iy1 + 1)))
        if not candidates:
            break  # region covers the whole grid; nothing more to add
        candidates.sort(key=lambda c: c[0], reverse=True)
        region = candidates[0][1]
    return region


def _merge_regions(
    grid: DensityGrid,
    usage: np.ndarray,
    free: np.ndarray,
    gamma: float,
    regions: list[BinRegion],
) -> list[BinRegion]:
    merged = True
    while merged:
        merged = False
        out: list[BinRegion] = []
        for region in regions:
            for i, existing in enumerate(out):
                if existing.intersects(region):
                    union = existing.union(region)
                    out[i] = _grow_region(grid, usage, free, gamma, union)
                    merged = True
                    break
            else:
                out.append(region)
        regions = out
    return regions


def project_rectangles(
    grid: DensityGrid,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    gamma: float,
    leaf_size: int = 3,
    stats: ProjectionStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Project rectangles to a density-feasible layout; returns new centers.

    Rectangles whose centers fall outside every overfilled region are left
    untouched (the projection is local, like SimPL's).
    """
    with telemetry.span("lookahead_legalize", n=int(x.shape[0]),
                        bins=int(grid.nx * grid.ny)) as sp:
        new_x = np.array(x, dtype=np.float64)
        new_y = np.array(y, dtype=np.float64)
        areas = w * h
        usage = grid.usage(None, extra=(new_x, new_y, w, h))
        if stats is not None:
            stats.num_overfilled_bins = int(
                grid.overfilled_bins(usage, gamma).sum())
        regions = find_expansion_regions(grid, usage, gamma)
        if stats is not None:
            stats.num_regions = len(regions)
        sp.annotate("regions", len(regions))

        for batch in _independent_batches(regions):
            _partition(grid, batch, new_x, new_y, areas, gamma, leaf_size,
                       stats)
    return new_x, new_y


def _touches(a: BinRegion, b: BinRegion) -> bool:
    """The closed rectangles of two bin regions share at least a point."""
    return (a.ix0 <= b.ix1 and b.ix0 <= a.ix1
            and a.iy0 <= b.iy1 and b.iy0 <= a.iy1)


def _independent_batches(regions: list[BinRegion]) -> list[list[BinRegion]]:
    """Split the region list into runs that can be partitioned together.

    Regions are partitioned in list order, and each takes the items whose
    centers lie in its closed rectangle once the regions before it have
    moved theirs.  Partitioning keeps every item inside its region's
    rectangle (to within rounding), so an item can only change regions
    across a shared edge or corner.  A region touching an earlier one of
    the current run therefore starts a new run; within a run every item
    set is the one the sequential order would have seen.
    """
    batches: list[list[BinRegion]] = []
    for region in regions:
        if batches and not any(_touches(region, r) for r in batches[-1]):
            batches[-1].append(region)
        else:
            batches.append([region])
    return batches


def _partition(
    grid: DensityGrid,
    regions: list[BinRegion],
    x: np.ndarray,
    y: np.ndarray,
    areas: np.ndarray,
    gamma: float,
    leaf_size: int,
    stats: ProjectionStats | None,
) -> None:
    """Top-down partitioning of a batch of regions, one tree level at a time.

    A node is a bin region and the items it holds, kept contiguous in
    ``items`` with ``node_of`` non-decreasing.  An empty node stops; a
    node of one bin or of at most ``leaf_size`` items becomes a leaf;
    every other node is cut in two (:func:`_split_level`).  Distinct
    nodes hold distinct items and each moves only its own, so cutting a
    whole level at once moves every item exactly as cutting the nodes one
    by one (depth first) would.  Leaves are spread together at the end.
    """
    members: list[np.ndarray] = []
    roots: list[tuple[int, int, int, int]] = []
    for region in regions:
        rect = grid.region_rect(region)
        inside = (
            (x >= rect.xlo) & (x <= rect.xhi)
            & (y >= rect.ylo) & (y <= rect.yhi)
        )
        found = np.flatnonzero(inside)
        if found.size:
            members.append(found)
            roots.append((region.ix0, region.iy0, region.ix1, region.iy1))
    if not members:
        return
    nodes = np.array(roots, dtype=np.int64)
    items = np.concatenate(members)
    node_of = np.repeat(np.arange(len(members), dtype=np.int64),
                        [m.size for m in members])
    leaf_nodes: list[np.ndarray] = []
    leaf_counts: list[np.ndarray] = []
    leaf_items: list[np.ndarray] = []
    depth = 0
    while True:
        if stats is not None and depth > stats.max_recursion_depth:
            stats.max_recursion_depth = depth
        counts = np.bincount(node_of, minlength=nodes.shape[0])
        one_bin = ((nodes[:, 2] - nodes[:, 0] <= 1)
                   & (nodes[:, 3] - nodes[:, 1] <= 1))
        split = (counts > 0) & ~one_bin & (counts > leaf_size)
        leaf = (counts > 0) & ~split
        in_split = split[node_of]
        if leaf.any():
            leaf_nodes.append(nodes[leaf])
            leaf_counts.append(counts[leaf])
            leaf_items.append(items[~in_split])
        if not split.any():
            break
        rank = np.cumsum(split) - 1
        nodes, items, node_of = _split_level(
            grid, gamma, nodes[split], counts[split], items[in_split],
            rank[node_of[in_split]], x, y, areas)
        depth += 1
    _spread_leaves(grid, np.concatenate(leaf_nodes),
                   np.concatenate(leaf_counts), np.concatenate(leaf_items),
                   x, y)


def _split_level(
    grid: DensityGrid,
    gamma: float,
    nodes: np.ndarray,
    counts: np.ndarray,
    items: np.ndarray,
    node_of: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    areas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut every node of one level; returns the next level's nodes.

    Per node, exactly as the one-node-at-a-time recursion did: cut across
    the dimension with more bins (ties: the physically wider) at the
    middle bin line; sort the items along that axis (stable); choose the
    prefix ``k`` whose area best matches the left side's share of the
    gamma-scaled capacity; rescale both sides linearly into their halves.
    Children come in (left, right) pairs, items in sorted order.
    """
    b = grid.bounds
    ix0, iy0, ix1, iy1 = nodes.T
    bins_x = ix1 - ix0
    bins_y = iy1 - iy0
    xlo = b.xlo + ix0 * grid.bin_w
    xhi = b.xlo + ix1 * grid.bin_w
    ylo = b.ylo + iy0 * grid.bin_h
    yhi = b.ylo + iy1 * grid.bin_h
    on_x = (bins_x > bins_y) | ((bins_x == bins_y) & (xhi - xlo >= yhi - ylo))
    mid = np.where(on_x, ix0 + bins_x // 2, iy0 + bins_y // 2)
    cut = np.where(on_x, b.xlo + mid * grid.bin_w, b.ylo + mid * grid.bin_h)
    lo = np.where(on_x, xlo, ylo)
    hi = np.where(on_x, xhi, yhi)
    children = np.repeat(nodes, 2, axis=0)
    children[0::2, 2] = np.where(on_x, mid, ix1)
    children[0::2, 3] = np.where(on_x, iy1, mid)
    children[1::2, 0] = np.where(on_x, mid, ix0)
    children[1::2, 1] = np.where(on_x, iy0, mid)
    capacity = gamma * grid.capacity_sums(children)
    cap_left = capacity[0::2]
    total_cap = cap_left + capacity[1::2]

    key = np.where(on_x[node_of], x[items], y[items])
    order = np.lexsort((key, node_of))
    items = items[order]
    key = key[order]
    start = np.cumsum(counts) - counts
    pos = np.arange(items.shape[0], dtype=np.int64) - start[node_of]
    sorted_areas = areas[items]

    # A node's total area is np.sum of its sorted areas (numpy's pairwise
    # order); its prefix areas run left to right, like np.cumsum of one
    # node, from a leading zero.
    width = int(counts.max())
    padded = np.zeros((nodes.shape[0], 1 + 8 * (width // 8 + 1)),
                      dtype=np.float64)
    padded[node_of, pos + 1] = sorted_areas
    total = row_sums(padded[:, 1:], counts)
    prefix = np.cumsum(padded, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        target = total * cap_left / total_cap
    dist = np.abs(prefix - target[:, None])
    dist[np.arange(prefix.shape[1], dtype=np.int64) > counts[:, None]] = np.inf
    k = np.argmin(dist, axis=1)
    k = np.where((total_cap <= 0) | (total <= 0), counts // 2, k)

    # Source split: midpoint between the two groups, clamped to the node.
    last = start + counts - 1
    below = key[np.maximum(start + k - 1, start)]
    above = key[np.minimum(start + k, last)]
    src = np.where(k == 0, lo, np.where(k == counts, hi, 0.5 * (below + above)))
    src = np.where(lo > src, lo, src)
    src = np.where(hi < src, hi, src)

    # Linear rescale [lo, src] -> [lo, cut] and [src, hi] -> [cut, hi].
    child = 2 * node_of + (pos >= k[node_of])
    src_lo = np.column_stack((lo, src)).ravel()
    src_hi = np.column_stack((src, hi)).ravel()
    dst_lo = np.column_stack((lo, cut)).ravel()
    dst_hi = np.column_stack((cut, hi)).ravel()
    span = (src_hi - src_lo)[child]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (key - src_lo[child]) / span
    moved = np.where(span <= 0, (0.5 * (dst_lo + dst_hi))[child],
                     dst_lo[child] + t * (dst_hi - dst_lo)[child])
    along_x = on_x[node_of]
    x[items[along_x]] = moved[along_x]
    y[items[~along_x]] = moved[~along_x]
    return children, items, child


def _spread_leaves(
    grid: DensityGrid,
    nodes: np.ndarray,
    counts: np.ndarray,
    items: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> None:
    """Spread every leaf's items across its region, all leaves at once.

    The parent cuts guarantee the leaf's *area* budget, but a clumped
    input leaves all items piled at one edge of the bin (linear scaling
    preserves clumps), which leaks their rasterized area into neighboring
    bins.  Per axis, a leaf whose items span less than a quarter of its
    width is spread evenly in stable sorted order, mirroring SimPL's final
    one-dimensional spreading step; a leaf already spread out but reaching
    past its region is scaled linearly back in; any other leaf stays.

    The 0.25 trigger balances two failure modes: always even-spreading
    keeps re-shuffling near-feasible bins (hurting the self-consistency of
    Formula 11), while never doing it leaves clumps piled on bin
    boundaries whose rasterized area leaks into neighbors.  Measured on
    the S2 experiment, 0.25 maximizes consistency AND final HPWL
    simultaneously.
    """
    b = grid.bounds
    leaf_of = np.repeat(np.arange(nodes.shape[0], dtype=np.int64), counts)
    start = np.cumsum(counts) - counts
    sides = (
        (x, b.xlo + nodes[:, 0] * grid.bin_w, b.xlo + nodes[:, 2] * grid.bin_w),
        (y, b.ylo + nodes[:, 1] * grid.bin_h, b.ylo + nodes[:, 3] * grid.bin_h),
    )
    for coords, lo, hi in sides:
        vals = coords[items]
        v_lo = np.minimum.reduceat(vals, start)
        v_hi = np.maximum.reduceat(vals, start)
        clumped = v_hi - v_lo < 0.25 * (hi - lo)
        spill = ~clumped & ((v_lo < lo) | (v_hi > hi))

        pick = clumped[leaf_of]
        if pick.any():
            # Even spread: the r-th of n items (stable order) goes to
            # lo + (r + 0.5) / n * (hi - lo); a lone item to the center.
            owner = leaf_of[pick]
            order = np.lexsort((vals[pick], owner))
            n = counts[owner]
            first = np.cumsum(pick)[start[owner]] - 1
            rank = np.arange(owner.shape[0], dtype=np.float64) - first
            t = (rank + 0.5) / n
            coords[items[pick][order]] = np.where(
                n == 1, (0.5 * (lo + hi))[owner],
                lo[owner] + t * (hi - lo)[owner])

        pick = spill[leaf_of]
        if pick.any():
            owner = leaf_of[pick]
            src_lo = np.where(lo < v_lo, lo, v_lo)[owner]
            src_hi = np.where(hi > v_hi, hi, v_hi)[owner]
            span = src_hi - src_lo
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (vals[pick] - src_lo) / span
            coords[items[pick]] = np.where(
                span <= 0, (0.5 * (lo + hi))[owner],
                lo[owner] + t * (hi - lo)[owner])
