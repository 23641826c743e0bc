"""Reference feasibility projection: look-ahead legalization as first written.

The oracle for ``tests/test_projection_oracle.py``, the role
``_reference_detailed`` plays for detailed placement.  ``_bisect``
partitions one region node at a time, recursively (an ``argsort`` per
node, then a capacity split, then a linear rescale of each side),
``_scale_leaf`` spreads one leaf at a time, and ``reference_rasterize``
adds every rectangle wider or taller than a 2x2 bin window to the grid in
its own loop iteration.  The level-synchronous
``repro.projection.lal.project_rectangles`` and the one-pass
``DensityGrid._rasterize`` must return exactly the same bytes.

``split_by_capacity``, ``linear_scale`` and ``even_spread`` are the
one-dimensional primitives this recursion is built from; nothing in
``repro`` calls them any more, and ``tests/test_spreading.py`` tests them
here.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.projection.grid import BinRegion, DensityGrid
from repro.projection.lal import ProjectionStats, find_expansion_regions


def linear_scale(
    coords: np.ndarray,
    src_lo: float,
    src_hi: float,
    dst_lo: float,
    dst_hi: float,
) -> np.ndarray:
    """Map coordinates affinely from ``[src_lo, src_hi]`` to the target.

    Degenerate source intervals collapse to the target center.
    """
    if dst_hi < dst_lo:
        raise ValueError("target interval is reversed")
    span = src_hi - src_lo
    if span <= 0:
        return np.full_like(np.asarray(coords, dtype=np.float64),
                            0.5 * (dst_lo + dst_hi))
    t = (np.asarray(coords, dtype=np.float64) - src_lo) / span
    return dst_lo + t * (dst_hi - dst_lo)


def split_by_capacity(
    areas_sorted: np.ndarray,
    capacity_left: float,
    capacity_right: float,
) -> int:
    """Index ``k`` splitting sorted cells so left-side area tracks capacity.

    Cells ``[0, k)`` go left, ``[k, n)`` go right.  The split point is the
    prefix whose area fraction best matches the left capacity fraction —
    the "median should divide cell area evenly" rule of Section S2.
    """
    total_cap = capacity_left + capacity_right
    total_area = float(areas_sorted.sum())
    if total_cap <= 0 or total_area <= 0:
        return len(areas_sorted) // 2
    target = total_area * capacity_left / total_cap
    prefix = np.concatenate([[0.0], np.cumsum(areas_sorted)])
    k = int(np.argmin(np.abs(prefix - target)))
    return min(max(k, 0), len(areas_sorted))


def even_spread(coords: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Distribute sorted coordinates evenly across ``[lo, hi]``.

    Used for leaf bins when displacement hardly matters (few cells in a
    tiny window); preserves the input order.
    """
    n = np.asarray(coords).shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    if n == 1:
        return np.array([0.5 * (lo + hi)], dtype=np.float64)
    t = (np.arange(n, dtype=np.float64) + 0.5) / n
    return lo + t * (hi - lo)


def reference_rasterize(
    grid: DensityGrid,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
) -> np.ndarray:
    """Exact area overlap of rectangles (centers x,y) with each bin."""
    out = np.zeros((grid.nx, grid.ny), dtype=np.float64)
    if x.shape[0] == 0:
        return out
    b = grid.bounds
    xlo = np.clip(x - 0.5 * w, b.xlo, b.xhi)
    xhi = np.clip(x + 0.5 * w, b.xlo, b.xhi)
    ylo = np.clip(y - 0.5 * h, b.ylo, b.yhi)
    yhi = np.clip(y + 0.5 * h, b.ylo, b.yhi)
    ix0 = np.clip(((xlo - b.xlo) / grid.bin_w).astype(np.int64), 0, grid.nx - 1)
    ix1 = np.clip(((xhi - b.xlo) / grid.bin_w).astype(np.int64), 0, grid.nx - 1)
    iy0 = np.clip(((ylo - b.ylo) / grid.bin_h).astype(np.int64), 0, grid.ny - 1)
    iy1 = np.clip(((yhi - b.ylo) / grid.bin_h).astype(np.int64), 0, grid.ny - 1)

    small = ((ix1 - ix0) <= 1) & ((iy1 - iy0) <= 1)
    if small.any():
        s = np.flatnonzero(small)
        flat_bins: list[np.ndarray] = []
        flat_area: list[np.ndarray] = []
        for dx in (0, 1):
            for dy in (0, 1):
                bx = np.minimum(ix0[s] + dx, grid.nx - 1)
                by = np.minimum(iy0[s] + dy, grid.ny - 1)
                bin_xlo = b.xlo + bx * grid.bin_w
                bin_ylo = b.ylo + by * grid.bin_h
                ox = np.minimum(xhi[s], bin_xlo + grid.bin_w) - np.maximum(xlo[s], bin_xlo)
                oy = np.minimum(yhi[s], bin_ylo + grid.bin_h) - np.maximum(ylo[s], bin_ylo)
                area = np.clip(ox, 0.0, None) * np.clip(oy, 0.0, None)
                if dx == 1:
                    area = np.where(ix1[s] > ix0[s], area, 0.0)
                if dy == 1:
                    area = np.where(iy1[s] > iy0[s], area, 0.0)
                flat_bins.append(bx * grid.ny + by)
                flat_area.append(area)
        out = np.bincount(
            np.concatenate(flat_bins),
            weights=np.concatenate(flat_area),
            minlength=grid.nx * grid.ny,
        ).reshape(grid.nx, grid.ny)

    # Big rectangles (macros), one at a time.
    for i in np.flatnonzero(~small):
        gx = np.arange(ix0[i], ix1[i] + 1, dtype=np.int64)
        gy = np.arange(iy0[i], iy1[i] + 1, dtype=np.int64)
        bx0 = b.xlo + gx * grid.bin_w
        by0 = b.ylo + gy * grid.bin_h
        ox = np.minimum(xhi[i], bx0 + grid.bin_w) - np.maximum(xlo[i], bx0)
        oy = np.minimum(yhi[i], by0 + grid.bin_h) - np.maximum(ylo[i], by0)
        out[np.ix_(gx, gy)] += np.outer(np.clip(ox, 0, None), np.clip(oy, 0, None))
    return out


def reference_project_rectangles(
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
        usage = reference_rasterize(grid, new_x, new_y, w, h)
        if stats is not None:
            stats.num_overfilled_bins = int(
                grid.overfilled_bins(usage, gamma).sum())
        regions = find_expansion_regions(grid, usage, gamma)
        if stats is not None:
            stats.num_regions = len(regions)
        sp.annotate("regions", len(regions))

        for region in regions:
            rect = grid.region_rect(region)
            inside = (
                (new_x >= rect.xlo) & (new_x <= rect.xhi)
                & (new_y >= rect.ylo) & (new_y <= rect.yhi)
            )
            items = np.flatnonzero(inside)
            if items.size == 0:
                continue
            _bisect(grid, region, items, new_x, new_y, areas, gamma,
                    leaf_size, depth=0, stats=stats)
    return new_x, new_y


def _region_capacity(grid: DensityGrid, gamma: float, r: BinRegion) -> float:
    return float(gamma * grid.capacity[r.ix0:r.ix1, r.iy0:r.iy1].sum())


def _bisect(
    grid: DensityGrid,
    region: BinRegion,
    items: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    areas: np.ndarray,
    gamma: float,
    leaf_size: int,
    depth: int,
    stats: ProjectionStats | None,
) -> None:
    """Recursive top-down geometric partitioning with linear rescaling."""
    if stats is not None and depth > stats.max_recursion_depth:
        stats.max_recursion_depth = depth
    bins_x = region.ix1 - region.ix0
    bins_y = region.iy1 - region.iy0
    if items.size == 0:
        return
    if (bins_x <= 1 and bins_y <= 1) or items.size <= leaf_size:
        _scale_leaf(grid, region, items, x, y)
        return

    # Cut across the dimension with more bins (ties: the physically wider).
    rect = grid.region_rect(region)
    if bins_x > bins_y or (bins_x == bins_y and rect.width >= rect.height):
        coords = x
        mid = region.ix0 + bins_x // 2
        left = BinRegion(region.ix0, region.iy0, mid, region.iy1)
        right = BinRegion(mid, region.iy0, region.ix1, region.iy1)
        cut_phys = grid.bounds.xlo + mid * grid.bin_w
        lo, hi = rect.xlo, rect.xhi
    else:
        coords = y
        mid = region.iy0 + bins_y // 2
        left = BinRegion(region.ix0, region.iy0, region.ix1, mid)
        right = BinRegion(region.ix0, mid, region.ix1, region.iy1)
        cut_phys = grid.bounds.ylo + mid * grid.bin_h
        lo, hi = rect.ylo, rect.yhi

    order = np.argsort(coords[items], kind="stable")
    sorted_items = items[order]
    k = split_by_capacity(
        areas[sorted_items],
        _region_capacity(grid, gamma, left),
        _region_capacity(grid, gamma, right),
    )
    left_items = sorted_items[:k]
    right_items = sorted_items[k:]

    # Source split coordinate: midpoint between the two groups.
    if k == 0:
        src_split = lo
    elif k == sorted_items.size:
        src_split = hi
    else:
        src_split = 0.5 * (
            coords[sorted_items[k - 1]] + coords[sorted_items[k]]
        )
    src_split = min(max(src_split, lo), hi)

    if left_items.size:
        coords[left_items] = linear_scale(
            coords[left_items], lo, src_split, lo, cut_phys
        )
    if right_items.size:
        coords[right_items] = linear_scale(
            coords[right_items], src_split, hi, cut_phys, hi
        )

    _bisect(grid, left, left_items, x, y, areas, gamma, leaf_size,
            depth + 1, stats)
    _bisect(grid, right, right_items, x, y, areas, gamma, leaf_size,
            depth + 1, stats)


def _scale_leaf(
    grid: DensityGrid,
    region: BinRegion,
    items: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> None:
    """Evenly spread leaf items across their (single-bin) region."""
    rect = grid.region_rect(region)
    for coords, lo, hi in ((x, rect.xlo, rect.xhi), (y, rect.ylo, rect.yhi)):
        vals = coords[items]
        v_lo, v_hi = float(vals.min()), float(vals.max())
        span = v_hi - v_lo
        if span < 0.25 * (hi - lo):
            # Clumped input: even out the density inside the bin.
            order = np.argsort(vals, kind="stable")
            coords[items[order]] = even_spread(vals, lo, hi)
        elif v_lo < lo or v_hi > hi:
            # Already spread out: minimum disturbance, just fit the bin.
            coords[items] = linear_scale(vals, min(v_lo, lo), max(v_hi, hi), lo, hi)
