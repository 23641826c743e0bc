"""Uniform density grid: supplies, demands and overflow.

The feasibility projection identifies overfilled bins with respect to a
target utilization ``0 < gamma <= 1`` over a uniform grid superimposed on
the layout (paper Section 5).  This module implements that grid:

* **capacity** — placeable area per bin: the bin area minus the area
  covered by fixed objects (obstacles: terminals with area, fixed macros),
* **usage** — movable-cell area rasterized into the bins (exact
  rectangle-bin overlap),
* **overflow** — ``sum_b max(0, usage_b - gamma * capacity_b)``, also as a
  percentage of total movable area, which is the quantity behind the
  ISPD 2006 "scaled HPWL" contest metric reported in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..netlist import Netlist, Placement, Rect


@dataclass
class BinRegion:
    """A rectangular range of bins: ``[ix0, ix1) x [iy0, iy1)``."""

    ix0: int
    iy0: int
    ix1: int
    iy1: int

    @property
    def num_bins(self) -> int:
        return (self.ix1 - self.ix0) * (self.iy1 - self.iy0)

    def contains(self, other: "BinRegion") -> bool:
        return (
            self.ix0 <= other.ix0 and other.ix1 <= self.ix1
            and self.iy0 <= other.iy0 and other.iy1 <= self.iy1
        )

    def intersects(self, other: "BinRegion") -> bool:
        return (
            self.ix0 < other.ix1 and other.ix0 < self.ix1
            and self.iy0 < other.iy1 and other.iy0 < self.iy1
        )

    def union(self, other: "BinRegion") -> "BinRegion":
        return BinRegion(
            min(self.ix0, other.ix0), min(self.iy0, other.iy0),
            max(self.ix1, other.ix1), max(self.iy1, other.iy1),
        )


class DensityGrid:
    """A ``nx x ny`` uniform grid over the core bounds.

    Capacities are computed once at construction from the netlist's fixed
    objects; usage is recomputed per placement.
    """

    #: Bound on the memo of :meth:`capacity_sums`, in regions per bin.
    MEMO_PER_BIN = 8

    def __init__(self, netlist: Netlist, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError("grid must have at least one bin per axis")
        self.netlist = netlist
        self.nx = int(nx)
        self.ny = int(ny)
        self.bounds = netlist.core.bounds
        self.bin_w = self.bounds.width / self.nx
        self.bin_h = self.bounds.height / self.ny
        self.capacity = self._compute_capacity()
        # Memo of capacity_sums: sorted region keys and their sums.
        self._sum_keys = np.zeros(0, dtype=np.int64)
        self._sums = np.zeros(0, dtype=np.float64)

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def region_rect(self, region: BinRegion) -> Rect:
        return Rect(
            self.bounds.xlo + region.ix0 * self.bin_w,
            self.bounds.ylo + region.iy0 * self.bin_h,
            self.bounds.xlo + region.ix1 * self.bin_w,
            self.bounds.ylo + region.iy1 * self.bin_h,
        )

    def capacity_sums(self, regions: np.ndarray) -> np.ndarray:
        """``capacity[ix0:ix1, iy0:iy1].sum()`` per ``(ix0, iy0, ix1, iy1)`` row.

        The sums depend on the grid alone, so each region's is taken once,
        by numpy itself, and memoized; the memo keeps at most
        ``MEMO_PER_BIN`` regions per bin and starts over when it would
        hold more.
        """
        span_x, span_y = self.nx + 1, self.ny + 1
        key = (((regions[:, 0] * span_y + regions[:, 1]) * span_x
                + regions[:, 2]) * span_y + regions[:, 3])
        at = np.searchsorted(self._sum_keys, key)
        found = at < self._sum_keys.shape[0]
        found[found] = self._sum_keys[at[found]] == key[found]
        out = np.empty(key.shape[0], dtype=np.float64)
        out[found] = self._sums[at[found]]
        if found.all():
            return out
        miss = ~found
        new_keys, first, inverse = np.unique(
            key[miss], return_index=True, return_inverse=True)
        new_sums = np.array(
            [self.capacity[ix0:ix1, iy0:iy1].sum()
             for ix0, iy0, ix1, iy1 in regions[miss][first].tolist()],
            dtype=np.float64)
        out[miss] = new_sums[inverse]
        limit = self.MEMO_PER_BIN * self.nx * self.ny
        if new_keys.shape[0] > limit:
            pass  # more new regions than the memo holds: keep it as is
        elif self._sum_keys.shape[0] + new_keys.shape[0] > limit:
            self._sum_keys, self._sums = new_keys, new_sums
        else:
            keys = np.concatenate((self._sum_keys, new_keys))
            order = np.argsort(keys)
            self._sum_keys = keys[order]
            self._sums = np.concatenate((self._sums, new_sums))[order]
        return out

    def bin_of(self, x: float, y: float) -> tuple[int, int]:
        ix = int((x - self.bounds.xlo) / self.bin_w)
        iy = int((y - self.bounds.ylo) / self.bin_h)
        return (
            min(max(ix, 0), self.nx - 1),
            min(max(iy, 0), self.ny - 1),
        )

    # ------------------------------------------------------------------
    # rasterization
    # ------------------------------------------------------------------
    def _rasterize(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
    ) -> np.ndarray:
        """Exact area overlap of rectangles (centers x,y) with each bin."""
        if x.shape[0] == 0:
            return np.zeros((self.nx, self.ny), dtype=np.float64)
        xlo = np.clip(x - 0.5 * w, self.bounds.xlo, self.bounds.xhi)
        xhi = np.clip(x + 0.5 * w, self.bounds.xlo, self.bounds.xhi)
        ylo = np.clip(y - 0.5 * h, self.bounds.ylo, self.bounds.yhi)
        yhi = np.clip(y + 0.5 * h, self.bounds.ylo, self.bounds.yhi)
        ix0 = np.clip(((xlo - self.bounds.xlo) / self.bin_w).astype(np.int64), 0, self.nx - 1)
        ix1 = np.clip(((xhi - self.bounds.xlo) / self.bin_w).astype(np.int64), 0, self.nx - 1)
        iy0 = np.clip(((ylo - self.bounds.ylo) / self.bin_h).astype(np.int64), 0, self.ny - 1)
        iy1 = np.clip(((yhi - self.bounds.ylo) / self.bin_h).astype(np.int64), 0, self.ny - 1)

        spans_x = ix1 - ix0
        spans_y = iy1 - iy0
        small = (spans_x <= 1) & (spans_y <= 1)

        # Cells covering at most a 2x2 bin window, fully vectorized over
        # the four candidate bins.  Every overlap goes through one
        # concatenated bincount, which adds into each bin in element
        # order: the four window passes, then the big rectangles.
        flat_bins: list[np.ndarray] = []
        flat_area: list[np.ndarray] = []
        if small.any():
            s = np.flatnonzero(small)
            for dx in (0, 1):
                for dy in (0, 1):
                    bx = np.minimum(ix0[s] + dx, self.nx - 1)
                    by = np.minimum(iy0[s] + dy, self.ny - 1)
                    bin_xlo = self.bounds.xlo + bx * self.bin_w
                    bin_ylo = self.bounds.ylo + by * self.bin_h
                    ox = np.minimum(xhi[s], bin_xlo + self.bin_w) - np.maximum(xlo[s], bin_xlo)
                    oy = np.minimum(yhi[s], bin_ylo + self.bin_h) - np.maximum(ylo[s], bin_ylo)
                    area = np.clip(ox, 0.0, None) * np.clip(oy, 0.0, None)
                    # Skip double counting when the window degenerates.
                    if dx == 1:
                        area = np.where(ix1[s] > ix0[s], area, 0.0)
                    if dy == 1:
                        area = np.where(iy1[s] > iy0[s], area, 0.0)
                    flat_bins.append(bx * self.ny + by)
                    flat_area.append(area)

        # Rectangles over more than a 2x2 window (macros): every bin of
        # each one's window, cell-major, so a bin shared by several
        # receives their overlaps in cell order.
        if not small.all():
            big = np.flatnonzero(~small)
            cols = spans_y[big] + 1
            count = (spans_x[big] + 1) * cols
            owner = np.repeat(big, count)
            t = (np.arange(int(count.sum()), dtype=np.int64)
                 - np.repeat(np.cumsum(count) - count, count))
            per = np.repeat(cols, count)
            gx = ix0[owner] + t // per
            gy = iy0[owner] + t % per
            bx0 = self.bounds.xlo + gx * self.bin_w
            by0 = self.bounds.ylo + gy * self.bin_h
            ox = np.minimum(xhi[owner], bx0 + self.bin_w) - np.maximum(xlo[owner], bx0)
            oy = np.minimum(yhi[owner], by0 + self.bin_h) - np.maximum(ylo[owner], by0)
            flat_bins.append(gx * self.ny + gy)
            flat_area.append(np.clip(ox, 0, None) * np.clip(oy, 0, None))
        return np.bincount(
            np.concatenate(flat_bins),
            weights=np.concatenate(flat_area),
            minlength=self.nx * self.ny,
        ).reshape(self.nx, self.ny)

    def _compute_capacity(self) -> np.ndarray:
        nl = self.netlist
        fixed = ~nl.movable & (nl.areas > 0)
        obstacle = self._rasterize(
            nl.fixed_x[fixed], nl.fixed_y[fixed],
            nl.widths[fixed], nl.heights[fixed],
        )
        bin_area = self.bin_w * self.bin_h
        return np.clip(bin_area - obstacle, 0.0, None)

    def usage(
        self,
        placement: Placement,
        extra: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Movable-area demand per bin.

        ``extra`` optionally substitutes alternative rectangles (used by
        macro shredding): a tuple of (x, y, w, h) arrays replacing the
        movable cells entirely.
        """
        if extra is not None:
            return self._rasterize(*extra)
        nl = self.netlist
        mov = nl.movable
        return self._rasterize(
            placement.x[mov], placement.y[mov],
            nl.widths[mov], nl.heights[mov],
        )

    # ------------------------------------------------------------------
    # overflow metrics
    # ------------------------------------------------------------------
    def overflow_per_bin(self, usage: np.ndarray, gamma: float) -> np.ndarray:
        """``max(0, usage - gamma*capacity)`` for every bin."""
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        return np.clip(usage - gamma * self.capacity, 0.0, None)

    def total_overflow(self, usage: np.ndarray, gamma: float) -> float:
        return float(self.overflow_per_bin(usage, gamma).sum())

    def overflow_percent(self, usage: np.ndarray, gamma: float) -> float:
        """Total overflow as a percentage of total movable area.

        This is the "overflow penalty" reported in parentheses in Table 2
        of the paper (our reconstruction of the ISPD 2006 contest metric).
        """
        movable_area = float(self.netlist.areas[self.netlist.movable].sum())
        if movable_area <= 0:
            return 0.0
        return 100.0 * self.total_overflow(usage, gamma) / movable_area

    def overfilled_bins(self, usage: np.ndarray, gamma: float) -> np.ndarray:
        """Boolean (nx, ny) mask of bins above the density target."""
        tol = 1e-9 * self.bin_w * self.bin_h
        return usage > gamma * self.capacity + tol

    def utilization(self, usage: np.ndarray, gamma: float) -> np.ndarray:
        """Per-bin ``usage / (gamma * capacity)`` (0 where capacity is 0).

        1.0 marks a bin exactly at the density target; the health probes
        snapshot the maximum and the top-k mean of this matrix every
        projection call.
        """
        target = gamma * self.capacity
        out = np.zeros_like(usage)
        np.divide(usage, target, out=out, where=target > 0)
        return out


def default_grid_shape(num_movable: int, cells_per_bin: float = 4.0) -> int:
    """Square grid dimension so each bin holds ~``cells_per_bin`` cells."""
    n = max(1, int(np.sqrt(max(num_movable, 1) / cells_per_bin)))
    return max(2, n)
