"""Row/segment bookkeeping for detailed placement.

Detailed placement operates on a *legal* placement: every standard cell
sits in a row segment, ordered by x.  :class:`RowStructure` tracks that
order so passes can query the free gap around a cell and keep legality
while moving cells.
"""

from __future__ import annotations

import numpy as np

from ..legalize.macros import macro_obstacles
from ..legalize.rows import RowMap
from ..netlist import Netlist, Placement


class RowStructure:
    """Ordered cells per (row, segment) of a legal placement."""

    def __init__(self, netlist: Netlist, placement: Placement):
        self.netlist = netlist
        # Site-aligned segments, the ones the final site snap uses: a
        # segment cut at an off-grid macro edge would let the passes
        # fill a sub-site sliver the snap then cannot keep.
        self.rowmap = RowMap(
            netlist, extra_obstacles=macro_obstacles(netlist, placement),
            site_align=True,
        )
        #: cells[(row, seg)] -> list of cell indices ordered by x
        self.cells: dict[tuple[int, int], list[int]] = {}
        #: position[cell] -> (row, seg)
        self.position: dict[int, tuple[int, int]] = {}
        #: slot[cell] -> index of the cell in its segment's list
        self.slot: dict[int, int] = {}
        #: cell widths as a Python list (cheaper to index in the passes)
        self.widths: list[float] = netlist.widths.tolist()
        self._row_center = [self.rowmap.row_center_y(r)
                            for r in range(self.rowmap.num_rows)]

        std = np.flatnonzero(netlist.movable & ~netlist.is_macro)
        order = std[np.argsort(placement.x[std], kind="stable")]
        for cell in order:
            row = self.rowmap.row_index(placement.y[cell])
            seg = self._segment_of(row, placement.x[cell])
            if seg is None:
                # A cell outside every free segment (slightly illegal
                # input); drop it into the nearest segment.
                seg = self._nearest_segment(row, placement.x[cell])
            key = (row, seg)
            members = self.cells.setdefault(key, [])
            self.slot[int(cell)] = len(members)
            members.append(int(cell))
            self.position[int(cell)] = key

    def _segment_of(self, row: int, x: float) -> int | None:
        for s, seg in enumerate(self.rowmap.segments[row]):
            if seg.lo - 1e-6 <= x <= seg.hi + 1e-6:
                return s
        return None

    def _nearest_segment(self, row: int, x: float) -> int:
        segs = self.rowmap.segments[row]
        if not segs:
            raise ValueError(f"row {row} has no free segments")
        dists = [max(seg.lo - x, x - seg.hi, 0.0) for seg in segs]
        return int(np.argmin(dists))

    def gap_bounds(
        self, cell: int, x
    ) -> tuple[float, float]:
        """Free interval available to ``cell``'s *left/right edges* given
        its neighbors' current positions ``x`` (any indexable)."""
        widths = self.widths
        row, seg = self.position[cell]
        segment = self.rowmap.segments[row][seg]
        order = self.cells[(row, seg)]
        i = self.slot[cell]
        lo = segment.lo
        if i > 0:
            left = order[i - 1]
            lo = x[left] + 0.5 * widths[left]
        hi = segment.hi
        if i + 1 < len(order):
            right = order[i + 1]
            hi = x[right] - 0.5 * widths[right]
        return lo, hi

    def swap_cells(self, a: int, b: int) -> None:
        """Exchange two cells' slots across segments.

        Same-segment swaps are order changes, not slot swaps; they are
        the job of local reordering and rejected here.
        """
        key_a, key_b = self.position[a], self.position[b]
        if key_a == key_b:
            raise ValueError("same-segment swaps must go through reordering")
        ia, ib = self.slot[a], self.slot[b]
        self.cells[key_a][ia] = b
        self.cells[key_b][ib] = a
        self.position[a], self.position[b] = key_b, key_a
        self.slot[a], self.slot[b] = ib, ia

    def reorder(self, key: tuple[int, int], start: int,
                cells: list[int]) -> None:
        """Put ``cells`` in slots ``start``.. of segment ``key``."""
        self.cells[key][start:start + len(cells)] = cells
        for i, cell in enumerate(cells, start):
            self.slot[cell] = i

    def row_y(self, cell: int) -> float:
        return self._row_center[self.position[cell][0]]

    def iter_segments(self):
        """Yields ((row, seg), segment, ordered cell list)."""
        for (row, seg), cells in self.cells.items():
            yield (row, seg), self.rowmap.segments[row][seg], cells
