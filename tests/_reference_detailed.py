"""Reference detailed placement: the evaluator and passes as first written.

The oracle for ``tests/test_detailed_oracle.py``, the role
``_reference_assemble`` plays for the assembly cache.  ``RefHPWLDelta``
recomputes every touched net with numpy reductions, ``RefRowStructure``
finds a cell's slot by scanning its segment, and the three passes build
their candidate arrays element by element.  The optimized
``repro.detailed`` must run exactly the same trials, commit exactly the
same moves and return the same bytes.

The one deliberate difference from the first version is the segment
map: ``RefRowStructure`` builds its ``RowMap`` with ``site_align=True``
like ``repro.detailed.RowStructure``, so a movable macro off the site
grid cannot leave a cell in a sub-site sliver.  That fix changes
placements on such designs and is tested on its own in
``tests/test_detailed.py``; here both sides use the same segments.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.detailed import DetailedPlacementReport
from repro.legalize import abacus_legalize
from repro.legalize.macros import macro_obstacles
from repro.legalize.rows import RowMap, snap_placement_to_sites
from repro.netlist import Netlist, Placement
from repro.netlist.validate import check_legal


class RefHPWLDelta:
    """Mutable placement wrapper with O(local) HPWL move evaluation."""

    def __init__(self, netlist: Netlist, placement: Placement):
        self.netlist = netlist
        self.x = placement.x.copy()
        self.y = placement.y.copy()
        self._net_of_pin = netlist.pin_net_ids()
        start, order = netlist._build_cell_pins()
        self._cell_pin_start = start
        self._cell_pin_order = order
        self._bbox = self._full_bboxes()
        self._weights = netlist.net_weights
        # Per-net pin data as plain Python lists: nets are tiny, and
        # recomputing a bbox with builtin min/max over a short list is
        # an order of magnitude faster than numpy reductions on 3-element
        # arrays (this is the hot path of every move evaluation).
        self._net_pins_py: list[tuple[list[int], list[float], list[float]]] = []
        for e in range(netlist.num_nets):
            span = netlist.net_pins(e)
            self._net_pins_py.append((
                [int(c) for c in netlist.pin_cell[span]],
                [float(v) for v in netlist.pin_dx[span]],
                [float(v) for v in netlist.pin_dy[span]],
            ))

    def _full_bboxes(self) -> np.ndarray:
        nl = self.netlist
        px = self.x[nl.pin_cell] + nl.pin_dx
        py = self.y[nl.pin_cell] + nl.pin_dy
        starts = nl.net_start[:-1]
        bbox = np.empty((nl.num_nets, 4))
        bbox[:, 0] = np.minimum.reduceat(px, starts)
        bbox[:, 1] = np.maximum.reduceat(px, starts)
        bbox[:, 2] = np.minimum.reduceat(py, starts)
        bbox[:, 3] = np.maximum.reduceat(py, starts)
        return bbox

    def placement(self) -> Placement:
        return Placement(self.x.copy(), self.y.copy())

    def total_hpwl(self) -> float:
        spans = (self._bbox[:, 1] - self._bbox[:, 0]) + (self._bbox[:, 3] - self._bbox[:, 2])
        return float((spans * self._weights).sum())

    def nets_of_cells(self, cells: list[int]) -> np.ndarray:
        """Unique nets incident to the given cells."""
        pins = np.concatenate([
            self._cell_pin_order[
                self._cell_pin_start[c]:self._cell_pin_start[c + 1]
            ]
            for c in cells
        ]) if cells else np.zeros(0, dtype=np.int64)
        return np.unique(self._net_of_pin[pins])

    def _net_bbox(self, net: int) -> tuple[float, float, float, float]:
        cells, dxs, dys = self._net_pins_py[net]
        x = self.x
        y = self.y
        px = [x[c] + d for c, d in zip(cells, dxs)]
        py = [y[c] + d for c, d in zip(cells, dys)]
        return min(px), max(px), min(py), max(py)

    def nets_cost(self, nets: np.ndarray) -> float:
        """Current weighted HPWL of a set of nets."""
        b = self._bbox[nets]
        spans = (b[:, 1] - b[:, 0]) + (b[:, 3] - b[:, 2])
        return float((spans * self._weights[nets]).sum())

    def move_cost_delta(
        self,
        cells: list[int],
        new_x: list[float],
        new_y: list[float],
    ) -> float:
        """Weighted HPWL change if the cells moved to the new positions.

        Positive means the move makes things worse.  Does not mutate.
        """
        nets = self.nets_of_cells(cells)
        before = self.nets_cost(nets)
        old = [(self.x[c], self.y[c]) for c in cells]
        for c, nx, ny in zip(cells, new_x, new_y):
            self.x[c], self.y[c] = nx, ny
        after = 0.0
        for net in nets:
            xlo, xhi, ylo, yhi = self._net_bbox(int(net))
            after += self._weights[net] * ((xhi - xlo) + (yhi - ylo))
        for c, (ox, oy) in zip(cells, old):
            self.x[c], self.y[c] = ox, oy
        return after - before

    def commit_move(
        self,
        cells: list[int],
        new_x: list[float],
        new_y: list[float],
    ) -> None:
        """Apply a move and refresh the affected net bounding boxes."""
        for c, nx, ny in zip(cells, new_x, new_y):
            self.x[c], self.y[c] = nx, ny
        for net in self.nets_of_cells(cells):
            self._bbox[net] = self._net_bbox(int(net))

    def optimal_region(self, cell: int) -> tuple[float, float, float, float]:
        """The median ("optimal") region of a cell [FastPlace-DP].

        For each incident net, the bounding box of its *other* pins gives
        an interval; the optimal x (y) range is the median interval of
        the stacked interval endpoints.
        """
        nets = self.nets_of_cells([cell])
        xs: list[float] = []
        ys: list[float] = []
        x = self.x
        y = self.y
        for net in nets:
            cells, dxs, dys = self._net_pins_py[int(net)]
            px = [x[c] + d for c, d in zip(cells, dxs) if c != cell]
            if not px:
                continue
            py = [y[c] + d for c, d in zip(cells, dys) if c != cell]
            xs.extend((min(px), max(px)))
            ys.extend((min(py), max(py)))
        if not xs:
            return (self.x[cell], self.x[cell], self.y[cell], self.y[cell])
        xs.sort()
        ys.sort()
        mid = len(xs) // 2
        if len(xs) % 2 == 0:
            return (xs[mid - 1], xs[mid], ys[mid - 1], ys[mid])
        return (xs[mid], xs[mid], ys[mid], ys[mid])


class RefRowStructure:
    """Ordered cells per (row, segment) of a legal placement."""

    def __init__(self, netlist: Netlist, placement: Placement):
        self.netlist = netlist
        self.rowmap = RowMap(
            netlist, extra_obstacles=macro_obstacles(netlist, placement),
            site_align=True,
        )
        #: cells[(row, seg)] -> list of cell indices ordered by x
        self.cells: dict[tuple[int, int], list[int]] = {}
        #: position[cell] -> (row, seg)
        self.position: dict[int, tuple[int, int]] = {}

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
            self.cells.setdefault(key, []).append(int(cell))
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

    def index_in_segment(self, cell: int) -> int:
        key = self.position[cell]
        return self.cells[key].index(cell)

    def gap_bounds(
        self, cell: int, x: np.ndarray
    ) -> tuple[float, float]:
        """Free interval available to ``cell``'s *left/right edges* given
        its neighbors' current positions."""
        nl = self.netlist
        row, seg = self.position[cell]
        segment = self.rowmap.segments[row][seg]
        order = self.cells[(row, seg)]
        i = order.index(cell)
        lo = segment.lo
        if i > 0:
            left = order[i - 1]
            lo = x[left] + 0.5 * nl.widths[left]
        hi = segment.hi
        if i + 1 < len(order):
            right = order[i + 1]
            hi = x[right] - 0.5 * nl.widths[right]
        return lo, hi

    def swap_cells(self, a: int, b: int) -> None:
        """Exchange two cells' slots across segments.

        Same-segment swaps are order changes, not slot swaps; they are
        the job of local reordering and rejected here.
        """
        key_a, key_b = self.position[a], self.position[b]
        if key_a == key_b:
            raise ValueError("same-segment swaps must go through reordering")
        ia = self.cells[key_a].index(a)
        ib = self.cells[key_b].index(b)
        self.cells[key_a][ia] = b
        self.cells[key_b][ib] = a
        self.position[a], self.position[b] = key_b, key_a

    def row_y(self, cell: int) -> float:
        return self.rowmap.row_center_y(self.position[cell][0])

    def iter_segments(self):
        """Yields ((row, seg), segment, ordered cell list)."""
        for (row, seg), cells in self.cells.items():
            yield (row, seg), self.rowmap.segments[row][seg], cells


def row_shift_pass(nl: Netlist, state: RefHPWLDelta,
                   rows: RefRowStructure) -> int:
    """Slide cells to their optimal in-gap position; returns #moves."""
    moves = 0
    for _, segment, cells in rows.iter_segments():
        for sweep in (cells, list(reversed(cells))):
            for cell in sweep:
                lo, hi = rows.gap_bounds(cell, state.x)
                half = 0.5 * nl.widths[cell]
                lo, hi = lo + half, hi - half
                if hi < lo:
                    continue
                xlo, xhi, _, _ = state.optimal_region(cell)
                target = min(max(0.5 * (xlo + xhi), lo), hi)
                if abs(target - state.x[cell]) < 1e-9:
                    continue
                delta = state.move_cost_delta(
                    [cell], [target], [state.y[cell]]
                )
                if delta < -1e-12:
                    state.commit_move([cell], [target], [state.y[cell]])
                    moves += 1
    return moves


def local_reorder_pass(
    nl: Netlist, state: RefHPWLDelta,
    rows: RefRowStructure, window: int = 3
) -> int:
    """Try permutations of ``window`` consecutive cells; returns #moves."""
    moves = 0
    for _, segment, cells in rows.iter_segments():
        for start in range(len(cells) - window + 1):
            group = cells[start:start + window]
            widths = [nl.widths[c] for c in group]
            # The span available to the group.
            left = (
                state.x[cells[start - 1]] + 0.5 * nl.widths[cells[start - 1]]
                if start > 0 else segment.lo
            )
            right = (
                state.x[cells[start + window]] - 0.5 * nl.widths[cells[start + window]]
                if start + window < len(cells) else segment.hi
            )
            if right - left < sum(widths) - 1e-9:
                continue
            base_edges = [state.x[c] - 0.5 * nl.widths[c] for c in group]
            best_perm = None
            best_delta = -1e-12
            for perm in permutations(range(window)):
                if perm == tuple(range(window)):
                    continue
                # Pack the permuted cells from the leftmost original edge.
                xs = []
                cursor = base_edges[0]
                for j in perm:
                    xs.append(cursor + 0.5 * widths[j])
                    cursor += widths[j]
                if cursor > right + 1e-9:
                    continue
                moved = [group[j] for j in perm]
                delta = state.move_cost_delta(
                    moved, xs, [state.y[c] for c in moved]
                )
                if delta < best_delta:
                    best_delta = delta
                    best_perm = (perm, moved, xs)
            if best_perm is not None:
                perm, moved, xs = best_perm
                state.commit_move(moved, xs, [state.y[c] for c in moved])
                cells[start:start + window] = moved
                moves += 1
    return moves


def global_swap_pass(
    nl: Netlist, state: RefHPWLDelta,
    rows: RefRowStructure,
    max_candidates: int = 8,
) -> int:
    """Move cells toward their optimal regions; returns #moves.

    For each cell whose optimal region lies away from its position, try
    (a) swapping with a near-optimal-region cell of compatible width and
    (b) sliding into the free gap nearest the region, keeping whichever
    candidate improves HPWL most.
    """
    moves = 0
    std = [c for c in rows.position]
    order = sorted(std, key=lambda c: -nl.widths[c])
    for cell in order:
        xlo, xhi, ylo, yhi = state.optimal_region(cell)
        ox = min(max(state.x[cell], xlo), xhi)
        oy = min(max(state.y[cell], ylo), yhi)
        if abs(ox - state.x[cell]) + abs(oy - state.y[cell]) < 1e-9:
            continue  # already inside its optimal region
        tx = 0.5 * (xlo + xhi)
        ty = 0.5 * (ylo + yhi)
        target_row = rows.rowmap.row_index(ty)

        best = None  # (delta, kind, payload)
        # Candidate (a): swap with cells near the target in that row.
        for row in (target_row, rows.position[cell][0]):
            for seg_idx, segment in enumerate(rows.rowmap.segments[row]):
                key = (row, seg_idx)
                others = rows.cells.get(key, [])
                if not others:
                    continue
                xs = np.array([state.x[c] for c in others])
                near = np.argsort(np.abs(xs - tx))[:max_candidates]
                for j in near:
                    other = others[int(j)]
                    if other == cell:
                        continue
                    delta = _try_swap(nl, state, rows, cell, other)
                    if delta is not None and (best is None or delta < best[0]):
                        best = (delta, "swap", other)
        # Candidate (b): slide within the current gap toward the target.
        lo, hi = rows.gap_bounds(cell, state.x)
        half = 0.5 * nl.widths[cell]
        if hi - lo >= nl.widths[cell] - 1e-9:
            slide_x = min(max(tx, lo + half), hi - half)
            delta = state.move_cost_delta(
                [cell], [slide_x], [state.y[cell]]
            )
            if best is None or delta < best[0]:
                best = (delta, "slide", slide_x)

        if best is None or best[0] >= -1e-12:
            continue
        delta, kind, payload = best
        if kind == "slide":
            state.commit_move([cell], [payload], [state.y[cell]])
        else:
            _commit_swap(nl, state, rows, cell, payload)
        moves += 1
    return moves


def _swap_positions(
    nl: Netlist, state: RefHPWLDelta,
    rows: RefRowStructure, a: int, b: int
) -> tuple[list[float], list[float]] | None:
    """Positions after swapping a and b, or None when either misfits."""
    lo_a, hi_a = rows.gap_bounds(a, state.x)
    lo_b, hi_b = rows.gap_bounds(b, state.x)
    wa, wb = nl.widths[a], nl.widths[b]
    # b goes into a's slot and vice versa; each clamped into the gap the
    # *other* cell leaves behind (gap bounds exclude the moving pair).
    if hi_a - lo_a < wb - 1e-9 or hi_b - lo_b < wa - 1e-9:
        return None
    xb = min(max(state.x[a], lo_a + 0.5 * wb), hi_a - 0.5 * wb)
    xa = min(max(state.x[b], lo_b + 0.5 * wa), hi_b - 0.5 * wa)
    ya, yb = rows.row_y(b), rows.row_y(a)
    return [xa, xb], [ya, yb]


def _try_swap(nl, state, rows, a: int, b: int) -> float | None:
    if rows.position[a] == rows.position[b]:
        # Same segment: adjacent-order swaps handled by local reorder.
        return None
    pos = _swap_positions(nl, state, rows, a, b)
    if pos is None:
        return None
    (xa, xb), (ya, yb) = pos
    return state.move_cost_delta([a, b], [xa, xb], [ya, yb])


def _commit_swap(nl, state, rows, a: int, b: int) -> None:
    pos = _swap_positions(nl, state, rows, a, b)
    if pos is None:  # pragma: no cover - guarded by _try_swap
        return
    (xa, xb), (ya, yb) = pos
    state.commit_move([a, b], [xa, xb], [ya, yb])
    rows.swap_cells(a, b)


def reference_place(nl: Netlist, placement: Placement, max_rounds: int = 3,
                    min_improvement: float = 0.001, reorder_window: int = 3,
                    skip_global_swap: bool = False, snap_sites: bool = True,
                    ) -> tuple[Placement, DetailedPlacementReport]:
    """``DetailedPlacer.place`` (default Abacus legalizer) on the
    reference evaluator, segments and passes."""
    if not check_legal(nl, placement, max_reported=1).legal:
        placement = abacus_legalize(nl, placement)
    state = RefHPWLDelta(nl, placement)
    rows = RefRowStructure(nl, placement)
    before = state.total_hpwl()
    total_moves = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        round_before = state.total_hpwl()
        moves = 0
        if not skip_global_swap:
            moves += global_swap_pass(nl, state, rows)
        moves += local_reorder_pass(nl, state, rows, window=reorder_window)
        moves += row_shift_pass(nl, state, rows)
        total_moves += moves
        round_after = state.total_hpwl()
        if moves == 0:
            break
        if round_before > 0 and \
                (round_before - round_after) / round_before < min_improvement:
            break
    result = state.placement()
    if snap_sites:
        rowmap = RowMap(nl, extra_obstacles=macro_obstacles(nl, result),
                        site_align=True)
        result = snap_placement_to_sites(nl, result, rowmap)
    after = RefHPWLDelta(nl, result).total_hpwl()
    return result, DetailedPlacementReport(
        hpwl_before=before, hpwl_after=after, rounds=rounds,
        moves=total_moves)
