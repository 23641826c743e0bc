"""Detailed placement optimization passes (FastPlace-DP substitute).

Implements the published FastPlace-DP techniques [Pan, Viswanathan, Chu,
ICCAD 2005] on our row structure:

* **global swap** — move each cell toward its optimal (median) region by
  swapping with a cell there or sliding into free space,
* **local reordering** — exhaust permutations of small windows of
  consecutive cells within a segment,
* **single-row shifting** — with the order fixed, slide each cell to the
  HPWL-optimal position inside its gap (one left-to-right sweep plus one
  right-to-left sweep per pass).

All passes preserve legality exactly: cells only ever occupy intervals
their segment gaps allow.  They read positions and widths from the
evaluator's and row structure's Python lists, which hold the same values
as the numpy arrays at a fraction of the indexing cost.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from ..netlist import Netlist
from .incremental import HPWLDelta
from .structure import RowStructure


def row_shift_pass(nl: Netlist, state: HPWLDelta, rows: RowStructure) -> int:
    """Slide cells to their optimal in-gap position; returns #moves."""
    x, y, widths = state.xs, state.ys, rows.widths
    moves = 0
    for _, segment, cells in rows.iter_segments():
        for sweep in (cells, list(reversed(cells))):
            for cell in sweep:
                lo, hi = rows.gap_bounds(cell, x)
                half = 0.5 * widths[cell]
                lo, hi = lo + half, hi - half
                if hi < lo:
                    continue
                xlo, xhi, _, _ = state.optimal_region(cell)
                target = min(max(0.5 * (xlo + xhi), lo), hi)
                if abs(target - x[cell]) < 1e-9:
                    continue
                delta = state.move_cost_delta([cell], [target], [y[cell]])
                if delta < -1e-12:
                    state.commit_move([cell], [target], [y[cell]])
                    moves += 1
    return moves


def local_reorder_pass(
    nl: Netlist, state: HPWLDelta, rows: RowStructure, window: int = 3
) -> int:
    """Try permutations of ``window`` consecutive cells; returns #moves."""
    x, y, width = state.xs, state.ys, rows.widths
    identity = tuple(range(window))
    moves = 0
    for key, segment, cells in rows.iter_segments():
        for start in range(len(cells) - window + 1):
            group = cells[start:start + window]
            widths = [width[c] for c in group]
            # The span available to the group.
            left = (
                x[cells[start - 1]] + 0.5 * width[cells[start - 1]]
                if start > 0 else segment.lo
            )
            right = (
                x[cells[start + window]] - 0.5 * width[cells[start + window]]
                if start + window < len(cells) else segment.hi
            )
            total = 0.0  # left to right: sum() compensates from Python 3.12
            for w in widths:
                total += w
            if right - left < total - 1e-9:
                continue
            base_edge = x[group[0]] - 0.5 * widths[0]
            best_perm = None
            best_delta = -1e-12
            for perm in permutations(identity):
                if perm == identity:
                    continue
                # Pack the permuted cells from the leftmost original edge.
                xs = []
                cursor = base_edge
                for j in perm:
                    xs.append(cursor + 0.5 * widths[j])
                    cursor += widths[j]
                if cursor > right + 1e-9:
                    continue
                moved = [group[j] for j in perm]
                delta = state.move_cost_delta(moved, xs, [y[c] for c in moved])
                if delta < best_delta:
                    best_delta = delta
                    best_perm = (moved, xs)
            if best_perm is not None:
                moved, xs = best_perm
                state.commit_move(moved, xs, [y[c] for c in moved])
                rows.reorder(key, start, moved)
                moves += 1
    return moves


def global_swap_pass(
    nl: Netlist, state: HPWLDelta, rows: RowStructure,
    max_candidates: int = 8,
) -> int:
    """Move cells toward their optimal regions; returns #moves.

    For each cell whose optimal region lies away from its position, try
    (a) swapping with a near-optimal-region cell of compatible width and
    (b) sliding into the free gap nearest the region, keeping whichever
    candidate improves HPWL most.
    """
    x, y, widths = state.xs, state.ys, rows.widths
    moves = 0
    order = sorted(rows.position, key=lambda c: -widths[c])
    for cell in order:
        xlo, xhi, ylo, yhi = state.optimal_region(cell)
        ox = min(max(x[cell], xlo), xhi)
        oy = min(max(y[cell], ylo), yhi)
        if abs(ox - x[cell]) + abs(oy - y[cell]) < 1e-9:
            continue  # already inside its optimal region
        tx = 0.5 * (xlo + xhi)
        ty = 0.5 * (ylo + yhi)
        target_row = rows.rowmap.row_index(ty)

        best = None  # (delta, kind, payload)
        # Candidate (a): swap with cells near the target in that row.
        for row in (target_row, rows.position[cell][0]):
            for seg_idx in range(len(rows.rowmap.segments[row])):
                others = rows.cells.get((row, seg_idx))
                if not others:
                    continue
                # np.argsort's own order among equally near cells decides
                # which of them is tried first.
                near = np.argsort(np.abs(state.x[others] - tx))
                for j in near[:max_candidates].tolist():
                    other = others[j]
                    if other == cell:
                        continue
                    delta = _try_swap(nl, state, rows, cell, other)
                    if delta is not None and (best is None or delta < best[0]):
                        best = (delta, "swap", other)
        # Candidate (b): slide within the current gap toward the target.
        lo, hi = rows.gap_bounds(cell, x)
        half = 0.5 * widths[cell]
        if hi - lo >= widths[cell] - 1e-9:
            slide_x = min(max(tx, lo + half), hi - half)
            delta = state.move_cost_delta([cell], [slide_x], [y[cell]])
            if best is None or delta < best[0]:
                best = (delta, "slide", slide_x)

        if best is None or best[0] >= -1e-12:
            continue
        delta, kind, payload = best
        if kind == "slide":
            state.commit_move([cell], [payload], [y[cell]])
        else:
            _commit_swap(nl, state, rows, cell, payload)
        moves += 1
    return moves


def _swap_positions(
    nl: Netlist, state: HPWLDelta, rows: RowStructure, a: int, b: int
) -> tuple[list[float], list[float]] | None:
    """Positions after swapping a and b, or None when either misfits."""
    x = state.xs
    lo_a, hi_a = rows.gap_bounds(a, x)
    lo_b, hi_b = rows.gap_bounds(b, x)
    wa, wb = rows.widths[a], rows.widths[b]
    # b goes into a's slot and vice versa; each clamped into the gap the
    # *other* cell leaves behind (gap bounds exclude the moving pair).
    if hi_a - lo_a < wb - 1e-9 or hi_b - lo_b < wa - 1e-9:
        return None
    xb = min(max(x[a], lo_a + 0.5 * wb), hi_a - 0.5 * wb)
    xa = min(max(x[b], lo_b + 0.5 * wa), hi_b - 0.5 * wa)
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
