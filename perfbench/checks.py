"""Output checks, computed from the benchmark's own design data.

Nothing here imports ``repro``: HPWL, legality and the ISPD-2006
overflow penalty are recomputed from :class:`~design.Design`, so a fault
in the program's own metrics cannot hide a fault in its placements.
Every check raises :class:`CheckFailure` with a message naming what broke.
"""

from __future__ import annotations

import math

import numpy as np

from design import Design

__all__ = [
    "CheckFailure",
    "check_history",
    "check_job",
    "check_legal",
    "check_overflow",
    "check_reported_hpwl",
    "check_winner",
    "hpwl",
    "scaled_hpwl",
]

#: Coordinates are compared to rows, sites and the core edge within this.
TOL = 1e-6

#: ISPD-2006 contest rule: overflow is measured on square bins this many
#: rows on a side.
BIN_ROWS = 10


class CheckFailure(AssertionError):
    """An output the program produced is wrong (the message says how)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def hpwl(design: Design, x: np.ndarray, y: np.ndarray) -> float:
    """Total half-perimeter wirelength (all net weights are 1)."""
    px = x[design.pin_cell] + design.pin_dx
    py = y[design.pin_cell] + design.pin_dy
    starts = design.net_start[:-1]
    return float((np.maximum.reduceat(px, starts)
                  - np.minimum.reduceat(px, starts)).sum()
                 + (np.maximum.reduceat(py, starts)
                    - np.minimum.reduceat(py, starts)).sum())


def _overlap(lo: np.ndarray, hi: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Length of each interval [lo, hi) inside each bin: (cells, bins)."""
    return np.clip(np.minimum(hi[:, None], edges[None, 1:])
                   - np.maximum(lo[:, None], edges[None, :-1]), 0.0, None)


def scaled_hpwl(design: Design, x: np.ndarray, y: np.ndarray,
                gamma: float) -> tuple[float, float]:
    """``(scaled HPWL, overflow %)`` under the ISPD-2006 rule.

    Movable area above ``gamma`` times each bin's free area (its area
    less that of fixed cells) counts as overflow; the total, as a share
    of the movable area, adds that many percent of HPWL.
    """
    size = BIN_ROWS * 1.0
    nbins = max(int(math.ceil(design.side / size)), 1)
    edges = np.minimum(np.arange(nbins + 1) * size, float(design.side))

    def usage(cells: np.ndarray) -> np.ndarray:
        """Area of ``cells`` in each bin, (ybins, xbins)."""
        w, h = design.widths[cells], design.heights[cells]
        ox = _overlap(x[cells] - 0.5 * w, x[cells] + 0.5 * w, edges)
        oy = _overlap(y[cells] - 0.5 * h, y[cells] + 0.5 * h, edges)
        return oy.T @ ox

    cells = np.flatnonzero(design.movable)
    area = np.diff(edges)[:, None] * np.diff(edges)[None, :]
    capacity = gamma * (area - usage(np.flatnonzero(~design.movable)))
    overflow = float(np.clip(usage(cells) - capacity, 0.0, None).sum())
    percent = 100.0 * overflow / float(
        (design.widths[cells] * design.heights[cells]).sum())
    wirelength = hpwl(design, x, y)
    return wirelength * (1.0 + 0.01 * percent), percent


def check_overflow(percent: float) -> None:
    """The program's scaled HPWL, HPWL * (1 + overflow / 100), must be at
    least its HPWL: the overflow it reports is a percentage >= 0."""
    _require(math.isfinite(percent) and percent >= 0.0,
             f"reported overflow {percent!r}% makes scaled HPWL < HPWL")


def check_reported_hpwl(reported: float, recomputed: float,
                        abs_tol: float = 0.0, rel_tol: float = 1e-9) -> None:
    """The program's HPWL must equal the recomputation (``abs_tol``
    covers a value the program printed rounded)."""
    _require(abs(reported - recomputed) <= abs_tol + rel_tol * abs(recomputed),
             f"reported HPWL {reported!r} != recomputed {recomputed!r}")


def check_legal(design: Design, x: np.ndarray, y: np.ndarray,
                on_sites: bool) -> None:
    """In rows, inside the core, no overlaps, fixed cells unmoved and,
    with ``on_sites``, standard cells on sites."""
    _require(bool(np.isfinite(x).all() and np.isfinite(y).all()),
             "placement has non-finite coordinates")
    fixed = ~design.movable
    _none(design, fixed & ((x != design.x) | (y != design.y)), "moved")
    mov = design.movable
    llx = x - 0.5 * design.widths
    lly = y - 0.5 * design.heights
    urx = llx + design.widths
    ury = lly + design.heights
    _none(design, mov & ((llx < -TOL) | (lly < -TOL)
                         | (urx > design.side + TOL)
                         | (ury > design.side + TOL)),
          "lies outside the core")
    _none(design, mov & (np.abs(lly - np.round(lly)) > TOL),
          "is off its row")
    std = mov & ~design.is_macro
    if on_sites:
        _none(design, std & (np.abs(llx - np.round(llx)) > TOL),
              "is off its site grid")

    # Standard cells: consecutive cells of a row must not overlap.
    cells = np.flatnonzero(std)
    row = np.round(lly[cells]).astype(np.int64)
    order = cells[np.lexsort((llx[cells], row))]
    same_row = np.round(lly[order[1:]]) == np.round(lly[order[:-1]])
    clash = same_row & (llx[order[1:]] < urx[order[:-1]] - TOL)
    if clash.any():
        k = int(np.flatnonzero(clash)[0])
        raise CheckFailure(f"cells {design.names[order[k]]} and "
                           f"{design.names[order[k + 1]]} overlap")
    # Macros, fixed ones too, against every movable cell with area.
    solid = np.flatnonzero(mov & (design.widths > 0))
    for m in np.flatnonzero(design.is_macro):
        others = solid[solid != m]
        ox = np.minimum(urx[others], urx[m]) - np.maximum(llx[others], llx[m])
        oy = np.minimum(ury[others], ury[m]) - np.maximum(lly[others], lly[m])
        hit = others[(ox > TOL) & (oy > TOL)]
        if hit.size:
            raise CheckFailure(f"macro {design.names[m]} overlaps "
                               f"{design.names[hit[0]]}")


def _none(design: Design, mask: np.ndarray, what: str) -> None:
    if mask.any():
        name = design.names[int(np.flatnonzero(mask)[0])]
        raise CheckFailure(f"cell {name} {what}")


def check_history(phi_lower, phi_upper, lam, where: str) -> int:
    """Formula 7 (Phi_lower <= Phi_upper) at every iteration and
    Formula 12 (lambda_{k+1} <= 2 lambda_k); returns the iteration count."""
    lower = np.asarray(phi_lower, dtype=np.float64)
    upper = np.asarray(phi_upper, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    _require(lower.size > 0 and lower.size == upper.size == lam.size,
             f"{where}: history is empty or ragged")
    broken = np.flatnonzero(lower > upper)
    if broken.size:
        raise CheckFailure(f"{where}: Phi_lower > Phi_upper at iteration "
                           f"{int(broken[0]) + 1}")
    jump = np.flatnonzero(lam[1:] > 2.0 * lam[:-1] * (1.0 + 1e-12))
    if jump.size:
        raise CheckFailure(f"{where}: lambda grew more than 2x at "
                           f"iteration {int(jump[0]) + 2}")
    return int(lower.size)


def check_job(job: dict) -> None:
    """A serve job must succeed on its first attempt at tier ``full``
    (a degraded tier changes the placement)."""
    _require(job["state"] == "succeeded",
             f"job {job['job_id']} ended {job['state']}")
    _require(job["attempts"] == 1 and job["tier"] == "full",
             f"job {job['job_id']} took {job['attempts']} attempt(s) at "
             f"tier {job['tier']!r}")


def check_winner(winner: str | None, status: str | None,
                 killed: set[str]) -> None:
    """A race winner must be a variant that finished without a kill."""
    _require(winner is not None and status == "finished"
             and winner not in killed,
             f"race winner {winner!r} ({status}) did not finish unkilled")
