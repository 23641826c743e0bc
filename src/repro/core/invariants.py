"""Stage-boundary invariant contracts for the ComPLx loop.

ComPLx's correctness rests on invariants that hold by construction but
were never mechanically enforced — a regression in the projection or
the multiplier schedule historically surfaced as silently worse HPWL.
This module turns them into runtime contracts, checked at every stage
boundary when ``ComPLxConfig.check_invariants`` is set (the default in
the test suite; benchmarks leave it off):

* **finite coordinates** — no NaN/inf anywhere, after every stage,
* **core containment** — movables stay inside the core after the
  projection and the primal step (both clamp, so an escape is a bug),
* **lambda monotonicity** — the multiplier schedule
  ``lambda_{k+1} = min(2 lambda_k, lambda_k + (Pi_{k+1}/Pi_k) h)`` is
  non-decreasing, and in the capped modes never grows past the cap,
* **Pi sanity and decay** — the violation measure is finite and
  non-negative, and must have decayed below its initial value once the
  run is past a grace budget (a stuck Pi means the projection or the
  anchors are broken),
* **density feasibility of P_C** — the look-ahead-legalized rectangle
  view may exceed a bin's target capacity by at most a bounded excess
  (the projection is approximate at leaf granularity; the bound is
  calibrated with ~2x margin over the observed worst case and catches
  catastrophic regressions such as spreading silently not running),
* **legality after legalization** — :func:`repro.netlist.check_legal`
  must come back clean when a legalizer is asked to certify its output.

Violations raise :class:`InvariantViolation`, which names the stage,
the iteration and the offending cell indices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..netlist import Netlist, Placement
from ..netlist.validate import check_legal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..projection.grid import DensityGrid

__all__ = [
    "InvariantSuite",
    "InvariantViolation",
    "assert_legal",
    "check_finite",
    "check_inside_core",
    "check_lambda_step",
    "check_pi_value",
    "check_view_density",
]


class InvariantViolation(AssertionError):
    """A stage-boundary contract was broken.

    Parameters
    ----------
    stage:
        Pipeline stage name (``"initialization"``, ``"projection"``,
        ``"lambda"``, ``"primal"``, ``"legalization"``).
    message:
        Human-readable description of the broken contract.
    iteration:
        Global placement iteration (None outside the loop).
    cell_indices:
        Offending cell indices, truncated by the caller to a reviewable
        number.
    details:
        Free-form diagnostic values (measured vs. allowed, etc.).
    """

    def __init__(
        self,
        stage: str,
        message: str,
        iteration: int | None = None,
        cell_indices: list[int] | None = None,
        details: dict | None = None,
    ) -> None:
        self.stage = stage
        self.iteration = iteration
        self.cell_indices = list(cell_indices or [])
        self.details = dict(details or {})
        where = f"stage {stage!r}"
        if iteration is not None:
            where += f", iteration {iteration}"
        text = f"[{where}] {message}"
        if self.cell_indices:
            text += f" (cells: {self.cell_indices})"
        if self.details:
            extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
            text += f" [{extras}]"
        super().__init__(text)


_MAX_REPORTED_CELLS = 20


def _offenders(mask: np.ndarray) -> list[int]:
    # Bounded to _MAX_REPORTED_CELLS items; not a hot loop.
    return [int(i) for i in np.flatnonzero(mask)[:_MAX_REPORTED_CELLS]]  # statcheck: ignore[R2]


def check_finite(
    netlist: Netlist,
    placement: Placement,
    stage: str,
    iteration: int | None = None,
) -> None:
    """Every coordinate (movable and fixed alike) must be finite."""
    bad = ~(np.isfinite(placement.x) & np.isfinite(placement.y))
    if bad.any():
        raise InvariantViolation(
            stage, "non-finite coordinates", iteration=iteration,
            cell_indices=_offenders(bad),
            details={"count": int(bad.sum())},
        )


def check_inside_core(
    netlist: Netlist,
    placement: Placement,
    stage: str,
    iteration: int | None = None,
    tol: float | None = None,
) -> None:
    """Movable cells must lie entirely inside the core bounds."""
    bounds = netlist.core.bounds
    if tol is None:
        tol = 1e-9 * max(bounds.width, bounds.height)
    half_w = 0.5 * netlist.widths
    half_h = 0.5 * netlist.heights
    outside = netlist.movable & (
        (placement.x - half_w < bounds.xlo - tol)
        | (placement.x + half_w > bounds.xhi + tol)
        | (placement.y - half_h < bounds.ylo - tol)
        | (placement.y + half_h > bounds.yhi + tol)
    )
    if outside.any():
        raise InvariantViolation(
            stage, "movable cells outside the core", iteration=iteration,
            cell_indices=_offenders(outside),
            details={"count": int(outside.sum())},
        )


def check_pi_value(
    pi: float,
    stage: str,
    iteration: int | None = None,
) -> None:
    """Pi is an L1 distance: it must be finite and non-negative."""
    if not np.isfinite(pi) or pi < 0:
        raise InvariantViolation(
            stage, f"invalid violation measure Pi={pi!r}",
            iteration=iteration,
        )


def check_lambda_step(
    prev_lam: float,
    lam: float,
    stage: str,
    iteration: int | None = None,
    growth_cap: float | None = None,
    rtol: float = 1e-9,
) -> None:
    """The multiplier must be non-decreasing (and capped when a cap
    applies, i.e. in the ``complx``/``double`` schedule modes)."""
    if lam < prev_lam * (1.0 - rtol) - rtol:
        raise InvariantViolation(
            stage, "lambda decreased", iteration=iteration,
            details={"prev": prev_lam, "new": lam},
        )
    if growth_cap is not None and prev_lam > 0:
        limit = growth_cap * prev_lam * (1.0 + rtol)
        if lam > limit:
            raise InvariantViolation(
                stage, "lambda grew past the schedule cap",
                iteration=iteration,
                details={"prev": prev_lam, "new": lam, "cap": growth_cap},
            )


def check_view_density(
    grid: "DensityGrid",
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    gamma: float,
    stage: str,
    iteration: int | None = None,
    slack_bins: float = 1.0,
) -> None:
    """The projected rectangle view must be near density-feasible.

    ``P_C`` look-ahead-legalizes the shredded rectangle view; each bin's
    usage may exceed ``gamma * capacity`` by at most ``slack_bins`` bin
    areas (leaf-level spreading is approximate).  ``grid`` is the
    :class:`~repro.projection.grid.DensityGrid` the projection ran on.
    """
    usage = grid.usage(None, extra=(x, y, w, h))
    excess = usage - gamma * grid.capacity
    bin_area = grid.bin_w * grid.bin_h
    worst = float(excess.max()) if excess.size else 0.0
    if worst > slack_bins * bin_area:
        ix, iy = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise InvariantViolation(
            stage, "projection left a bin overfilled beyond the slack",
            iteration=iteration,
            details={
                "bin": (int(ix), int(iy)),
                "excess_bin_areas": worst / bin_area,
                "slack_bins": slack_bins,
            },
        )


def assert_legal(
    netlist: Netlist,
    placement: Placement,
    stage: str = "legalization",
    tol: float = 1e-6,
    check_sites: bool = False,
) -> None:
    """``check_legal`` must come back clean after final legalization."""
    report = check_legal(netlist, placement, tol=tol,
                         check_sites=check_sites)
    if not report.legal:
        offenders = sorted(
            set(report.out_of_core) | set(report.off_row)
            | set(report.off_site) | set(report.region_violations)
            | {c for pair in report.overlaps for c in pair}
        )[:_MAX_REPORTED_CELLS]
        raise InvariantViolation(
            stage, f"legalized placement is not legal: {report.summary()}",
            cell_indices=offenders,
        )


class InvariantSuite:
    """Composable stage-boundary checker driven by :class:`ComPLxPlacer`.

    One instance tracks the cross-iteration state (previous lambda,
    initial Pi, whether Pi ever decayed) and exposes one method per
    stage boundary.  All methods raise :class:`InvariantViolation` on a
    broken contract and are no-ops on healthy runs.
    """

    #: After this many iterations Pi must have decayed below its
    #: initial value at least once.
    pi_decay_grace: int = 40

    def __init__(
        self,
        netlist: Netlist,
        gamma: float = 1.0,
        density_slack_bins: float = 1.0,
        lambda_growth_cap: float | None = None,
    ) -> None:
        self.netlist = netlist
        self.gamma = gamma
        self.density_slack_bins = density_slack_bins
        self.lambda_growth_cap = lambda_growth_cap
        self._prev_lam: float | None = None
        self._initial_pi: float | None = None
        self._min_pi: float | None = None

    # ------------------------------------------------------------------
    # stage hooks
    # ------------------------------------------------------------------
    def after_init(self, placement: Placement) -> None:
        check_finite(self.netlist, placement, "initialization")
        check_inside_core(self.netlist, placement, "initialization")

    def after_projection(
        self,
        iteration: int,
        placement: Placement,
        pi: float,
        grid=None,
        view: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Checks on ``P_C``'s output: the feasible upper-bound iterate."""
        stage = "projection"
        check_finite(self.netlist, placement, stage, iteration)
        check_inside_core(self.netlist, placement, stage, iteration)
        check_pi_value(pi, stage, iteration)
        if self._initial_pi is None:
            self._initial_pi = pi
            self._min_pi = pi
        else:
            assert self._min_pi is not None
            self._min_pi = min(self._min_pi, pi)
            if (
                iteration > self.pi_decay_grace
                and self._min_pi >= self._initial_pi
                and self._initial_pi > 0
            ):
                raise InvariantViolation(
                    stage, "Pi has not decayed below its initial value",
                    iteration=iteration,
                    details={"initial_pi": self._initial_pi,
                             "min_pi": self._min_pi},
                )
        if grid is not None and view is not None:
            check_view_density(
                grid, *view, self.gamma, stage, iteration,
                slack_bins=self.density_slack_bins,
            )

    def after_lambda(self, iteration: int, lam: float,
                     capped: bool = True) -> None:
        """Monotonicity (and cap, for capped schedule modes) of lambda."""
        if self._prev_lam is not None:
            check_lambda_step(
                self._prev_lam, lam, "lambda", iteration,
                growth_cap=self.lambda_growth_cap if capped else None,
            )
        self._prev_lam = lam

    def after_primal(self, iteration: int, placement: Placement) -> None:
        stage = "primal"
        check_finite(self.netlist, placement, stage, iteration)
        check_inside_core(self.netlist, placement, stage, iteration)
