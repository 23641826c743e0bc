"""Detailed placement driver (the FastPlace-DP stand-in).

The paper uses FastPlace-DP [28] to turn ComPLx's near-feasible global
placement into the legal placements Table 1/2 report.  This driver
reproduces that role:

1. legalize (Abacus by default; the input may be slightly overlapping),
2. iterate global swap -> local reordering -> single-row shifting until
   the HPWL improvement of a full round drops below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..legalize import abacus_legalize
from ..legalize.macros import macro_obstacles
from ..legalize.rows import RowMap, snap_placement_to_sites
from ..netlist import Netlist, Placement
from ..netlist.validate import check_legal
from .incremental import HPWLDelta, placement_cost
from .passes import global_swap_pass, local_reorder_pass, row_shift_pass
from .structure import RowStructure


@dataclass
class DetailedPlacementReport:
    """What the driver did."""

    hpwl_before: float
    hpwl_after: float
    rounds: int
    moves: int

    @property
    def improvement(self) -> float:
        if self.hpwl_before <= 0:
            return 0.0
        return (self.hpwl_before - self.hpwl_after) / self.hpwl_before


class DetailedPlacer:
    """Configured detailed placement engine.

    ``legalizer`` maps any placement to a legal one; ``max_rounds`` and
    ``min_improvement`` bound the optimization loop.  ``reorder_window``
    is the local-reordering window size (3 is the FastPlace-DP default).
    """

    def __init__(
        self,
        netlist: Netlist,
        legalizer: Callable[[Netlist, Placement], Placement] = abacus_legalize,
        max_rounds: int = 3,
        min_improvement: float = 0.001,
        reorder_window: int = 3,
        skip_global_swap: bool = False,
        snap_sites: bool = True,
    ) -> None:
        self.netlist = netlist
        self.legalizer = legalizer
        self.max_rounds = max_rounds
        self.min_improvement = min_improvement
        self.reorder_window = reorder_window
        self.skip_global_swap = skip_global_swap
        # The optimization passes slide cells to continuous optima;
        # real flows expect site-aligned output, so a final snapping
        # pass restores alignment (legality preserved by construction).
        self.snap_sites = snap_sites
        self.last_report: DetailedPlacementReport | None = None

    def __call__(self, placement: Placement) -> Placement:
        return self.place(placement)

    def place(self, placement: Placement) -> Placement:
        """Legalize + optimize; stores a report in ``last_report``."""
        nl = self.netlist
        legal = placement
        if not check_legal(nl, placement, max_reported=1).legal:
            legal = self.legalizer(nl, placement)
        state = HPWLDelta(nl, legal)
        rows = RowStructure(nl, legal)
        before = state.total_hpwl()
        total_moves = 0
        rounds = 0
        for rounds in range(1, self.max_rounds + 1):
            round_before = state.total_hpwl()
            moves = 0
            if not self.skip_global_swap:
                moves += global_swap_pass(nl, state, rows)
            moves += local_reorder_pass(nl, state, rows,
                                        window=self.reorder_window)
            moves += row_shift_pass(nl, state, rows)
            total_moves += moves
            round_after = state.total_hpwl()
            if moves == 0:
                break
            if round_before > 0 and \
                    (round_before - round_after) / round_before < self.min_improvement:
                break
        result = state.placement()
        if self.snap_sites:
            rowmap = RowMap(
                nl, extra_obstacles=macro_obstacles(nl, result),
                site_align=True,
            )
            result = snap_placement_to_sites(nl, result, rowmap)
        after = placement_cost(nl, result)
        self.last_report = DetailedPlacementReport(
            hpwl_before=before, hpwl_after=after,
            rounds=rounds, moves=total_moves,
        )
        return result


def detailed_place(netlist: Netlist, placement: Placement,
                   **kwargs) -> Placement:
    """One-call detailed placement with default settings."""
    return DetailedPlacer(netlist, **kwargs).place(placement)
