"""End-to-end self-test of the racing runtime, used by the CI smoke job.

Races four variants (base, a reseed and two effort presets) on a
pinned-seed synthetic micro netlist, each to its own stop, and asserts
the acceptance criteria of the racing runtime end to end:

1. the promoted winner's placement is **bit-identical** to running the
   same config standalone in this process (shared-plan adoption and
   the worker process change nothing),
2. the race finishes in less wall-clock than the four standalone runs
   take back to back,
3. the whole portfolio lands in the run registry with a
   ``promotion.md`` justification on the winner,
4. with ``trace``, one merged Chrome trace spans every worker lane and
   is archived with the winner.

Returns 0 on success; raises :class:`SmokeFailure` with a specific
message otherwise.  All output goes through :mod:`logging` — the
``__main__`` wrapper owns the exit code and user-facing text.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Any

import numpy as np

from ..core import ComPLxConfig, ComPLxPlacer
from ..serve.worker import build_netlist
from .controller import RaceController, RaceResult
from .portfolio import VariantSpec, build_portfolio
from .promotion import promote

__all__ = ["SmokeFailure", "run_smoke", "smoke_portfolio"]

logger = logging.getLogger(__name__)

#: Pinned-seed micro netlist every smoke race runs on.  Large enough
#: that iteration compute dominates process/poll overhead — the
#: wall-clock assertion below is meaningless on toy sizes.
SMOKE_WORKLOAD = {"kind": "synthetic", "num_cells": 600, "seed": 7}

#: Knobs every variant shares: modest budget, aggressive
#: Coloquinte-style finish line so they exit via ``gap_closed``.
_HONEST = {"max_iterations": 60, "gap_tolerance": 0.15}


class SmokeFailure(AssertionError):
    """One smoke assertion failed (the message says which)."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def smoke_portfolio() -> list[VariantSpec]:
    """The pinned four-variant portfolio the smoke race runs."""
    return build_portfolio(
        seeds=(5,),
        efforts=(3, 5),
        base_overrides=_HONEST,
    )


def _standalone(spec: VariantSpec, netlist) -> tuple[Any, float]:
    """Run one variant in-process; returns (result, wall seconds)."""
    config = spec.config(ComPLxConfig())
    placer = ComPLxPlacer(netlist, config)
    begin = time.monotonic()
    result = placer.place()
    return result, time.monotonic() - begin


def _assert_winner_bit_identical(result: RaceResult, netlist) -> None:
    winner = result.outcomes[result.winner or ""]
    _check(winner.placement is not None,
           "winner outcome carries no placement")
    rerun, _ = _standalone(winner.spec, netlist)
    assert winner.placement is not None
    same_x = np.array_equal(
        np.asarray(winner.placement["x"], dtype=np.float64), rerun.upper.x)
    same_y = np.array_equal(
        np.asarray(winner.placement["y"], dtype=np.float64), rerun.upper.y)
    _check(same_x and same_y,
           f"winner {result.winner} placement is not bit-identical to "
           "the standalone rerun of the same config")
    _check(winner.stop_reason == rerun.history.stop_reason,
           f"winner stop reason {winner.stop_reason!r} != standalone "
           f"{rerun.history.stop_reason!r}")


def run_smoke(registry_root: str = "race-smoke-runs",
              trace: bool = False) -> int:
    """The smoke scenario; returns 0 so ``__main__`` can exit with it."""
    portfolio = smoke_portfolio()
    _check(len(portfolio) >= 4,
           f"smoke portfolio shrank to {len(portfolio)} variants")
    netlist = build_netlist(SMOKE_WORKLOAD)

    controller = RaceController(
        portfolio,
        netlist=netlist,
        workload=SMOKE_WORKLOAD,
        max_workers=len(portfolio) + 1,
        trace=trace,
    )
    result = controller.execute()
    logger.info("race finished in %.2fs: winner=%s", result.wall_seconds,
                result.winner)

    # 1. the winner finished, and is bit-identical standalone.
    _check(result.winner is not None, "race produced no winner")
    _check(result.outcomes[result.winner or ""].status == "finished",
           "winner is not a finished variant")
    _assert_winner_bit_identical(result, netlist)
    logger.info("winner %s is bit-identical to its standalone rerun",
                result.winner)

    # 2. racing beat running the portfolio back to back.  Concurrency
    # is the whole mechanism, so this only holds with >= 2 cores; on a
    # single-core host the comparison is reported but not enforced.
    standalone_total = 0.0
    for spec in portfolio:
        _, seconds = _standalone(spec, netlist)
        standalone_total += seconds
    if (os.cpu_count() or 1) >= 2:
        _check(result.wall_seconds < standalone_total,
               f"race took {result.wall_seconds:.2f}s, standalone sum "
               f"is {standalone_total:.2f}s — racing did not pay")
        logger.info("race %.2fs vs standalone sum %.2fs",
                    result.wall_seconds, standalone_total)
    else:
        logger.warning(
            "single-core host: wall-clock assertion skipped "
            "(race %.2fs vs standalone sum %.2fs)",
            result.wall_seconds, standalone_total)

    # 3. the full portfolio landed in the registry, winner justified.
    summary = promote(result, registry_root, name="race-smoke")
    _check(set(summary["run_dirs"]) == set(result.outcomes),
           "promotion did not archive every variant")
    winner_dir = summary["winner_run_dir"]
    _check(bool(winner_dir) and os.path.exists(
        os.path.join(winner_dir, "promotion.md")),
           "winner run dir is missing promotion.md")
    _check(os.path.exists(os.path.join(winner_dir, "promotion.json")),
           "winner run dir is missing promotion.json")
    rivals = summary["justification"]["rivals"]
    _check(set(rivals) == set(result.outcomes) - {result.winner},
           "promotion justification does not diff every rival")
    logger.info("promoted winner archived at %s", winner_dir)

    # 4. tracing races merge one Chrome trace spanning every worker
    # lane and archive it with the winner.
    if trace:
        _check(result.trace is not None, "tracing race produced no trace")
        assert result.trace is not None
        workers = result.trace["otherData"]["workers"]
        _check(len(workers) >= len(portfolio),
               f"merged trace covers {len(workers)} worker lanes, "
               f"expected >= {len(portfolio)}")
        _check(bool(result.trace["traceEvents"]),
               "merged race trace has no events")
        _check(os.path.exists(os.path.join(winner_dir, "trace.json")),
               "winner run dir is missing the merged trace.json")
        logger.info("merged race trace spans %d worker lanes",
                    len(workers))

    logger.info("race smoke passed")
    return 0
