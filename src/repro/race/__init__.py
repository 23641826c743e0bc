"""Portfolio racing: run config/seed variants concurrently, each to its
own stop, and promote the finished variant with the lowest feasible
cost.

* :mod:`repro.race.portfolio` — expand a base config into variants
  (seeds, Coloquinte-style effort presets, named knob overrides),
* :mod:`repro.race.worker` — one variant per crash-isolated process,
  sharing one prebuilt :class:`~repro.models.assembly.AssemblyPlan`
  across fork children,
* :mod:`repro.race.controller` — the race loop and the deterministic
  winner rule,
* :mod:`repro.race.promotion` — land the full portfolio in the
  :mod:`repro.runs` registry with a ``diff_runs``-based justification.
"""

from .controller import (RaceController, RaceResult, VariantOutcome,
                         VariantView, pick_winner)
from .portfolio import VariantSpec, build_portfolio
from .promotion import promote

__all__ = [
    "RaceController",
    "RaceResult",
    "VariantOutcome",
    "VariantSpec",
    "VariantView",
    "build_portfolio",
    "pick_winner",
    "promote",
]
