"""Per-iteration records of a ComPLx run (compatibility shim).

The canonical store for per-iteration trajectories is a
:class:`repro.telemetry.MetricsRegistry`: reach it through
``result.metrics`` (:attr:`GlobalPlacementResult.metrics
<repro.core.complx.GlobalPlacementResult.metrics>`), whose named series
(``lam``, ``pi``, ``phi_lower``, ...) carry exactly the fields below —
``result.metrics.series(name).as_array()`` for one series,
``result.metrics.write_csv(path)`` for a table.  :class:`RunHistory`
remains only as the record list the checkpoint format and the
supervisor's rollback transact on; :meth:`RunHistory.to_metrics`
derives the registry from it.

Figure 1 of the paper plots the progressions of L (total Lagrangian),
Phi (interconnect) and Pi (L1 distance to legal) over iterations; Figure 3
plots final lambda and iteration counts.  The telemetry series capture
everything those plots need, plus grid/solver diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..telemetry import MetricsRegistry

__all__ = [
    "IterationRecord",
    "RunHistory",
]


@dataclass
class IterationRecord:
    """Snapshot of one global placement iteration."""

    iteration: int
    lam: float
    phi_lower: float          # wHPWL of the lower-bound (primal) iterate
    phi_upper: float          # wHPWL of the feasible (projected) iterate
    pi: float                 # L1 distance to the projected placement
    lagrangian: float         # phi_lower + lam * pi
    overflow_percent: float
    grid_bins: int
    cg_iterations: int = 0
    runtime_seconds: float = 0.0

    @property
    def duality_gap(self) -> float:
        return self.phi_upper - self.phi_lower


#: Registry series derived from each record (all fields but the index).
SERIES_FIELDS = tuple(
    f.name for f in fields(IterationRecord) if f.name != "iteration"
)


@dataclass
class RunHistory:
    """Ordered iteration records: the checkpoint/rollback data carrier.

    For series access use ``result.metrics`` (a
    :class:`~repro.telemetry.MetricsRegistry`).
    """

    records: list[IterationRecord] = field(default_factory=list)
    stop_reason: str = ""

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i: int) -> IterationRecord:
        return self.records[i]

    def to_metrics(self) -> MetricsRegistry:
        """The telemetry view: one registry series per record field.

        Built fresh on every call — the record list stays authoritative
        (checkpoint restore and supervisor rollback replace it), so the
        registry is always derived, never stale.
        """
        registry = MetricsRegistry()
        for name in SERIES_FIELDS:
            series = registry.series(name)
            for record in self.records:
                series.record(record.iteration, getattr(record, name))
        gap = registry.series("duality_gap")
        for record in self.records:
            gap.record(record.iteration, record.duality_gap)
        if self.stop_reason:
            registry.meta["stop_reason"] = self.stop_reason
        return registry

    @property
    def final_lambda(self) -> float:
        return self.records[-1].lam if self.records else 0.0

    @property
    def iterations(self) -> int:
        return len(self.records)

    def summary(self) -> str:
        if not self.records:
            return "no iterations"
        last = self.records[-1]
        return (
            f"{len(self.records)} iterations, final lambda={last.lam:.4g}, "
            f"Phi_ub={last.phi_upper:.4g}, Pi={last.pi:.4g}, "
            f"gap={last.duality_gap:.4g}, stop={self.stop_reason or 'n/a'}"
        )
