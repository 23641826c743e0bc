"""Versioned checkpoint/resume for the ComPLx optimizer state.

ComPLx's full optimizer state is small and explicit — the primal and
feasible placements, the multiplier schedule, the stopping rule's
memory, the iteration history and the invariant tracker — so a
checkpoint is a single ``.npz`` file: coordinate arrays plus one JSON
metadata blob.  Files are written atomically (temp file + ``os.replace``)
so a crash mid-write never corrupts the latest good checkpoint.

A checkpoint embeds a *fingerprint* of the configuration and the
netlist identity; resuming against a different config or design is
refused with :class:`CheckpointMismatchError` rather than silently
producing a placement the config never described.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..core.history import IterationRecord
from ..netlist import Placement

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointMismatchError",
    "config_fingerprint",
    "load_checkpoint",
    "save_checkpoint",
]

#: Bump on any incompatible change to the on-disk layout.
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file could not be read or is structurally invalid."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint's config/netlist fingerprint does not match."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_fingerprint(config, netlist) -> str:
    """Stable digest of the placer config plus the netlist identity.

    The ``resilience`` sub-config is excluded: retry budgets and
    checkpoint cadence may legitimately differ between the killed run
    and the resuming one without changing the optimization trajectory.
    """
    cfg = asdict(config)
    cfg.pop("resilience", None)
    payload = {
        "config": cfg,
        "netlist": {
            "name": netlist.name,
            "num_cells": int(netlist.num_cells),
            "num_nets": int(netlist.num_nets),
            "widths": _sha256(np.ascontiguousarray(netlist.widths).tobytes()),
            "heights": _sha256(np.ascontiguousarray(netlist.heights).tobytes()),
            "movable": _sha256(np.ascontiguousarray(netlist.movable).tobytes()),
        },
    }
    return _sha256(json.dumps(payload, sort_keys=True).encode())


_HISTORY_FIELDS = tuple(f.name for f in fields(IterationRecord))
_HISTORY_CASTS = tuple(int if f.type == "int" else float
                       for f in fields(IterationRecord))


@dataclass
class Checkpoint:
    """One optimizer state: the supervisor's rollback point before every
    iteration, and the image of a checkpoint file.

    A capture holds references, not copies: the loop rebinds its
    placements and never mutates them in place, so only the short lists
    it appends to (the plateau window, the record list, the
    inconsistent iterations) are copied.
    """

    fingerprint: str
    iteration: int                      # last fully completed iteration
    lower: Placement
    upper: Placement
    schedule: dict                      # value, h, initialized
    stopping: dict                      # pi_initial, recent_ub
    monitor: dict                       # counters + previous iterate pair
    history: list[IterationRecord]     # the run's records so far
    pi_prev: float | None = None
    invariants: dict | None = None      # prev_lam, initial_pi, min_pi
    extras: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # capture / restore against the live loop state
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, state, fingerprint: str = "") -> "Checkpoint":
        """Snapshot a :class:`repro.core.complx._LoopState` duck-type
        (``fingerprint`` is needed only to write it to a file)."""
        monitor = state.monitor
        invariants = None
        if state.checker is not None:
            invariants = {
                "prev_lam": state.checker._prev_lam,
                "initial_pi": state.checker._initial_pi,
                "min_pi": state.checker._min_pi,
            }
        return cls(
            fingerprint=fingerprint,
            iteration=state.iteration,
            lower=state.lower,
            upper=state.upper,
            schedule={
                "value": state.schedule.value,
                "h": state.schedule.h,
                "initialized": state.schedule.initialized,
            },
            stopping={
                "pi_initial": state.stopping._pi_initial,
                "recent_ub": list(state.stopping._recent_ub),
            },
            monitor={
                "consistent": monitor.consistent,
                "inconsistent": monitor.inconsistent,
                "premise_failed": monitor.premise_failed,
                "inconsistent_iterations":
                    list(monitor.inconsistent_iterations),
                "prev_iterate": monitor._prev_iterate,
                "prev_projection": monitor._prev_projection,
            },
            history=list(state.history.records),
            pi_prev=state.pi_prev,
            invariants=invariants,
        )

    def restore_into(self, state) -> None:
        """Write this state back into the loop state (a rollback, or a
        freshly constructed state on resume)."""
        state.iteration = self.iteration
        state.lower = self.lower
        state.upper = self.upper
        state.pi_prev = self.pi_prev
        state.schedule.value = self.schedule["value"]
        state.schedule.h = self.schedule["h"]
        state.schedule._initialized = self.schedule["initialized"]
        state.stopping._pi_initial = self.stopping["pi_initial"]
        state.stopping._recent_ub = list(self.stopping["recent_ub"])
        monitor = state.monitor
        monitor.consistent = self.monitor["consistent"]
        monitor.inconsistent = self.monitor["inconsistent"]
        monitor.premise_failed = self.monitor["premise_failed"]
        monitor.inconsistent_iterations = list(
            self.monitor["inconsistent_iterations"])
        monitor._prev_iterate = self.monitor["prev_iterate"]
        monitor._prev_projection = self.monitor["prev_projection"]
        state.history.records = list(self.history)
        if self.invariants is not None and state.checker is not None:
            state.checker._prev_lam = self.invariants["prev_lam"]
            state.checker._initial_pi = self.invariants["initial_pi"]
            state.checker._min_pi = self.invariants["min_pi"]


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, ckpt: Checkpoint) -> str:
    """Atomically write ``ckpt`` to ``path`` (.npz); returns the path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    meta = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": ckpt.fingerprint,
        "iteration": ckpt.iteration,
        "pi_prev": ckpt.pi_prev,
        "schedule": ckpt.schedule,
        "stopping": ckpt.stopping,
        "monitor": {
            k: v for k, v in ckpt.monitor.items()
            if k not in ("prev_iterate", "prev_projection")
        },
        "has_prev_iterate": ckpt.monitor["prev_iterate"] is not None,
        "has_prev_projection": ckpt.monitor["prev_projection"] is not None,
        "invariants": ckpt.invariants,
        "extras": ckpt.extras,
    }
    arrays = {
        "lower_x": ckpt.lower.x, "lower_y": ckpt.lower.y,
        "upper_x": ckpt.upper.x, "upper_y": ckpt.upper.y,
    }
    for name in _HISTORY_FIELDS:
        arrays[f"hist_{name}"] = np.asarray(
            [getattr(record, name) for record in ckpt.history],
            dtype=np.float64)
    iterate = ckpt.monitor["prev_iterate"]
    if iterate is not None:
        arrays["mon_it_x"], arrays["mon_it_y"] = iterate.x, iterate.y
    projection = ckpt.monitor["prev_projection"]
    if projection is not None:
        arrays["mon_pr_x"], arrays["mon_pr_y"] = projection.x, projection.y
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        np.savez(handle, meta=np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint version "
                    f"{meta.get('version')!r} is not supported "
                    f"(expected {CHECKPOINT_VERSION})"
                )
            monitor = dict(meta["monitor"])
            monitor["prev_iterate"] = (
                Placement(data["mon_it_x"], data["mon_it_y"])
                if meta["has_prev_iterate"] else None
            )
            monitor["prev_projection"] = (
                Placement(data["mon_pr_x"], data["mon_pr_y"])
                if meta["has_prev_projection"] else None
            )
            columns = [data[f"hist_{name}"].tolist()
                       for name in _HISTORY_FIELDS]
            history = [
                IterationRecord(*(cast(value) for cast, value
                                  in zip(_HISTORY_CASTS, row)))
                for row in zip(*columns)
            ]
            return Checkpoint(
                fingerprint=meta["fingerprint"],
                iteration=int(meta["iteration"]),
                lower=Placement(data["lower_x"], data["lower_y"]),
                upper=Placement(data["upper_x"], data["upper_y"]),
                schedule=meta["schedule"],
                stopping=meta["stopping"],
                monitor=monitor,
                history=history,
                pi_prev=meta["pi_prev"],
                invariants=meta["invariants"],
                extras=meta.get("extras", {}),
            )
    except (OSError, KeyError, ValueError) as exc:
        raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc
