"""Layer spans recorded around the calls into each ``src/repro`` module.

The traced run wraps public functions and methods of the program in
place (every module that imported a function by name gets the wrapper),
so no program code changes.  A span keeps its name, start, end, parent
span, operation id, process and thread; spans stay in memory and are
written once, as one Chrome trace, when the run ends.

Serve and race workers are forked from the benchmark process and so
inherit the wrappers.  A worker appends its spans and counts to its own
spill file (at most every ``SPILL_SECONDS`` while busy, and whenever its
outermost span closes), and the parent reads the files back.  A worker
the race arbiter kills loses at most its last ``SPILL_SECONDS`` of spans.
"""

from __future__ import annotations

import collections
import functools
import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["LAYER_TARGETS", "Span", "Tracer", "install", "layer_table"]

SPILL_SECONDS = 0.02


@dataclass
class Span:
    name: str
    start: float
    end: float
    sid: int
    parent: int          # 0 for a root span of its thread
    op: Any
    pid: int
    tid: int


class Tracer:
    """In-memory span store shared by the wrappers of one traced run."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spill: str | None = None     # set in forked workers only
        self._last_spill = 0.0
        self._spilled_spans = 0
        self._spilled_counts: collections.Counter = collections.Counter()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------
    @property
    def op(self) -> Any:
        """The operation this thread is running, as its spans record it.

        Set before each operation; a forked worker keeps the value its
        forking thread had.
        """
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value: Any) -> None:
        self._local.op = value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             after: Callable[[Any, tuple, dict], dict] | None = None,
             before: Callable[[tuple, dict], Any] | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``after(result, args, kwargs)``
        returns counts to add, ``before(args, kwargs)`` may set the op."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                tracer.op = before(args, kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(name, start, end, sid, parent,
                                         tracer.op, os.getpid(),
                                         threading.get_ident()))
            if after is not None:
                tracer.counts.update(after(result, args, kwargs))
            if tracer._spill is not None and (
                    not stack or end - tracer._last_spill > SPILL_SECONDS):
                tracer._write_spill(end)
            return result

        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted as ``name`` without a span (hot inner calls)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- forked workers ----------------------------------------------------
    def _after_fork(self) -> None:
        self.spans.clear()
        self.counts.clear()
        op = self.op
        self._local = threading.local()
        self.op = op
        self._spill = os.path.join(
            self.spill_dir, f"spill-{os.getpid()}-{time.perf_counter_ns()}.jsonl")
        self._spilled_spans = 0
        self._spilled_counts = collections.Counter()
        self._last_spill = time.perf_counter()

    def _write_spill(self, now: float) -> None:
        new = self.spans[self._spilled_spans:]
        delta = self.counts - self._spilled_counts
        lines = [json.dumps(["span", s.name, s.start, s.end, s.sid, s.parent,
                             s.op, s.pid, s.tid]) for s in new]
        if delta:
            lines.append(json.dumps(["counts", dict(delta)]))
        if lines:
            with open(self._spill, "a") as handle:
                handle.write("\n".join(lines) + "\n")
        self._spilled_spans = len(self.spans)
        self._spilled_counts = collections.Counter(self.counts)
        self._last_spill = now

    # -- reading back ------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (the end of set-up)."""
        self.spans.clear()
        self.counts.clear()
        for path in glob.glob(os.path.join(self.spill_dir, "spill-*.jsonl")):
            os.remove(path)

    def collect(self) -> tuple[list[Span], collections.Counter]:
        """This process's spans and counts plus every worker's spill."""
        spans = list(self.spans)
        counts = collections.Counter(self.counts)
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "spill-*.jsonl"))):
            with open(path) as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue    # a line cut short by a killed worker
                    if record[0] == "span":
                        spans.append(Span(*record[1:]))
                    else:
                        counts.update(record[1])
        return spans, counts

    @staticmethod
    def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
        """Each span's duration minus the time its child spans cover."""
        child = collections.defaultdict(float)
        for s in spans:
            if s.parent:
                child[(s.pid, s.parent)] += s.end - s.start
        return {(s.pid, s.sid): (s.end - s.start) - child[(s.pid, s.sid)]
                for s in spans}

    @staticmethod
    def write_chrome(path: str, spans: list[Span]) -> None:
        """One Chrome trace (chrome://tracing, Perfetto) of ``spans``."""
        names = {(s.pid, s.sid): s.name for s in spans}
        events = [{"name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                   "ts": round(s.start * 1e6, 3),
                   "dur": round((s.end - s.start) * 1e6, 3),
                   "pid": s.pid, "tid": s.tid,
                   "args": {"op": s.op,
                            "parent": names.get((s.pid, s.parent))}}
                  for s in spans]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def _cg_iterations(result, args, kwargs) -> dict:
    return {"solvers.cg_iterations": int(getattr(result, "iterations", 0))}


def _place_iterations(result, args, kwargs) -> dict:
    return {"core.iterations": int(result.history.iterations)}


def _fallback(result, args, kwargs) -> dict:
    chain = kwargs.get("chain", args[2] if len(args) > 2 else [])
    preferred = chain[0][0] if chain else result[1]
    return {"legalize.fallbacks": int(result[1] != preferred)}


def _job_op(args, kwargs):
    """A serve job's operation index, which the benchmark gives as its name."""
    payload = args[0] if args else kwargs["payload"]
    return int(payload["spec"]["name"])


#: (span name, module, attribute path, after-hook, before-hook).  A span
#: name's first part is the ``src/repro`` module whose code it times.
LAYER_TARGETS = (
    ("netlist.read", "repro.netlist.bookshelf", "read_aux", None, None),
    ("netlist.write", "repro.netlist.bookshelf", "write_aux", None, None),
    ("core.place", "repro.core.complx", "ComPLxPlacer.place",
     _place_iterations, None),
    ("projection.project", "repro.projection.projector",
     "FeasibilityProjection.__call__", None, None),
    ("projection.lal", "repro.projection.lal", "project_rectangles",
     None, None),
    ("projection.shred", "repro.projection.shredding", "build_shredded_view",
     None, None),
    ("projection.shred", "repro.projection.shredding",
     "interpolate_macro_positions", None, None),
    ("models.plan", "repro.models.assembly", "AssemblyPlan.__init__",
     None, None),
    ("models.b2b", "repro.models.assembly", "AssemblyPlan.build_system",
     None, None),
    ("models.hpwl", "repro.models.hpwl", "hpwl", None, None),
    ("solvers.cg", "repro.solvers.cg", "solve_spd", _cg_iterations, None),
    ("legalize.abacus", "repro.legalize.abacus", "abacus_legalize",
     None, None),
    ("legalize.tetris", "repro.legalize.tetris", "tetris_legalize",
     None, None),
    ("legalize.chain", "repro.resilience.policies", "legalize_with_fallback",
     _fallback, None),
    ("detailed.place", "repro.detailed.dp", "DetailedPlacer.place",
     None, None),
    ("detailed.swap", "repro.detailed.passes", "global_swap_pass",
     None, None),
    ("detailed.reorder", "repro.detailed.passes", "local_reorder_pass",
     None, None),
    ("detailed.shift", "repro.detailed.passes", "row_shift_pass", None, None),
    ("serve.worker", "repro.serve.worker", "run_job", None, _job_op),
    ("runs.capture", "repro.runs.registry", "RunRegistry.capture",
     None, None),
    ("race.execute", "repro.race.controller", "RaceController.execute",
     None, None),
    ("race.promote", "repro.race.promotion", "promote", None, None),
)

#: Hot methods that are counted, not timed.
COUNT_TARGETS = (
    ("detailed.trials", "repro.detailed.incremental",
     "HPWLDelta.move_cost_delta"),
    ("detailed.moves", "repro.detailed.incremental", "HPWLDelta.commit_move"),
)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global (and dict value) that refers
    to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every layer target; the modules must already be imported."""
    def resolve(module_name: str, path: str):
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    for name, module_name, path, after, before in LAYER_TARGETS:
        owner, attr = resolve(module_name, path)
        original = vars(owner)[attr]
        wrapped = tracer.wrap(original, name, after=after, before=before)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)
    for name, module_name, path in COUNT_TARGETS:
        owner, attr = resolve(module_name, path)
        setattr(owner, attr, tracer.count(vars(owner)[attr], name))


def layer_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """``(span name, count, total s, self s)`` rows, largest total first."""
    selfs = Tracer.self_times(spans)
    rows: dict[str, list] = {}
    for s in spans:
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += selfs[(s.pid, s.sid)]
    return sorted(((name, c, t, st) for name, (c, t, st) in rows.items()),
                  key=lambda r: -r[2])
