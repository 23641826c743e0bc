"""The four workloads: set-up, one operation, and the checks on its output.

Each workload generates its inputs from the run's seed with
:mod:`design`, calls the program only through its public entry points
(the ``python -m repro place`` command line, the HTTP job service, the
race controller and promotion), and checks every output with
:mod:`checks` before the operation counts as done.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import sys
import time
import traceback
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import checks
from design import Design, DesignSpec, generate, read_pl, write_bookshelf

__all__ = ["WORKLOADS", "HistoryTap", "OpResult", "Sizes", "Workload"]


@dataclass
class OpResult:
    """One completed operation."""

    latency: float
    hpwl: float
    scaled: float
    key: object = None     # which input; equal keys must repeat hpwl exactly
    layer: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark's tests shrink them."""

    flow_cells: int = 300
    flow_macros: int = 3
    gp_cells: int = 1000
    serve_cells: int = 200
    race_cells: int = 400
    #: Designs per run, one operation each per round.  An operation's
    #: time varies a lot from design to design (placer iterations, race
    #: rounds); many designs per run keep one seed's draw from moving the
    #: run's median.  A round takes 10-30 s on a 2-core host.
    flow_designs: int = 24
    gp_designs: int = 8
    serve_designs: int = 16
    race_designs: int = 12
    reads: int = 5          # design reads per design behind setup_s
    serve_setups: int = 5   # service starts behind setup_s


class HistoryTap:
    """Keeps the Phi/lambda history of every in-process ComPLx run."""

    def __init__(self) -> None:
        from repro.core.complx import ComPLxPlacer

        self.histories: list[tuple[list, list, list]] = []
        original = ComPLxPlacer.place
        tap = self

        @functools.wraps(original)
        def place(placer, *args, **kwargs):
            result = original(placer, *args, **kwargs)
            records = result.history.records
            tap.histories.append(([r.phi_lower for r in records],
                                  [r.phi_upper for r in records],
                                  [r.lam for r in records]))
            return result

        ComPLxPlacer.place = place


def _time_reads(aux: str, reads: int) -> tuple[list[float], object]:
    from repro.netlist import bookshelf

    samples, netlist = [], None
    for _ in range(reads):
        start = time.perf_counter()
        netlist, _ = bookshelf.read_aux(aux)
        samples.append(time.perf_counter() - start)
    return samples, netlist


class Workload:
    """Set-up, then whole rounds of operations, then the final checks."""

    name = ""
    #: Run-registry root the workload archives into ("" for none).
    registry = ""
    #: Whether every placement of one input must give the same HPWL.
    deterministic = True
    #: Whole rounds after which ``peak_rss_mb`` is read, so that every run
    #: reads it after the same operations, however fast the host is.
    rss_rounds = 1

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes
        #: The traced run's tracer; each operation sets its operation id.
        self.tracer = None
        #: Messages of the wrong outputs the checks found.
        self.wrong: list[str] = []

    def round(self) -> int:
        """Operations per round."""
        return 1

    def operate(self, index: int) -> OpResult:
        raise NotImplementedError

    def operate_round(self, first: int) -> list[OpResult | None]:
        """One round; a failed or wrong operation is left as None."""
        return [self.attempt(first + j) for j in range(self.round())]

    def attempt(self, index: int) -> OpResult | None:
        """One operation, or None if the program failed (logged) or its
        output was wrong (recorded in ``wrong``)."""
        if self.tracer is not None:
            self.tracer.op = index
        try:
            return self.operate(index)
        except checks.CheckFailure as exc:
            self.wrong.append(str(exc))
        except Exception:  # the program failed; count it and go on
            traceback.print_exc(file=sys.stderr)
        return None

    def finish(self) -> None:
        """Checks that need the timed phase to have ended."""

    def close(self) -> None:
        """Stop whatever the set-up started."""


#: A flow-mixed design with movable macros, the same for every seed, on
#: which ``place`` leaves a standard cell overlapping a macro (see
#: CHANGES.md).  Each round places it once and counts it as failed, so
#: the fault shows in every run.
FAULT_DESIGN = (DesignSpec("flowfault", cells=300, macros=3), (1, 13))


class CliWorkload(Workload):
    """``python -m repro place`` on a suite of generated designs."""

    def __init__(self, name: str, specs: list[DesignSpec], gamma: float,
                 extra: list[str], on_sites: bool, sizes: Sizes,
                 fault: tuple[DesignSpec, tuple] | None = None) -> None:
        super().__init__(sizes)
        self.name = name
        self.specs = specs
        self.gamma = gamma
        self.extra = extra
        self.on_sites = on_sites
        self.fault = fault
        self.designs: list[tuple[Design, str]] = []
        self.tap: HistoryTap | None = None
        self.history: tuple[list, list, list] = ([], [], [])
        self.work = ""

    def setup(self, work: str, seed: int, trace: bool) -> list[float]:
        self.work = work
        self.tap = HistoryTap()
        samples: list[float] = []
        inputs = [(spec, (seed, k)) for k, spec in enumerate(self.specs)]
        for spec, design_seed in inputs + ([self.fault] if self.fault else []):
            design = generate(spec, design_seed)
            aux = write_bookshelf(design, os.path.join(work, "designs"))
            self.designs.append((design, aux))
            samples += _time_reads(aux, self.sizes.reads)[0]
        return samples

    def round(self) -> int:
        return len(self.designs)

    def operate(self, index: int) -> OpResult:
        from repro import cli

        k = index % len(self.designs)
        design, aux = self.designs[k]
        out = os.path.join(self.work, "placed", f"op{index}")
        argv = ["place", aux, "--out", out, "--gamma", str(self.gamma)]
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv + self.extra)
        latency = time.perf_counter() - start
        text = buffer.getvalue()
        if code != 0:
            raise RuntimeError(f"place exited {code}: {text[-300:]}")
        self.history = self.tap.histories.pop()
        x, y = read_pl(design, os.path.join(
            out, f"{design.spec.name}_placed.pl"))
        try:
            checks.check_legal(design, x, y, on_sites=self.on_sites)
        except checks.CheckFailure as exc:
            if self.fault is None or k != len(self.specs):
                raise
            raise RuntimeError(f"{design.spec.name}: {exc}") from None
        wirelength = checks.hpwl(design, x, y)
        match = re.search(r"legalization\+DP: HPWL ([0-9.]+)", text)
        if match is None:
            raise checks.CheckFailure("place printed no HPWL")
        # Printed with one decimal; the .pl keeps ten significant digits.
        checks.check_reported_hpwl(float(match.group(1)), wirelength,
                                   abs_tol=0.06)
        checks.check_history(*self.history, where=self.name)
        match = re.search(r"density \(.*overflow (\S+)%", text)
        if match is None:
            raise checks.CheckFailure("place printed no density overflow")
        checks.check_overflow(float(match.group(1)))
        scaled, _ = checks.scaled_hpwl(design, x, y, self.gamma)
        return OpResult(latency, wirelength, scaled, key=k)


# ---------------------------------------------------------------------------
# serve-small
# ---------------------------------------------------------------------------

def _http(method: str, url: str, payload: dict | None = None
          ) -> tuple[int, bytes]:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method,
                                     headers={"X-Tenant": "bench"})
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=120.0) as response:
        return response.status, response.read()


def _await_done(base: str, job_id: str) -> None:
    """Follow the job's Server-Sent Events until its ``done`` event."""
    request = urllib.request.Request(
        f"{base}/v1/jobs/{job_id}/events?stream=1",
        headers={"X-Tenant": "bench", "Accept": "text/event-stream"})
    with urllib.request.urlopen(request, timeout=120.0) as response:
        for raw in response:
            if raw.startswith(b"event: done"):
                return
    raise checks.CheckFailure(f"event stream of {job_id} ended without done")


class ServeWorkload(Workload):
    """Closed loop of two HTTP clients against an in-process service."""

    name = "serve-small"
    clients = 2
    #: The service keeps every finished job (see CHANGES.md), so its
    #: memory grows with the jobs run: read it after 64 of them.
    rss_rounds = 4

    def __init__(self, sizes: Sizes) -> None:
        super().__init__(sizes)
        self.specs = [DesignSpec(f"serve{k}", cells=sizes.serve_cells, pads=32)
                      for k in range(sizes.serve_designs)]
        self.designs: list[Design] = []
        self.service = None
        self.base = ""
        self.jobs: list[str] = []
        self.pool: ThreadPoolExecutor | None = None

    def _start(self, work: str, index: int, trace: bool):
        from repro.serve.api import PlacementService
        from repro.serve.config import ServeConfig

        self.registry = os.path.join(work, f"registry{index}")
        # Rate limits far above the offered load: every job is admitted,
        # and the queue stays short enough that every job runs at tier
        # "full".
        config = ServeConfig(port=0, workers=2, queue_capacity=16,
                             tenant_rate=1000.0, tenant_burst=1000,
                             registry_root=self.registry, trace=trace)
        return PlacementService(config, aux_root=os.path.join(
            work, "designs")).start()

    def setup(self, work: str, seed: int, trace: bool) -> list[float]:
        self.designs = [generate(spec, (seed, k))
                        for k, spec in enumerate(self.specs)]
        for design in self.designs:
            write_bookshelf(design, os.path.join(work, "designs"))
        samples = []
        for i in range(self.sizes.serve_setups):
            if self.service is not None:
                self.service.stop(drain=True, timeout=30.0)
            start = time.perf_counter()
            self.service = self._start(work, i, trace)
            host, port = self.service.address
            self.base = f"http://{host}:{port}"
            self.jobs.clear()
            self.operate(-1)
            samples.append(time.perf_counter() - start)
        # The first job's archive may still be in flight; let it land
        # before the timed phase.
        self._quiesce()
        self.jobs.clear()
        self.pool = ThreadPoolExecutor(self.clients)
        return samples

    def round(self) -> int:
        return len(self.designs)

    def operate_round(self, first: int) -> list[OpResult | None]:
        """Each client runs its share of the round's jobs back to back."""
        def client(c: int) -> list[OpResult | None]:
            return [self.attempt(i)
                    for i in range(first + c, first + self.round(),
                                   self.clients)]

        futures = [self.pool.submit(client, c) for c in range(self.clients)]
        return [op for future in futures for op in future.result()]

    def operate(self, index: int) -> OpResult:
        k = index % len(self.designs)
        design = self.designs[k]
        # The job's name is the operation index, which the traced run's
        # spans in the worker record as their operation.
        payload = {"name": str(index), "legalizer": "abacus",
                   "include_placement": True,
                   "workload": {"kind": "aux",
                                "path": f"{design.spec.name}.aux"}}
        start = time.perf_counter()
        status, raw = _http("POST", f"{self.base}/v1/jobs", payload)
        submitted = time.perf_counter()
        if status != 202:
            raise RuntimeError(f"submit answered {status}")
        job_id = json.loads(raw)["job_id"]
        _await_done(self.base, job_id)
        done_at = time.monotonic()
        done = time.perf_counter()
        status, raw = _http("GET", f"{self.base}/v1/jobs/{job_id}/result")
        latency = time.perf_counter() - start
        body = json.loads(raw)
        job = body["job"]
        if job["state"] == "failed":
            raise RuntimeError(f"job {job_id} failed: {job.get('error')}")
        checks.check_job(job)
        result = body["result"]
        x = np.array(result["placement"]["x"], dtype=np.float64)
        y = np.array(result["placement"]["y"], dtype=np.float64)
        checks.check_legal(design, x, y, on_sites=False)
        wirelength = checks.hpwl(design, x, y)
        checks.check_reported_hpwl(result["hpwl_legal"], wirelength)
        scaled, _ = checks.scaled_hpwl(design, x, y, 1.0)
        record = self.service.runtime.job(job_id)
        self.jobs.append(job_id)
        return OpResult(latency, wirelength, scaled, key=k, layer={
            "serve.submit_s": submitted - start,
            "serve.queue_wait_s": job["queue_wait_seconds"],
            "serve.run_s": job["run_seconds"],
            "serve.notify_s": done_at - record.finished_at,
            "serve.result_s": latency - (done - start),
            "serve.result_bytes": len(raw),
            "serve.attempts": job["attempts"],
        })

    def _quiesce(self) -> list[str]:
        """Wait until every job is archived; returns their run dirs."""
        dirs = []
        for job_id in self.jobs:
            record = self.service.runtime.job(job_id)
            deadline = time.monotonic() + 60.0
            while record.run_dir is None and time.monotonic() < deadline:
                time.sleep(0.01)
            if record.run_dir is None:
                raise checks.CheckFailure(f"job {job_id} was never archived")
            dirs.append(record.run_dir)
        return dirs

    def finish(self) -> None:
        """Phi/lambda of every timed job, from its archived metrics."""
        for run_dir in self._quiesce():
            with open(os.path.join(run_dir, "metrics.json")) as handle:
                series = {s["name"]: s["values"]
                          for s in json.load(handle)["series"]}
            checks.check_history(series["phi_lower"], series["phi_upper"],
                                 series["lam"], where=run_dir)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
        if self.service is not None:
            self.service.stop(drain=True, timeout=30.0)
            self.service = None


# ---------------------------------------------------------------------------
# race-portfolio
# ---------------------------------------------------------------------------

class RaceWorkload(Workload):
    """A six-variant race on two workers, then promotion."""

    name = "race-portfolio"
    #: Which variant wins can depend on whether a finishing variant's
    #: result reaches the controller before the round that would kill it
    #: is judged (see CHANGES.md), so repeated races on one design need
    #: not repeat their winner.
    deterministic = False

    def __init__(self, sizes: Sizes) -> None:
        super().__init__(sizes)
        self.specs = [DesignSpec(f"race{k}", cells=sizes.race_cells)
                      for k in range(sizes.race_designs)]
        self.designs: list[tuple[Design, object]] = []
        self.trace = False

    def setup(self, work: str, seed: int, trace: bool) -> list[float]:
        samples: list[float] = []
        for k, spec in enumerate(self.specs):
            design = generate(spec, (seed, k))
            aux = write_bookshelf(design, os.path.join(work, "designs"))
            times, netlist = _time_reads(aux, self.sizes.reads)
            samples += times
            self.designs.append((design, netlist))
        self.trace = trace
        self.registry = os.path.join(work, "registry")
        return samples

    def round(self) -> int:
        return len(self.designs)

    def operate(self, index: int) -> OpResult:
        from repro.race import controller, portfolio, promotion

        k = index % len(self.designs)
        design, netlist = self.designs[k]
        variants = portfolio.build_portfolio(
            seeds=(11, 23), efforts=(2, 6),
            variants={"double": {"lambda_mode": "double"}})
        race = controller.RaceController(variants, netlist=netlist,
                                         max_workers=2, trace=self.trace)
        start = time.perf_counter()
        result = race.execute()
        promotion.promote(result, self.registry)
        latency = time.perf_counter() - start

        winner = result.winner_outcome
        checks.check_winner(result.winner,
                            winner.status if winner is not None else None,
                            {d.variant_id for d in result.decisions})
        for vid, view in result.views.items():
            if view.iterations:
                checks.check_history(view.series["phi_lower"],
                                     view.series["phi_upper"],
                                     view.series["lam"], where=vid)
        x = np.array(winner.placement["x"], dtype=np.float64)
        y = np.array(winner.placement["y"], dtype=np.float64)
        wirelength = checks.hpwl(design, x, y)
        checks.check_reported_hpwl(winner.hpwl_upper, wirelength)
        scaled, _ = checks.scaled_hpwl(design, x, y, 1.0)
        outcomes = result.outcomes.values()
        return OpResult(latency, wirelength, scaled, key=k, layer={
            "race.variants": len(result.outcomes),
            "race.kills": len(result.decisions),
            "race.rounds": result.rounds,
            "race.retries": sum(o.retried for o in outcomes),
            "race.useful_ratio": winner.iterations
            / max(sum(o.iterations for o in outcomes), 1),
        })


def _flow(sizes: Sizes) -> CliWorkload:
    specs = [DesignSpec(f"flow{k}", cells=sizes.flow_cells,
                        macros=sizes.flow_macros, fixed_macros=True)
             for k in range(sizes.flow_designs)]
    return CliWorkload("flow-mixed", specs, 0.8, [], True, sizes,
                       FAULT_DESIGN)


def _gp(sizes: Sizes) -> CliWorkload:
    specs = [DesignSpec(f"gp{k}", cells=sizes.gp_cells, utilization=0.7)
             for k in range(sizes.gp_designs)]
    return CliWorkload("gp-large", specs, 1.0, ["--skip-detailed"], False,
                       sizes)


#: name -> factory(sizes)
WORKLOADS = {
    "flow-mixed": _flow,
    "gp-large": _gp,
    "serve-small": ServeWorkload,
    "race-portfolio": RaceWorkload,
}
