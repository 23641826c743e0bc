"""The ComPLx global placer: projected-subgradient primal-dual Lagrange
optimization (paper Sections 3-5).

One global placement iteration is:

1. **dual / projection step** — ``(x°, y°) = P_C(x, y)``: look-ahead
   legalization produces a density-feasible anchor placement; its L1
   displacement is the violation ``Pi``,
2. **multiplier step** — ``lambda`` is initialized as ``Phi/(100 Pi)`` and
   then advanced by Formula (12),
3. **primal step** — minimize the simplified Lagrangian (Formula 10):
   interconnect model + pseudo-net anchors, either by solving the SPD
   linearized-quadratic systems with CG (the SimPL-style default) or by
   nonlinear CG on the log-sum-exp model.

The loop maintains a *lower-bound* placement (the primal iterate, whose
wHPWL underestimates the achievable cost) and an *upper-bound* feasible
placement (the projection) satisfying the weak-duality sandwich of
Formula (7); it stops on the duality gap, near-feasibility, or the
iteration budget.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .. import telemetry
from ..faults import hooks as fault_hooks
from ..models.assembly import AssemblyPlan
from ..models.hpwl import weighted_hpwl
from ..models.logsumexp import lse_wirelength
from ..netlist import Netlist, Placement
from ..projection import FeasibilityProjection
from ..solvers.cg import record_cg_solve, solve_spd, solve_spd_quiet
from ..solvers.nonlinear_cg import minimize_nlcg
from .anchors import add_anchors_to_system
from .config import ComPLxConfig
from .convergence import SelfConsistencyMonitor, StoppingRule
from .history import IterationRecord, RunHistory
from .invariants import InvariantSuite
from .lagrangian import LambdaSchedule, macro_lambda_scale

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.checkpoint import Checkpoint
    from ..resilience.supervisor import Supervisor

__all__ = [
    "ComPLxPlacer",
    "GlobalPlacementResult",
    "IterationCallback",
    "place",
]

logger = logging.getLogger(__name__)

#: Observer invoked after every iteration: (iteration, lower, upper).
IterationCallback = Callable[[int, Placement, Placement], None]


@dataclass
class GlobalPlacementResult:
    """Outcome of a ComPLx run."""

    lower: Placement                    # last primal iterate
    upper: Placement                    # last feasible (projected) iterate
    history: RunHistory
    consistency: SelfConsistencyMonitor
    config: ComPLxConfig
    runtime_seconds: float = 0.0
    extras: dict = field(default_factory=dict)
    _metrics: "telemetry.MetricsRegistry | None" = field(
        init=False, default=None, repr=False,
    )

    @property
    def final_lambda(self) -> float:
        return self.history.final_lambda

    @property
    def iterations(self) -> int:
        return self.history.iterations

    @property
    def metrics(self) -> "telemetry.MetricsRegistry":
        """Telemetry view of the run: per-iteration series (``lam``,
        ``pi``, ``phi_lower``, ``phi_upper``, ``lagrangian``,
        ``duality_gap``, ...) plus summary gauges.  Built lazily from
        the history, so rollback/restore of the record list is always
        reflected on first access."""
        if self._metrics is None:
            registry = self.history.to_metrics()
            registry.gauge("runtime_seconds").set(self.runtime_seconds)
            registry.gauge("iterations").set(self.history.iterations)
            registry.gauge("final_lambda").set(self.history.final_lambda)
            self._metrics = registry
        return self._metrics


@dataclass
class _LoopState:
    """Mutable state of one global placement run.

    Grouping the loop variables lets the Supervisor treat an iteration
    as a transaction (snapshot, run, roll back on fault) and lets the
    checkpoint module serialize/restore a run wholesale.
    """

    lower: Placement
    upper: Placement
    schedule: LambdaSchedule
    stopping: StoppingRule
    history: RunHistory
    monitor: SelfConsistencyMonitor
    checker: InvariantSuite | None = None
    pi_prev: float | None = None
    iteration: int = 0
    #: Multiplicative damping applied to lambda on supervised retries;
    #: exactly 1.0 on the fault-free path.
    lam_scale: float = 1.0


class ComPLxPlacer:
    """Primal-dual Lagrange global placement for one netlist.

    Parameters
    ----------
    netlist:
        The design to place.
    config:
        Algorithm knobs; defaults to the paper's default configuration.
    criticality:
        Optional per-cell multipliers ``gamma_i`` for the penalty term
        (Formula 13): timing/power-critical cells get values > 1 so the
        projection displaces them less.
    detailed_placer:
        Optional callable ``placement -> placement`` applied to each
        projected placement when ``config.dp_each_iteration`` is set
        (the Table 1 "P_C += FastPlace-DP" variant).
    """

    def __init__(
        self,
        netlist: Netlist,
        config: ComPLxConfig | None = None,
        criticality: np.ndarray | None = None,
        detailed_placer: Callable[[Placement], Placement] | None = None,
    ) -> None:
        self.netlist = netlist
        self.config = config or ComPLxConfig()
        if criticality is None:
            criticality = np.ones(netlist.num_cells, dtype=np.float64)
        criticality = np.asarray(criticality, dtype=np.float64)
        if criticality.shape != (netlist.num_cells,):
            raise ValueError("criticality needs one entry per cell")
        if np.any(criticality <= 0):
            raise ValueError("criticalities must be positive")
        self.criticality = criticality
        self.detailed_placer = detailed_placer
        if self.config.dp_each_iteration and detailed_placer is None:
            raise ValueError(
                "dp_each_iteration requires a detailed_placer callable"
            )

        #: Attached by :meth:`place` when ``config.resilience`` is set.
        self.supervisor: "Supervisor | None" = None
        #: Per-run iteration observer; bound by :meth:`place`.
        self.callback: IterationCallback | None = None
        self._last_cg_iterations = 0
        self._plan: AssemblyPlan | None = None

        self.projection = FeasibilityProjection(
            netlist,
            gamma=self.config.gamma,
            leaf_size=self.config.leaf_size,
            shred_rows=self.config.shred_rows,
            method=self.config.projection_method,
        )
        row_h = netlist.core.row_height
        self._anchor_eps = self.config.eps_rows * row_h
        self._b2b_eps = max(self.config.b2b_eps_rows * row_h, 1e-9)
        self._anchor_scale = self._build_anchor_scale()
        self._finest_bins = (
            self.config.max_bins
            if self.config.max_bins is not None
            else self.projection.default_shape()
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _build_anchor_scale(self) -> np.ndarray:
        scale = self.criticality.copy()
        if self.config.per_macro_lambda:
            scale = scale * macro_lambda_scale(self.netlist)
        return scale

    def _grid_bins(self, iteration: int) -> int:
        """Coarse-to-fine schedule: double every ``refine_every`` iters."""
        if self.config.finest_grid_only:
            return self._finest_bins
        doublings = iteration // max(self.config.refine_every, 1)
        bins = self.config.initial_bins * (2 ** doublings)
        return int(min(bins, self._finest_bins))

    def _phi(self, placement: Placement) -> float:
        return weighted_hpwl(self.netlist, placement)

    # ------------------------------------------------------------------
    # primal steps
    # ------------------------------------------------------------------
    def _assembly_plan(self) -> AssemblyPlan:
        """The cached fast-assembly plan for this (netlist, model).

        Built lazily on the first primal step so ``lse`` runs (which have
        no linear system) never pay for it.
        """
        if self._plan is None:
            self._plan = AssemblyPlan(
                self.netlist, model=self.config.net_model,
                eps=self._b2b_eps,
            )
        return self._plan

    def adopt_plan(self, plan: AssemblyPlan) -> None:
        """Adopt a prebuilt :class:`AssemblyPlan` instead of building one.

        The racing runtime builds the plan once per netlist and shares it
        across all portfolio variants (fork inherits it copy-on-write),
        so N variants pay one symbolic-analysis cost.  The plan must have
        been built for this placer's model and epsilon — plan
        construction is deterministic, so an adopted plan yields the
        bit-identical trajectory a locally built one would.
        """
        if plan.model != self.config.net_model:
            raise ValueError(
                f"plan was built for net model {plan.model!r}, "
                f"config wants {self.config.net_model!r}"
            )
        if plan.eps != self._b2b_eps:
            raise ValueError(
                f"plan eps {plan.eps!r} != config eps {self._b2b_eps!r}"
            )
        self._plan = plan

    def _solve_quadratic(
        self,
        current: Placement,
        anchor: Placement | None,
        lam: float,
    ) -> Placement:
        """One linearized-quadratic primal step (both axes).

        Both axis systems are assembled first (on the main thread — the
        plan's buffers and the tracer's span stack are not thread-safe),
        then solved; with ``solver_threads > 1`` the two CG solves run
        concurrently.  Assembly reads only ``current``, so hoisting the
        y-axis build ahead of the x-axis solve leaves results unchanged.
        """
        out = current.copy()
        plan = self._assembly_plan()
        systems: dict[str, object] = {}
        warms: dict[str, np.ndarray] = {}
        for axis in ("x", "y"):
            with telemetry.span("b2b_build", axis=axis):
                system = plan.build_system(current, axis)
            if anchor is not None and lam > 0:
                self._add_anchors(system, current, anchor, lam, axis)
            self._regularize(system, axis)
            coords = current.x if axis == "x" else current.y
            systems[axis] = system
            warms[axis] = coords[system.cell_of_slot]
        solutions = self._solve_axes(systems, warms)
        for axis in ("x", "y"):
            solution = solutions[axis]
            logger.debug(
                "CG %s-axis: %d iterations, residual=%.3g, converged=%s",
                axis, solution.iterations, solution.residual,
                solution.converged,
            )
            self._last_cg_iterations += solution.iterations
            target = out.x if axis == "x" else out.y
            target[systems[axis].cell_of_slot] = solution.x
        return self.netlist.clamp_to_core(out)

    def _solve_axes(self, systems: dict, warms: dict) -> dict:
        """Solve the per-axis SPD systems, concurrently when configured."""
        config = self.config
        if config.solver_threads > 1 and self.supervisor is None:
            # The Jacobi-PCG matvecs release the GIL, so two worker
            # threads overlap the x and y solves.  Workers run quiet
            # (the tracer's span stack is not thread-safe) but time
            # themselves with perf_counter when a tracer is installed;
            # the completed intervals are recorded from the main thread
            # on dedicated trace lanes so the overlap is visible in
            # chrome://tracing.  Metrics are recorded from the main
            # thread too, matching the sequential path.
            tracer = telemetry.get_tracer()
            registry = telemetry.get_metrics()

            def _solve_one(axis: str):
                # solve_spd_quiet keeps the worker call graph free of
                # telemetry (statcheck rule T2 enforces this).
                t0 = time.perf_counter() if tracer is not None else 0.0
                solution = solve_spd_quiet(
                    systems[axis].matrix, systems[axis].rhs,
                    x0=warms[axis], tol=config.cg_tol,
                    max_iter=config.cg_max_iter,
                    backend=config.cg_backend,
                    collect_residuals=registry is not None,
                )
                t1 = time.perf_counter() if tracer is not None else 0.0
                return solution, t0, t1

            with telemetry.span("cg_solve", backend=config.cg_backend,
                                threads=2) as sp:
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = {axis: pool.submit(_solve_one, axis)
                               for axis in ("x", "y")}
                    timed = {axis: f.result()
                             for axis, f in futures.items()}
                solutions = {axis: t[0] for axis, t in timed.items()}
                if tracer is not None:
                    # The iteration sum is only worth computing when a
                    # real span records it (G2: zero-overhead gating).
                    sp.annotate("iterations", sum(
                        s.iterations for s in solutions.values()))
                    for tid, axis in ((2, "x"), (3, "y")):
                        solution, t0, t1 = timed[axis]
                        tracer.record_span(
                            "cg_solve_axis", t0, t1, tid=tid, axis=axis,
                            backend=config.cg_backend,
                            iterations=solution.iterations,
                            residual=solution.residual,
                            converged=solution.converged,
                        )
            if registry is not None:
                for axis in ("x", "y"):
                    record_cg_solve(registry, solutions[axis])
            return solutions
        solutions = {}
        for axis in ("x", "y"):
            system = systems[axis]
            if self.supervisor is not None:
                # Stalled/non-SPD solves route through the bounded CG
                # recovery policy (regularized retries, backend fallback).
                solutions[axis] = self.supervisor.solve_spd(
                    system, warms[axis], tol=config.cg_tol,
                    max_iter=config.cg_max_iter,
                    backend=config.cg_backend,
                )
            else:
                solutions[axis] = solve_spd(
                    system.matrix, system.rhs, x0=warms[axis],
                    tol=config.cg_tol, max_iter=config.cg_max_iter,
                    backend=config.cg_backend,
                )
        return solutions

    def _add_anchors(self, system, current: Placement, anchor: Placement,
                     lam: float, axis: str) -> None:
        """Attach the pseudo-net anchors (overridable; RQL-style
        baselines hook in their force thresholding here)."""
        add_anchors_to_system(
            system, self.netlist, current, anchor, lam,
            self._anchor_eps, axis, scale=self._anchor_scale,
        )

    def _regularize(self, system, axis: str) -> None:
        """Weak center anchors on singular rows (isolated cells, or
        netlists without fixed pins) so the system stays SPD."""
        diag = system.matrix.diagonal()
        max_diag = float(diag.max()) if diag.size else 0.0
        if max_diag <= 0:
            weak = np.ones(system.size, dtype=np.float64)
        else:
            bad = diag <= 1e-12 * max_diag
            if not bad.any():
                return
            weak = np.where(bad, 1e-6 * max_diag, 0.0)
        center = self.netlist.core.bounds.center[0 if axis == "x" else 1]
        system.add_anchors(weak, np.full(system.size, center, dtype=np.float64))

    def _solve_lse(
        self,
        current: Placement,
        anchor: Placement | None,
        lam: float,
    ) -> Placement:
        """Nonlinear-CG primal step on the log-sum-exp model."""
        netlist = self.netlist
        movable = np.flatnonzero(netlist.movable)
        n = movable.shape[0]
        gamma = max(
            self.config.lse_gamma_fraction
            * max(netlist.core.bounds.width, netlist.core.bounds.height),
            1e-9,
        )
        beta = (0.1 * self._anchor_eps) ** 2
        scale = self._anchor_scale[movable]

        def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
            trial = current.copy()
            trial.x[movable] = z[:n]
            trial.y[movable] = z[n:]
            wl = lse_wirelength(netlist, trial, gamma)
            value = wl.value
            grad = np.concatenate([wl.grad_x[movable], wl.grad_y[movable]])
            if anchor is not None and lam > 0:
                dx = trial.x[movable] - anchor.x[movable]
                dy = trial.y[movable] - anchor.y[movable]
                rx = np.sqrt(dx**2 + beta)
                ry = np.sqrt(dy**2 + beta)
                value += lam * float((scale * (rx + ry)).sum())
                grad[:n] += lam * scale * dx / rx
                grad[n:] += lam * scale * dy / ry
            return value, grad

        z0 = np.concatenate([current.x[movable], current.y[movable]])
        result = minimize_nlcg(
            objective, z0, max_iter=self.config.nlcg_max_iter,
            grad_tol=1e-6 * max(n, 1),
        )
        out = current.copy()
        out.x[movable] = result.x[:n]
        out.y[movable] = result.x[n:]
        return self.netlist.clamp_to_core(out)

    def _primal_step(
        self, current: Placement, anchor: Placement | None, lam: float
    ) -> Placement:
        if self.config.net_model == "lse":
            return self._solve_lse(current, anchor, lam)
        return self._solve_quadratic(current, anchor, lam)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _run_iteration(self, k: int, st: "_LoopState") -> bool:
        """One full global placement iteration on the loop state.

        Returns True when a stopping criterion fired.  The state is a
        transaction: every placement is rebound (never mutated in
        place), so a Supervisor can snapshot references before the call
        and roll back on a fault.
        """
        with telemetry.span("iteration", k=k) as sp:
            stop = self._iteration_body(k, st, sp)
        return stop

    def _iteration_body(self, k: int, st: "_LoopState", sp) -> bool:
        netlist = self.netlist
        config = self.config
        iter_start = time.perf_counter()
        self._last_cg_iterations = 0
        bins = self._grid_bins(k - 1)
        with telemetry.span("projection", k=k, bins=bins):
            projected = self.projection(
                st.lower, nx=bins, ny=bins,
                keep_view=st.checker is not None,
            )
        st.upper = projected.placement
        if config.dp_each_iteration and self.detailed_placer is not None:
            st.upper = self.detailed_placer(st.upper)
        pi = projected.pi
        if st.checker is not None:
            view = None
            if projected.view is not None:
                view = (
                    projected.projected_view_x,
                    projected.projected_view_y,
                    projected.view.w,
                    projected.view.h,
                )
            st.checker.after_projection(
                k, projected.placement, pi,
                grid=self.projection.grid(bins, bins), view=view,
            )
        st.monitor.observe(k, st.lower, st.upper, netlist.movable)

        phi_lb = self._phi(st.lower)
        phi_ub = self._phi(st.upper)
        if not st.schedule.initialized:
            st.schedule.initialize(phi_lb, pi)
            st.stopping.note_initial_pi(pi)
        elif st.pi_prev is not None:
            st.schedule.update(st.pi_prev, pi)
        st.pi_prev = pi
        # lam_scale is 1.0 outside a supervised retry, and `x * 1.0` is
        # IEEE-exact, so the unsupervised trajectory is unchanged.
        lam = st.schedule.value * st.lam_scale
        if st.checker is not None:
            # The cap of Formula (12) only binds in the capped modes;
            # SimPL's additive ramp may exceed 2x early on.  The checker
            # sees the undamped schedule value so a supervised damped
            # retry does not read as a monotonicity break.
            st.checker.after_lambda(
                k, st.schedule.value,
                capped=config.lambda_mode in ("complx", "double"),
            )

        st.history.append(
            IterationRecord(
                iteration=k,
                lam=lam,
                phi_lower=phi_lb,
                phi_upper=phi_ub,
                pi=pi,
                lagrangian=phi_lb + lam * pi,
                overflow_percent=projected.overflow_percent,
                grid_bins=bins,
                cg_iterations=self._last_cg_iterations,
                runtime_seconds=time.perf_counter() - iter_start,
            )
        )
        sp.annotate("bins", bins)
        sp.annotate("pi", pi)
        sp.annotate("lam", lam)
        sp.annotate("phi_upper", phi_ub)
        if self.callback is not None:
            self.callback(k, st.lower, st.upper)
        logger.debug(
            "iter %d: bins=%d Phi_lb=%.4g Phi_ub=%.4g Pi=%.4g "
            "lambda=%.4g ovf=%.1f%%",
            k, bins, phi_lb, phi_ub, pi, lam,
            projected.overflow_percent,
        )

        stop, reason = st.stopping.should_stop(k, phi_lb, phi_ub, pi)
        if stop:
            st.history.stop_reason = reason
            st.iteration = k
            return True

        with telemetry.span("primal", k=k, model=config.net_model):
            st.lower = self._primal_step(st.lower, anchor=st.upper, lam=lam)
        st.lower = fault_hooks.corrupt_placement("primal.nan", st.lower)
        if st.checker is not None:
            # The invariant suite's finite-coordinate contract owns the
            # NaN screen when armed; its violation classifies as
            # 'invariant' rather than 'numerical'.
            st.checker.after_primal(k, st.lower)
        elif self.supervisor is not None:
            self.supervisor.check_numeric(k, st.lower, "primal")
        st.iteration = k
        return False

    def place(
        self,
        initial: Placement | None = None,
        callback: IterationCallback | None = None,
        resume_from: "str | Checkpoint | None" = None,
    ) -> GlobalPlacementResult:
        """Run global placement to convergence.

        ``resume_from`` continues a previous run from a checkpoint file
        (or loaded :class:`~repro.resilience.checkpoint.Checkpoint`); a
        checkpoint whose config/netlist fingerprint does not match
        raises :class:`~repro.resilience.checkpoint.CheckpointMismatchError`.
        """
        start_time = time.perf_counter()
        netlist = self.netlist
        config = self.config
        self.callback = callback
        supervisor: "Supervisor | None" = None
        if config.resilience is not None:
            from ..resilience.supervisor import Supervisor

            supervisor = Supervisor(self, config.resilience)
            supervisor.start_clock()
        self.supervisor = supervisor
        logger.info(
            "placing %s: %d cells, %d nets, gamma=%.2f, model=%s%s%s",
            netlist.name, netlist.num_cells, netlist.num_nets,
            config.gamma, config.net_model,
            ", invariants on" if config.check_invariants else "",
            ", supervised" if supervisor is not None else "",
        )

        checker = (
            InvariantSuite(
                netlist,
                gamma=config.gamma,
                density_slack_bins=config.invariant_density_slack_bins,
                lambda_growth_cap=config.lambda_growth_cap,
            )
            if config.check_invariants else None
        )
        schedule = LambdaSchedule(
            init_ratio=config.lambda_init_ratio,
            growth_cap=config.lambda_growth_cap,
            h_factor=config.lambda_h_factor,
            mode=config.lambda_mode,
        )
        stopping = StoppingRule(
            gap_tol=config.gap_tol,
            pi_tol_fraction=config.pi_tol_fraction,
            max_iterations=config.max_iterations,
            gap_tolerance=config.gap_tolerance,
        )

        place_span = telemetry.span(
            "global_place", netlist=netlist.name, cells=netlist.num_cells,
        )
        try:
            place_span.__enter__()
            if resume_from is not None:
                state = self._resume_state(
                    resume_from, checker, schedule, stopping,
                )
                start_k = state.iteration + 1
                logger.info("resumed %s from checkpoint at iteration %d",
                            netlist.name, state.iteration)
            else:
                bounds = netlist.core.bounds
                jitter = 0.005 * min(bounds.width, bounds.height)
                lower = (
                    initial.copy() if initial is not None
                    else netlist.initial_placement(jitter=jitter,
                                                   seed=config.seed)
                )
                # Initial unconstrained interconnect optimization
                # (lambda_0 = 0): a few re-linearized sweeps stabilize
                # the B2B model.
                self._last_cg_iterations = 0
                with telemetry.span("init_sweeps",
                                    sweeps=max(config.init_sweeps, 1)):
                    for _ in range(max(config.init_sweeps, 1)):
                        lower = self._primal_step(lower, anchor=None, lam=0.0)
                telemetry.record_stage_memory("init_sweeps")
                if checker is not None:
                    checker.after_init(lower)
                state = _LoopState(
                    lower=lower, upper=lower.copy(), schedule=schedule,
                    stopping=stopping, history=RunHistory(),
                    monitor=SelfConsistencyMonitor(), checker=checker,
                )
                start_k = 1

            stop = False
            for k in range(start_k, config.max_iterations + 1):
                if supervisor is not None and supervisor.deadline_exceeded():
                    supervisor.early_exit(state, "deadline")
                    stop = True
                    break
                fault_hooks.maybe_raise("loop.kill")
                if supervisor is None:
                    stop = self._run_iteration(k, state)
                else:
                    stop = supervisor.run_iteration(k, state)
                    supervisor.update_best(state)
                    if not stop:
                        supervisor.maybe_checkpoint(state)
                if stop:
                    break
            if not stop and not state.history.stop_reason:
                state.history.stop_reason = "max_iterations"
            telemetry.record_stage_memory("global_place")
        finally:
            place_span.__exit__(None, None, None)
            self.supervisor = None
            self.callback = None

        history = state.history
        logger.info(
            "done in %d iterations (%s), final lambda=%.4g",
            history.iterations, history.stop_reason, history.final_lambda,
        )
        extras: dict = {}
        if supervisor is not None:
            extras["resilience"] = supervisor.report()
            if supervisor.log.events:
                logger.info("%s", supervisor.log.summary())
        return GlobalPlacementResult(
            lower=state.lower,
            upper=state.upper,
            history=history,
            consistency=state.monitor,
            config=config,
            runtime_seconds=time.perf_counter() - start_time,
            extras=extras,
        )

    def _resume_state(
        self,
        resume_from: "str | Checkpoint",
        checker: InvariantSuite | None,
        schedule: LambdaSchedule,
        stopping: StoppingRule,
    ) -> "_LoopState":
        """Rebuild the loop state from a checkpoint, verifying identity."""
        from ..resilience.checkpoint import (
            CheckpointMismatchError,
            config_fingerprint,
            load_checkpoint,
        )

        ckpt = (
            load_checkpoint(resume_from) if isinstance(resume_from, str)
            else resume_from
        )
        expected = config_fingerprint(self.config, self.netlist)
        if ckpt.fingerprint != expected:
            raise CheckpointMismatchError(
                "checkpoint was written by a different config/netlist "
                f"(checkpoint {ckpt.fingerprint[:12]}..., "
                f"current {expected[:12]}...); refusing to resume"
            )
        state = _LoopState(
            lower=ckpt.lower, upper=ckpt.upper, schedule=schedule,
            stopping=stopping, history=RunHistory(),
            monitor=SelfConsistencyMonitor(), checker=checker,
        )
        ckpt.restore_into(state)
        if self.supervisor is not None:
            self.supervisor.resumed_from = ckpt.iteration
        return state


def place(netlist: Netlist, config: ComPLxConfig | None = None,
          **kwargs) -> GlobalPlacementResult:
    """One-call convenience wrapper: ``place(netlist).upper`` is the
    feasible global placement ready for legalization."""
    return ComPLxPlacer(netlist, config=config, **kwargs).place()
