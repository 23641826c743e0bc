"""Configuration for the ComPLx placer.

Defaults reproduce the paper's "Default Config." column of Table 1; the
other two columns are the ``finest_grid_only`` and ``dp_each_iteration``
variants.  SimPL is recovered by :func:`simpl_config` (Section 5: SimPL
is a special case of ComPLx).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "ComPLxConfig",
    "ResilienceConfig",
    "default_config",
    "dp_every_iteration_config",
    "finest_grid_config",
    "resilient_config",
    "simpl_config",
]


@dataclass
class ResilienceConfig:
    """Knobs of the resilience runtime (:mod:`repro.resilience`).

    Attaching an instance to :attr:`ComPLxConfig.resilience` runs the
    placer under a Supervisor that recovers from faults instead of
    aborting.  The default ``None`` keeps the unsupervised loop and its
    bit-identical trajectory.

    * ``max_retries`` — rollback/damped-retry budget per iteration for
      numerical faults and invariant violations.
    * ``lambda_damping`` — multiplicative damping of the lambda step on
      each retry of a faulted iteration.
    * ``cg_retries`` — regularized cold-start retries of a stalled or
      non-SPD CG solve before falling back to ``cg_fallback_backend``.
    * ``deadline_seconds`` — wall-clock budget for global placement;
      when exceeded the run exits gracefully with the best-so-far
      feasible placement (``None`` disables).
    * ``checkpoint_every`` / ``checkpoint_path`` — write a versioned
      checkpoint of the full optimizer state every N completed
      iterations (0 disables) to ``checkpoint_path`` (atomic rolling
      file; resume with ``ComPLxPlacer.place(resume_from=...)``).
    """

    max_retries: int = 3
    lambda_damping: float = 0.5
    cg_retries: int = 2
    cg_fallback_backend: str = "scipy"
    deadline_seconds: float | None = None
    checkpoint_every: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 < self.lambda_damping <= 1.0:
            raise ValueError("lambda_damping must lie in (0, 1]")
        if self.cg_retries < 0:
            raise ValueError("cg_retries must be >= 0")
        if self.cg_fallback_backend not in ("own", "scipy"):
            raise ValueError(
                f"unknown CG fallback backend {self.cg_fallback_backend!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError(
                "checkpoint_every > 0 requires a checkpoint_path"
            )


@dataclass
class ComPLxConfig:
    """All knobs of the ComPLx placer.

    Interconnect model
    ------------------
    * ``net_model`` — ``b2b`` (default; the SimPL/ComPLx model), ``clique``,
      ``star`` or ``hybrid``; ``lse`` switches the primal step to nonlinear
      CG on the log-sum-exp objective.
    * ``eps_rows`` — pseudo-net epsilon in row heights (paper: 1.5).
    * ``b2b_eps_rows`` — epsilon bounding B2B denominators away from zero.

    Lagrange multiplier schedule (Section 4)
    ----------------------------------------
    * ``lambda_init_ratio`` — lambda_1 = Phi / (ratio * Pi); paper: 100.
    * ``lambda_growth_cap`` — max multiplicative growth per iteration
      (paper: 2.0, i.e. at most +100%).
    * ``lambda_h_factor`` — the scaling constant ``h`` of Formula (12)
      expressed as a multiple of lambda_1.

    Feasibility projection
    ----------------------
    * ``gamma`` — target utilization/density in (0, 1].
    * ``initial_bins`` / ``refine_every`` / ``max_bins`` — coarse-to-fine
      grid schedule; the grid doubles every ``refine_every`` iterations.
      ``max_bins=None`` picks the finest grid from the netlist size.
    * ``projection_method`` — ``topdown`` (SimPL-style bisection) or
      ``alternating`` (the S2 alternating-1D-pass formulation).
    * ``finest_grid_only`` — Table 1 "Finest Grid" variant.
    * ``dp_each_iteration`` — Table 1 "P_C += FastPlace-DP" variant: run
      detailed placement on every projected placement.

    Termination
    -----------
    * ``max_iterations``; ``gap_tol`` — stop when the relative duality gap
      (Phi_ub - Phi_lb)/Phi_ub falls below this; ``pi_tol_fraction`` —
      stop when Pi drops below this fraction of its initial value.

    Mixed-size / timing extensions
    ------------------------------
    * ``per_macro_lambda`` — scale each macro's anchor weight by its area
      ratio to the average standard cell (Section 5).
    * ``shred_rows`` — macro shred size in row heights.

    Correctness contracts
    ---------------------
    * ``check_invariants`` — verify the stage-boundary invariants of
      :mod:`repro.core.invariants` after every projection, multiplier
      and primal step (finite coordinates, core containment, lambda
      monotonicity, Pi decay, near-feasible density of ``P_C``).  On in
      the test suite, off by default so benchmarks pay nothing.
    * ``invariant_density_slack_bins`` — how many bin areas a single bin
      of the projected view may exceed its target capacity by before
      the density contract fires.
    """

    # interconnect model
    net_model: str = "b2b"
    eps_rows: float = 1.5
    b2b_eps_rows: float = 0.5
    lse_gamma_fraction: float = 0.01

    # multiplier schedule
    lambda_init_ratio: float = 100.0
    lambda_growth_cap: float = 2.0
    lambda_h_factor: float = 20.0
    lambda_mode: str = "complx"

    # projection
    gamma: float = 1.0
    projection_method: str = "topdown"
    initial_bins: int = 8
    refine_every: int = 4
    max_bins: int | None = None
    finest_grid_only: bool = False
    leaf_size: int = 3
    shred_rows: float = 2.0

    # solver
    cg_backend: str = "own"
    cg_tol: float = 1e-5
    cg_max_iter: int = 500
    init_sweeps: int = 3
    nlcg_max_iter: int = 60

    # termination
    max_iterations: int = 100
    gap_tol: float = 0.08
    pi_tol_fraction: float = 0.02
    #: Coloquinte-style early exit: when set, stop as soon as the
    #: relative duality gap closes below this tolerance, recorded as
    #: ``stop_reason="gap_closed"``.  Unlike ``gap_tol`` (the paper's
    #: refined criterion, checked alongside Pi feasibility), this is an
    #: aggressive portfolio/racing knob — healthy variants finish early
    #: instead of burning their iteration budget.  ``None`` (default)
    #: keeps the legacy trajectory bit-identical.
    gap_tolerance: float | None = None

    # extensions
    per_macro_lambda: bool = True
    dp_each_iteration: bool = False

    # correctness contracts
    check_invariants: bool = False
    invariant_density_slack_bins: float = 1.0

    # reproducibility
    seed: int = 0

    # resilience runtime (None = unsupervised, bit-identical legacy loop)
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if self.net_model not in ("b2b", "clique", "star", "hybrid", "lse"):
            raise ValueError(f"unknown net model {self.net_model!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.lambda_growth_cap <= 1.0:
            raise ValueError("lambda growth cap must exceed 1")
        if self.lambda_init_ratio <= 0:
            raise ValueError("lambda_init_ratio must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.projection_method not in ("topdown", "alternating"):
            raise ValueError(
                f"unknown projection method {self.projection_method!r}"
            )
        if self.invariant_density_slack_bins <= 0:
            raise ValueError("invariant_density_slack_bins must be positive")
        if self.gap_tolerance is not None and not 0.0 < self.gap_tolerance < 1.0:
            raise ValueError("gap_tolerance must lie in (0, 1)")

    def with_overrides(self, **kwargs) -> "ComPLxConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


def default_config(**overrides) -> ComPLxConfig:
    """The paper's Default Config. (Table 1, rightmost columns)."""
    return ComPLxConfig(**overrides)


def finest_grid_config(**overrides) -> ComPLxConfig:
    """Table 1 "Finest Grid": the finest grid during all iterations."""
    return ComPLxConfig(finest_grid_only=True, **overrides)


def dp_every_iteration_config(**overrides) -> ComPLxConfig:
    """Table 1 "P_C += FastPlace-DP": detailed-place every projection."""
    return ComPLxConfig(dp_each_iteration=True, **overrides)


def resilient_config(**overrides) -> ComPLxConfig:
    """Default config with the resilience runtime attached.

    Keyword arguments beginning with no ``resilience`` are ComPLx
    overrides; pass ``resilience=ResilienceConfig(...)`` explicitly to
    tune retry budgets, deadlines or checkpointing.
    """
    overrides.setdefault("resilience", ResilienceConfig())
    return ComPLxConfig(**overrides)


def simpl_config(**overrides) -> ComPLxConfig:
    """SimPL as a special case of ComPLx (paper Section 5).

    SimPL's pseudo-net weights grow by a fixed additive increment rather
    than ComPLx's Pi-proportional Formula (12), it has no per-macro
    multipliers, and it uses a slightly laxer stopping rule.
    """
    base = dict(
        lambda_mode="simpl",
        lambda_h_factor=14.0,
        per_macro_lambda=False,
        gap_tol=0.10,
    )
    base.update(overrides)
    return ComPLxConfig(**base)
