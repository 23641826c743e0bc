"""Preconditioned Conjugate Gradient for the placement systems.

ComPLx solves one SPD system per axis per global iteration.  A
Jacobi-preconditioned CG is the standard choice in quadratic placers
(SimPL uses exactly this); we provide our own implementation plus a
scipy fallback, both behind :func:`solve_spd`.

Our implementation exists for two reasons: (a) the paper's runtime claims
depend on warm-starting CG from the previous iterate, which we control
explicitly here, and (b) tests cross-check it against ``scipy``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .. import telemetry
from ..faults import hooks as fault_hooks


@dataclass
class CGResult:
    """Solution plus convergence diagnostics.

    ``residual_history`` holds the residual norm after every iteration
    (index 0 is the warm-start residual) when the caller asked for it;
    it is ``None`` on uninstrumented solves and for the scipy backend
    (whose callback exposes iterates, not residuals — recomputing them
    would add a matvec per iteration).
    """

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool
    residual_history: np.ndarray | None = None


def jacobi_pcg(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-6,
    max_iter: int | None = None,
    collect_residuals: bool = False,
) -> CGResult:
    """Jacobi-preconditioned CG for an SPD sparse system.

    ``tol`` is relative: iteration stops when ``||A x - b|| <= tol ||b||``.
    ``x0`` enables warm starts from the previous placement iterate.
    ``collect_residuals`` additionally returns the residual-norm
    trajectory; the norms are computed by the solver either way, so
    collection never perturbs the iterates.
    """
    n = rhs.shape[0]
    if n == 0:
        return CGResult(np.zeros(0, dtype=np.float64), 0, 0.0, True)
    if max_iter is None:
        max_iter = max(10 * n, 100)
    diag = matrix.diagonal()
    if np.any(diag <= 0):
        raise ValueError("matrix has non-positive diagonal; not SPD")
    inv_diag = 1.0 / diag

    def _history(norms: list[float]) -> np.ndarray | None:
        if not collect_residuals:
            return None
        return np.asarray(norms, dtype=np.float64)

    x = np.zeros(n, dtype=np.float64) if x0 is None else np.array(x0, dtype=np.float64)
    r = rhs - matrix @ x
    b_norm = float(np.linalg.norm(rhs))
    threshold = tol * max(b_norm, 1e-300)
    r_norm = float(np.linalg.norm(r))
    norms = [r_norm] if collect_residuals else []
    if r_norm <= threshold:
        return CGResult(x, 0, r_norm, True, _history(norms))

    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        ap = matrix @ p
        pap = float(p @ ap)
        if pap <= 0:
            # Numerical breakdown: matrix not SPD within round-off.
            return CGResult(x, k, r_norm, False, _history(norms))
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        r_norm = float(np.linalg.norm(r))
        if collect_residuals:
            norms.append(r_norm)
        if r_norm <= threshold:
            return CGResult(x, k, r_norm, True, _history(norms))
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return CGResult(x, max_iter, r_norm, False, _history(norms))


def scipy_cg(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> CGResult:
    """scipy's CG with Jacobi preconditioning, same interface."""
    n = rhs.shape[0]
    if n == 0:
        return CGResult(np.zeros(0, dtype=np.float64), 0, 0.0, True)
    diag = matrix.diagonal()
    if np.any(diag <= 0):
        raise ValueError("matrix has non-positive diagonal; not SPD")
    precond = spla.LinearOperator((n, n), matvec=lambda v: v / diag)
    iters = 0

    def count(_: np.ndarray) -> None:
        nonlocal iters
        iters += 1

    x, info = spla.cg(
        matrix, rhs, x0=x0, rtol=tol, atol=0.0,
        maxiter=max_iter, M=precond, callback=count,
    )
    residual = float(np.linalg.norm(matrix @ x - rhs))
    return CGResult(x, iters, residual, info == 0)


def _dispatch(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    x0: np.ndarray | None,
    tol: float,
    max_iter: int | None,
    backend: str,
    collect_residuals: bool = False,
) -> CGResult:
    if backend == "own":
        return jacobi_pcg(matrix, rhs, x0=x0, tol=tol, max_iter=max_iter,
                          collect_residuals=collect_residuals)
    if backend == "scipy":
        return scipy_cg(matrix, rhs, x0=x0, tol=tol, max_iter=max_iter)
    raise ValueError(f"unknown CG backend {backend!r}")


def _stalled_result(rhs: np.ndarray, x0: np.ndarray | None) -> CGResult:
    """The injected-stall outcome: the warm start, unconverged."""
    stalled = (np.zeros(rhs.shape[0], dtype=np.float64) if x0 is None
               else np.array(x0, dtype=np.float64))
    return CGResult(stalled, 0, float("inf"), False)


def record_cg_solve(registry: telemetry.MetricsRegistry,
                    result: CGResult) -> None:
    """Fold one solve's diagnostics into a metrics registry.

    Besides the run totals, each solve appends to per-solve series
    indexed by the solve *ordinal* (``cg_solve_iterations``,
    ``cg_solve_residual``; unconverged ordinals also land in
    ``cg_stall_solves``), and the latest residual trajectory — when the
    backend collected one — replaces ``cg_last_residual_history``.
    The convergence doctor reads these to spot stall clusters.
    """
    ordinal = int(registry.counter("cg_solves").value)
    registry.counter("cg_solves").inc()
    registry.counter("cg_iterations_total").inc(result.iterations)
    registry.gauge("cg_last_residual").set(result.residual)
    registry.series("cg_solve_iterations").record(ordinal, result.iterations)
    registry.series("cg_solve_residual").record(ordinal, result.residual)
    if not result.converged:
        registry.counter("cg_stalls").inc()
        registry.series("cg_stall_solves").record(ordinal, result.residual)
    if result.residual_history is not None:
        history = registry.series("cg_last_residual_history")
        history.iterations = list(range(result.residual_history.shape[0]))
        history.values = [float(v) for v in result.residual_history]


def solve_spd(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-6,
    max_iter: int | None = None,
    backend: str = "own",
) -> CGResult:
    """Solve an SPD system with the selected backend (``own``/``scipy``).

    Each solve is one ``cg_solve`` span; when a metrics registry is
    installed the own backend also collects the residual trajectory and
    :func:`record_cg_solve` folds the solve into the registry.
    """
    fault_hooks.maybe_raise("cg.non_spd")
    stalled = fault_hooks.fire("cg.stall") is not None
    registry = telemetry.get_metrics()
    with telemetry.span("cg_solve", backend=backend,
                        size=int(rhs.shape[0])) as sp_:
        if stalled:
            result = _stalled_result(rhs, x0)
        else:
            result = _dispatch(matrix, rhs, x0, tol, max_iter, backend,
                               collect_residuals=registry is not None)
        sp_.annotate("iterations", result.iterations)
        sp_.annotate("residual", result.residual)
        sp_.annotate("converged", result.converged)
    if registry is not None:
        record_cg_solve(registry, result)
    return result
