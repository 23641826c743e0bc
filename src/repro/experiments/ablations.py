"""Ablation studies for the design choices DESIGN.md calls out.

Not a paper table, but the paper motivates each of these choices; the
ablations quantify them on our substrate:

* lambda schedule: Formula (12) vs SimPL's fixed additive vs pure doubling,
* pseudo-net epsilon: 0.5 / 1.5 (paper) / 3.0 row heights,
* net model: B2B vs clique vs star vs hybrid,
* interconnect model family: linearized quadratic vs log-sum-exp
  (the Section S1 agnosticism claim),
* grid schedule: coarse-to-fine (default) vs finest-always,
* macro handling (2006 suites): shredding+per-macro-lambda vs neither.
"""

from __future__ import annotations

import os

from ..core import ComPLxConfig
from ..metrics import ComparisonTable
from ..workloads import suite_entry
from .common import load_design, results_dir
from ..core import ComPLxPlacer
from ..flow import legalize_and_detail
from ..models import hpwl


def _flow_with_config(netlist, config: ComPLxConfig) -> tuple[float, float, int]:
    """(legal HPWL, gp+dp seconds, iterations) for a config."""
    import time

    placer = ComPLxPlacer(netlist, config)
    t0 = time.perf_counter()
    result = placer.place()
    gp = time.perf_counter() - t0
    t1 = time.perf_counter()
    legal, _ = legalize_and_detail(netlist, result.upper, "tetris")
    dpt = time.perf_counter() - t1
    return hpwl(netlist, legal), gp + dpt, result.iterations


ABLATIONS: dict[str, dict[str, dict]] = {
    "lambda_schedule": {
        "formula12": {"lambda_mode": "complx"},
        "simpl_additive": {"lambda_mode": "simpl"},
        "pure_doubling": {"lambda_mode": "double"},
    },
    "anchor_eps": {
        "eps_0.5": {"eps_rows": 0.5},
        "eps_1.5_paper": {"eps_rows": 1.5},
        "eps_3.0": {"eps_rows": 3.0},
    },
    "net_model": {
        "b2b": {"net_model": "b2b"},
        "clique": {"net_model": "clique"},
        "star": {"net_model": "star"},
        "hybrid": {"net_model": "hybrid"},
    },
    "grid_schedule": {
        "coarse_to_fine": {"finest_grid_only": False},
        "finest_always": {"finest_grid_only": True},
    },
    # S2's two formulations of the feasibility projection.
    "projection_method": {
        "topdown_bisection": {"projection_method": "topdown"},
        "alternating_1d": {"projection_method": "alternating"},
    },
    # The paper's interconnect-model-agnosticism claim: the same
    # primal-dual loop with the quadratic vs the log-sum-exp model.
    "interconnect": {
        "linearized_quadratic": {"net_model": "b2b"},
        "log_sum_exp": {"net_model": "lse", "max_iterations": 40},
    },
}


def run_ablation(
    group: str,
    suite: str = "adaptec1_s",
    scale: float = 0.2,
    gamma: float | None = None,
) -> ComparisonTable:
    """Run one ablation group on one suite."""
    if group not in ABLATIONS:
        raise KeyError(f"unknown ablation {group!r}; known: {list(ABLATIONS)}")
    if gamma is None:
        gamma = suite_entry(suite).target_density
    design = load_design(suite, scale)
    table = ComparisonTable(
        f"Ablation '{group}' on {suite} (scale {scale})",
    )
    for variant, overrides in ABLATIONS[group].items():
        config = ComPLxConfig(gamma=gamma, **overrides)
        legal, seconds, iterations = _flow_with_config(design.netlist, config)
        table.add(variant, "legal HPWL", legal)
        table.add(variant, "seconds", seconds)
        table.add(variant, "iterations", float(iterations))
    table.reference_column = list(ABLATIONS[group])[0]
    return table


def run_macro_ablation(
    suite: str = "newblue1_s", scale: float = 0.2
) -> ComparisonTable:
    """Shredding / per-macro lambda ablation on a mixed-size suite."""
    gamma = suite_entry(suite).target_density
    design = load_design(suite, scale)
    table = ComparisonTable(f"Ablation 'macro_handling' on {suite}")
    variants = {
        "shred+macro_lambda": {"per_macro_lambda": True, "shred_rows": 2.0},
        "shred_only": {"per_macro_lambda": False, "shred_rows": 2.0},
        "coarse_shreds": {"per_macro_lambda": True, "shred_rows": 6.0},
    }
    for variant, overrides in variants.items():
        config = ComPLxConfig(gamma=gamma, **overrides)
        legal, seconds, iterations = _flow_with_config(design.netlist, config)
        table.add(variant, "legal HPWL", legal)
        table.add(variant, "seconds", seconds)
        table.add(variant, "iterations", float(iterations))
    table.reference_column = "shred+macro_lambda"
    return table


def main(scale: float = 0.2, out_dir: str | None = None) -> None:
    """Run the experiment and print the paper-shape checks."""
    out = results_dir(out_dir)
    for group in ABLATIONS:
        table = run_ablation(group, scale=scale)
        print(table.render())
        table.to_csv(os.path.join(out, f"ablation_{group}.csv"))
    table = run_macro_ablation(scale=scale)
    print(table.render())
    table.to_csv(os.path.join(out, "ablation_macro_handling.csv"))
