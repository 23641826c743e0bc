"""Figure 1 benchmark: ComPLx convergence on the BIGBLUE4 stand-in.

Times the full global placement run whose history is Figure 1, and
asserts the figure's qualitative claims on the recorded series: L rises
early, Pi decays, Phi grows, weak duality holds throughout.
"""

from __future__ import annotations

import numpy as np

from repro.core import ComPLxConfig, ComPLxPlacer


def test_fig1_convergence_run(benchmark, design_cache):
    design = design_cache("bigblue4_s")
    placer = ComPLxPlacer(design.netlist, ComPLxConfig())

    result = benchmark.pedantic(placer.place, rounds=1, iterations=1)
    metrics = result.metrics
    lagrangian = metrics.series("lagrangian").as_array()
    phi = metrics.series("phi_lower").as_array()
    pi = metrics.series("pi").as_array()

    third = max(len(lagrangian) // 3, 1)
    assert lagrangian[third - 1] > lagrangian[0]      # steep early rise
    assert pi[-1] < 0.6 * pi[:3].max()                # Pi decreases
    assert phi[-1] > phi[0]                           # Phi increases
    assert np.all(phi <= metrics.series("phi_upper").as_array() + 1e-6)

    benchmark.extra_info["iterations"] = result.iterations
    benchmark.extra_info["final_lambda"] = result.final_lambda
