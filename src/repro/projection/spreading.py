"""One-dimensional spreading for the alternating feasibility projection.

Paper Section S2 formalizes SimPL-style look-ahead legalization as a
sequence of convex one-dimensional problems: after sorting, the distances
between neighboring cells become the variables, subject to per-window
area (density) lower bounds — a convex feasible set.
:func:`spread_with_spacing` solves one such problem: minimum-displacement
order-preserving spreading with pairwise spacing lower bounds, exactly
(in L2) with pool-adjacent-violators (PAVA) after a change of variables.
"""

from __future__ import annotations

import numpy as np


def _isotonic_l2(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted L2 isotonic regression (non-decreasing) via PAVA."""
    n = values.shape[0]
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    # Blocks represented as (mean, weight, count) merged bottom-up.
    means: list[float] = []
    wsum: list[float] = []
    count: list[int] = []
    for v, w in zip(values, weights):
        means.append(float(v))
        wsum.append(float(w))
        count.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2, c2 = means.pop(), wsum.pop(), count.pop()
            m1, w1, c1 = means.pop(), wsum.pop(), count.pop()
            w = w1 + w2
            means.append((m1 * w1 + m2 * w2) / w)
            wsum.append(w)
            count.append(c1 + c2)
    out = np.empty(n, dtype=np.float64)
    pos = 0
    for m, c in zip(means, count):
        out[pos:pos + c] = m
        pos += c
    return out


def spread_with_spacing(
    coords: np.ndarray,
    spacing: np.ndarray,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Minimum-displacement spread with neighbor spacing lower bounds.

    Given coordinates already in non-decreasing *order* (values may
    violate spacing), find new coordinates ``z`` minimizing
    ``sum (z_i - coords_i)^2`` subject to

        z_{i+1} - z_i >= spacing_i      and      lo <= z_i <= hi'

    where ``hi'`` accounts for remaining cells.  Change of variables
    ``u_i = z_i - prefix_i`` (``prefix_i = sum_{j<i} spacing_j``) turns the
    gap constraints into monotonicity, solved exactly by PAVA, then the
    box constraints are imposed by clamping (which preserves optimality
    for this separable problem).
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if n == 0:
        return coords.copy()
    spacing = np.asarray(spacing, dtype=np.float64)
    if spacing.shape[0] != max(n - 1, 0):
        raise ValueError("need one spacing value per adjacent pair")
    if np.any(np.diff(coords) < -1e-9):
        raise ValueError("coords must be sorted non-decreasingly")

    prefix = np.concatenate([[0.0], np.cumsum(spacing)])
    u = _isotonic_l2(coords - prefix)
    z = u + prefix

    # Enforce the window: clamp from the left then from the right.  The
    # total span required is prefix[-1]; if it exceeds the window we scale
    # the spacings down uniformly (the region is overfull; the caller's
    # density targets guarantee this is rare).
    span = prefix[-1]
    window = hi - lo
    if span > window and span > 0:
        scale = window / span
        prefix = prefix * scale
        z = _isotonic_l2(coords - prefix) + prefix
    z = np.maximum(z, lo + prefix - prefix[0])
    z = np.minimum(z, hi - (prefix[-1] - prefix))
    # A final monotone repair in case clamping broke a gap (degenerate
    # windows only).
    for i in range(1, n):
        if z[i] - z[i - 1] < prefix[i] - prefix[i - 1] - 1e-12:
            z[i] = z[i - 1] + (prefix[i] - prefix[i - 1])
    return z
