"""Tests for the 1-D spreading primitives (convex subproblems of S2).

``linear_scale``, ``split_by_capacity`` and ``even_spread`` are the
primitives of the recursive look-ahead legalization, which lives on only
as the reference in ``_reference_projection``; they are imported from it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_projection import even_spread, linear_scale, split_by_capacity
from repro.projection import spread_with_spacing
from repro.projection.spreading import _isotonic_l2


class TestLinearScale:
    def test_endpoints_map(self):
        out = linear_scale(np.array([0.0, 5.0, 10.0]), 0, 10, 100, 120)
        assert np.allclose(out, [100, 110, 120])

    def test_degenerate_source_collapses_to_center(self):
        out = linear_scale(np.array([5.0, 5.0]), 5, 5, 0, 10)
        assert np.allclose(out, 5.0)

    def test_reversed_target_rejected(self):
        with pytest.raises(ValueError):
            linear_scale(np.array([1.0]), 0, 1, 10, 0)

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_order_preserved(self, vals):
        arr = np.sort(np.array(vals))
        out = linear_scale(arr, 0, 10, -3, 7)
        assert np.all(np.diff(out) >= -1e-12)


class TestSplitByCapacity:
    def test_even_split(self):
        areas = np.ones(10)
        assert split_by_capacity(areas, 50.0, 50.0) == 5

    def test_skewed_capacity(self):
        areas = np.ones(10)
        assert split_by_capacity(areas, 80.0, 20.0) == 8
        assert split_by_capacity(areas, 0.0, 100.0) == 0

    def test_skewed_areas(self):
        areas = np.array([10.0, 1.0, 1.0, 1.0, 1.0])
        # half the capacity on each side; the big cell alone is ~71%
        k = split_by_capacity(areas, 50.0, 50.0)
        assert k == 1

    def test_degenerate_inputs(self):
        assert split_by_capacity(np.zeros(4), 1.0, 1.0) == 2
        assert split_by_capacity(np.ones(4), 0.0, 0.0) == 2


class TestIsotonic:
    def test_already_monotone_unchanged(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(_isotonic_l2(v), v)

    def test_simple_violation_pooled(self):
        v = np.array([2.0, 1.0])
        assert np.allclose(_isotonic_l2(v), [1.5, 1.5])

    def test_matches_bruteforce_qp(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=6)
        out = _isotonic_l2(v)
        # verify optimality: any feasible perturbation is worse
        assert np.all(np.diff(out) >= -1e-12)
        base = ((out - v) ** 2).sum()
        for _ in range(200):
            trial = np.sort(v + rng.normal(0, 1, 6))
            assert ((trial - v) ** 2).sum() >= base - 1e-9

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=15))
    @settings(max_examples=50)
    def test_output_monotone_and_mean_preserving(self, vals):
        v = np.array(vals)
        out = _isotonic_l2(v)
        assert np.all(np.diff(out) >= -1e-9)
        assert out.mean() == pytest.approx(v.mean(), abs=1e-6)


class TestSpreadWithSpacing:
    def test_no_spacing_identity(self):
        coords = np.array([1.0, 2.0, 5.0])
        out = spread_with_spacing(coords, np.zeros(2), 0.0, 10.0)
        assert np.allclose(out, coords)

    def test_gaps_enforced(self):
        coords = np.array([4.0, 4.1, 4.2])
        spacing = np.array([1.0, 1.0])
        out = spread_with_spacing(coords, spacing, 0.0, 10.0)
        assert np.all(np.diff(out) >= 1.0 - 1e-9)
        assert out[0] >= 0.0 and out[-1] <= 10.0

    def test_window_respected(self):
        coords = np.array([0.0, 0.0, 0.0])
        spacing = np.array([2.0, 2.0])
        out = spread_with_spacing(coords, spacing, 0.0, 10.0)
        assert out[0] >= 0.0 - 1e-9
        assert out[-1] <= 10.0 + 1e-9

    def test_minimal_displacement(self):
        """Cells already satisfying spacing should not move."""
        coords = np.array([1.0, 3.0, 6.0])
        spacing = np.array([1.5, 1.5])
        out = spread_with_spacing(coords, spacing, 0.0, 10.0)
        assert np.allclose(out, coords)

    def test_overfull_window_scales_down(self):
        coords = np.array([0.0, 1.0, 2.0, 3.0])
        spacing = np.full(3, 5.0)  # needs 15 units in a 9-unit window
        out = spread_with_spacing(coords, spacing, 0.0, 9.0)
        assert out[0] >= -1e-9
        assert out[-1] <= 9.0 + 1e-9
        assert np.all(np.diff(out) > 0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            spread_with_spacing(np.array([2.0, 1.0]), np.array([0.5]), 0, 10)

    def test_wrong_spacing_length(self):
        with pytest.raises(ValueError):
            spread_with_spacing(np.array([1.0, 2.0]), np.zeros(3), 0, 10)

    def test_empty(self):
        out = spread_with_spacing(np.zeros(0), np.zeros(0), 0, 10)
        assert out.shape == (0,)

    @given(
        st.lists(st.floats(0, 20), min_size=2, max_size=10),
        st.floats(0.1, 2.0),
    )
    @settings(max_examples=50)
    def test_spacing_property(self, vals, gap):
        coords = np.sort(np.array(vals))
        n = coords.shape[0]
        window = max(coords[-1], gap * (n + 1), 1.0) + 1.0
        out = spread_with_spacing(coords, np.full(n - 1, gap), 0.0, window)
        assert np.all(np.diff(out) >= gap - 1e-6)
        assert out[0] >= -1e-6 and out[-1] <= window + 1e-6


class TestEvenSpread:
    def test_empty_and_single(self):
        assert even_spread(np.zeros(0), 0, 10).shape == (0,)
        assert even_spread(np.array([3.0]), 0, 10)[0] == 5.0

    def test_uniform_positions(self):
        out = even_spread(np.zeros(4), 0.0, 8.0)
        assert np.allclose(out, [1.0, 3.0, 5.0, 7.0])

    def test_inside_window(self):
        out = even_spread(np.zeros(7), 2.0, 5.0)
        assert out.min() >= 2.0 and out.max() <= 5.0
