"""Bit-identity of the fast detailed placer against its reference.

``_reference_detailed`` holds the evaluator and passes as first written
(numpy reductions per trial, list scans per slot lookup).  The fast
``repro.detailed`` must return the same bytes, the same report, and run
exactly the same trials and moves: every ``move_cost_delta`` agrees with
the reference bit for bit, on random designs with and without macros.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _reference_detailed import RefHPWLDelta, reference_place
from repro.detailed import DetailedPlacer, HPWLDelta
from repro.detailed.incremental import pairwise_sum, placement_cost
from repro.legalize import abacus_legalize
from repro.workloads import SyntheticSpec, generate


def legal_design(seed: int, cells: int = 80, fixed_macros: int = 1,
                 movable_macros: int = 0):
    """A seeded synthetic design and an Abacus-legal start for it."""
    nl = generate(SyntheticSpec(
        name=f"oracle{seed}", num_cells=cells, num_pads=12,
        num_fixed_macros=fixed_macros, num_movable_macros=movable_macros,
        macro_rows=(3, 6), seed=seed,
    )).netlist
    legal = abacus_legalize(nl, nl.initial_placement(jitter=3.0, seed=seed))
    return nl, legal


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def counting(monkeypatch, cls, counts: dict, tag: str) -> None:
    """Count ``cls``'s move_cost_delta / commit_move calls into
    ``counts[(tag, name)]``."""
    for name in ("move_cost_delta", "commit_move"):
        original = getattr(cls, name)

        def wrapper(self, *args, _original=original, _key=(tag, name)):
            counts[_key] = counts.get(_key, 0) + 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)


def assert_same_as_reference(monkeypatch, nl, legal) -> None:
    counts: dict = {}
    counting(monkeypatch, HPWLDelta, counts, "fast")
    counting(monkeypatch, RefHPWLDelta, counts, "ref")
    placer = DetailedPlacer(nl)
    out = placer.place(legal)
    ref_out, ref_report = reference_place(nl, legal)
    monkeypatch.undo()

    assert out.x.tobytes() == ref_out.x.tobytes()
    assert out.y.tobytes() == ref_out.y.tobytes()
    report = placer.last_report
    assert (report.rounds, report.moves) == (ref_report.rounds,
                                             ref_report.moves)
    assert bits(report.hpwl_before) == bits(ref_report.hpwl_before)
    assert bits(report.hpwl_after) == bits(ref_report.hpwl_after)
    for name in ("move_cost_delta", "commit_move"):
        assert counts.get(("fast", name)) == counts.get(("ref", name)), name
    assert counts[("fast", "move_cost_delta")] > 0


class TestDetailedPlacerMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_macro_designs(self, monkeypatch, seed):
        nl, legal = legal_design(seed, cells=120, fixed_macros=2)
        assert_same_as_reference(monkeypatch, nl, legal)

    def test_movable_macro_design(self, monkeypatch):
        nl, legal = legal_design(3, cells=120, fixed_macros=1,
                                 movable_macros=2)
        assert_same_as_reference(monkeypatch, nl, legal)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000), cells=st.integers(12, 70),
           fixed_macros=st.integers(0, 2))
    def test_random_small_netlists(self, monkeypatch, seed, cells,
                                   fixed_macros):
        nl, legal = legal_design(seed, cells=cells,
                                 fixed_macros=fixed_macros)
        assert_same_as_reference(monkeypatch, nl, legal)


class TestMoveCostDelta:
    """Random trials, each followed by a commit on both evaluators so
    their states stay in step."""

    @pytest.fixture(scope="class")
    def design(self):
        return legal_design(7, cells=150, fixed_macros=2)

    def run_trials(self, design, n_cells: int, same_row: bool,
                   seed: int) -> None:
        nl, legal = design
        fast, ref = HPWLDelta(nl, legal), RefHPWLDelta(nl, legal)
        rng = np.random.default_rng(seed)
        std = np.flatnonzero(nl.movable & ~nl.is_macro)
        bounds = nl.core.bounds
        rows = [r.y + 0.5 * r.height for r in nl.core.rows]
        for _ in range(300):
            cells = [int(c) for c in rng.choice(std, n_cells, replace=False)]
            new_x = [float(v) for v in
                     rng.uniform(bounds.xlo, bounds.xhi, n_cells)]
            if same_row:
                new_y = [float(ref.y[c]) for c in cells]
            else:
                new_y = [float(rows[int(r)])
                         for r in rng.integers(0, len(rows), n_cells)]
            before = (fast.x.copy(), fast.y.copy())
            delta = fast.move_cost_delta(cells, new_x, new_y)
            assert bits(delta) == bits(ref.move_cost_delta(cells, new_x,
                                                           new_y))
            assert np.array_equal(fast.x, before[0])
            assert np.array_equal(fast.y, before[1])
            if rng.random() < 0.3:
                fast.commit_move(cells, new_x, new_y)
                ref.commit_move(cells, new_x, new_y)
                assert bits(fast.total_hpwl()) == bits(ref.total_hpwl())
        assert fast.x.tobytes() == ref.x.tobytes()
        for cell in std[:40]:
            assert fast.optimal_region(int(cell)) == \
                ref.optimal_region(int(cell))

    def test_one_cell_moves(self, design):
        self.run_trials(design, 1, same_row=True, seed=1)
        self.run_trials(design, 1, same_row=False, seed=2)

    def test_two_cell_cross_row_moves(self, design):
        self.run_trials(design, 2, same_row=False, seed=3)

    def test_three_cell_moves(self, design):
        self.run_trials(design, 3, same_row=True, seed=4)
        self.run_trials(design, 3, same_row=False, seed=5)

    def test_placement_cost_matches_total(self, design):
        nl, legal = design
        assert bits(placement_cost(nl, legal)) == \
            bits(RefHPWLDelta(nl, legal).total_hpwl())


class TestPairwiseSum:
    @pytest.mark.parametrize("lengths", [
        range(1, 8), range(8, 129), (129, 130, 255, 256, 257, 1000, 4099),
    ], ids=["1-7", "8-128", "over-128"])
    def test_equals_np_sum(self, lengths):
        rng = np.random.default_rng(11)
        for n in lengths:
            for _ in range(5):
                # Mixed magnitudes make every change of order visible.
                values = rng.standard_normal(n) * 10.0 ** rng.integers(
                    -6, 7, n)
                assert bits(pairwise_sum(values.tolist())) == \
                    bits(np.sum(values))

    def test_empty_and_negative_zero(self):
        assert bits(pairwise_sum([])) == bits(np.sum(np.zeros(0)))
        for n in (1, 7, 8, 9, 200):
            assert bits(pairwise_sum([-0.0] * n)) == \
                bits(np.sum(np.full(n, -0.0)))
