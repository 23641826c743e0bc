"""Equivalence tests for the cached assembly fast path.

The load-bearing property of :mod:`repro.models.assembly`: every system
an :class:`AssemblyPlan` produces is **bit-identical** to the reference
assembler's — same CSR structure, same values, same rhs bytes — for all
four plannable net models, on randomized netlists, across placement
perturbations and net reweighting.  On top of the per-system property,
a full placer run through the plan must be byte-identical to a run
through the reference path, and a two-thread run must land on the same
final HPWL.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ComPLxConfig, NetlistBuilder, Placement, Rect
from repro.core import ComPLxPlacer
from repro.models.assembly import PLANNABLE_MODELS, AssemblyPlan
from repro.models.quadratic import build_system
from repro.netlist import CoreArea
from repro.workloads import SyntheticSpec, generate

MODELS = list(PLANNABLE_MODELS)
AXES = ("x", "y")


def random_netlist(seed: int, num_cells: int = 60):
    """A seeded synthetic design (pads, macros, multi-degree nets)."""
    spec = SyntheticSpec(
        name=f"asm{seed}", num_cells=num_cells, num_pads=12,
        num_fixed_macros=1, seed=seed,
    )
    return generate(spec).netlist


def random_placement(netlist, seed: int) -> Placement:
    rng = np.random.default_rng(seed)
    bounds = netlist.core.bounds
    p = Placement(
        rng.uniform(bounds.xlo, bounds.xhi, netlist.num_cells),
        rng.uniform(bounds.ylo, bounds.yhi, netlist.num_cells),
    )
    # Fixed cells keep their true coordinates (the assemblers fold them
    # into the rhs).
    fixed = ~netlist.movable
    p.x[fixed] = netlist.fixed_x[fixed]
    p.y[fixed] = netlist.fixed_y[fixed]
    return p


def assert_systems_identical(fast, ref):
    """Bitwise equality of two QuadraticSystems."""
    assert (fast.matrix - ref.matrix).nnz == 0
    assert np.array_equal(fast.matrix.data, ref.matrix.data)
    assert np.array_equal(fast.matrix.indices, ref.matrix.indices)
    assert np.array_equal(fast.matrix.indptr, ref.matrix.indptr)
    assert np.array_equal(fast.rhs, ref.rhs)
    assert np.array_equal(fast.slot_of_cell, ref.slot_of_cell)
    assert np.array_equal(fast.cell_of_slot, ref.cell_of_slot)


class TestPlanValidation:
    def test_rejects_unknown_model(self):
        nl = random_netlist(seed=0)
        with pytest.raises(ValueError, match="unplannable"):
            AssemblyPlan(nl, model="lse")

    def test_rejects_bad_eps(self):
        nl = random_netlist(seed=0)
        with pytest.raises(ValueError, match="eps"):
            AssemblyPlan(nl, model="b2b", eps=0.0)

    def test_rejects_bad_axis(self):
        nl = random_netlist(seed=0)
        plan = AssemblyPlan(nl, model="b2b")
        with pytest.raises(ValueError, match="axis"):
            plan.build_system(random_placement(nl, seed=1), "z")


class TestBitIdenticalSystems:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_random_netlists(self, model, seed):
        nl = random_netlist(seed=seed)
        plan = AssemblyPlan(nl, model=model)
        for pseed in (10, 11, 12):
            p = random_placement(nl, seed=pseed)
            for axis in AXES:
                fast = plan.build_system(p, axis)
                ref = plan.reference_system(p, axis)
                assert_systems_identical(fast, ref)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_direct_build_system(self, model):
        nl = random_netlist(seed=3)
        plan = AssemblyPlan(nl, model=model, eps=0.5, hybrid_threshold=4)
        p = random_placement(nl, seed=20)
        for axis in AXES:
            fast = plan.build_system(p, axis)
            ref = build_system(nl, p, axis, model=model, eps=0.5,
                               hybrid_threshold=4)
            assert_systems_identical(fast, ref)

    @pytest.mark.parametrize("model", MODELS)
    def test_survives_net_reweighting(self, model):
        # Timing/power-driven flows mutate net_weights in place between
        # iterations; the plan must notice and rebuild its weight state.
        nl = random_netlist(seed=4)
        plan = AssemblyPlan(nl, model=model)
        p = random_placement(nl, seed=30)
        assert_systems_identical(plan.build_system(p, "x"),
                                 plan.reference_system(p, "x"))
        nl.net_weights *= 1.5
        nl.net_weights[0] = 3.25
        for axis in AXES:
            assert_systems_identical(plan.build_system(p, axis),
                                     plan.reference_system(p, axis))

    @pytest.mark.parametrize("model", ["clique", "star"])
    def test_static_cache_tracks_fixed_cells(self, model):
        # The frozen CSR caches fold fixed coordinates into the rhs; a
        # moved fixed cell must invalidate them.
        nl = random_netlist(seed=5)
        plan = AssemblyPlan(nl, model=model)
        p = random_placement(nl, seed=40)
        plan.build_system(p, "x")  # warm the cache
        q = p.copy()
        fixed = np.flatnonzero(~nl.movable)
        q.x[fixed[0]] += 7.0
        assert_systems_identical(plan.build_system(q, "x"),
                                 plan.reference_system(q, "x"))

    def test_returned_systems_are_iteration_local(self):
        # Anchors/regularization mutate matrix data and rhs in place;
        # that must not leak into the next build.
        nl = random_netlist(seed=6)
        plan = AssemblyPlan(nl, model="clique")
        p = random_placement(nl, seed=50)
        first = plan.build_system(p, "x")
        first.add_anchor(int(plan.cell_of_slot[0]), 10.0, 1.0)
        second = plan.build_system(p, "x")
        assert_systems_identical(second, plan.reference_system(p, "x"))

    def test_degenerate_all_single_pin_nets(self):
        core = CoreArea.uniform(Rect(0, 0, 10, 10), row_height=1.0)
        b = NetlistBuilder("deg", core=core)
        b.add_cell("a", 1.0, 1.0)
        b.add_cell("b", 1.0, 1.0)
        b.add_net("n0", [("a", 0.0, 0.0)])
        b.add_net("n1", [("b", 0.0, 0.0)])
        nl = b.build()
        p = Placement(np.array([2.0, 8.0]), np.array([5.0, 5.0]))
        plan = AssemblyPlan(nl, model="b2b")
        for axis in AXES:
            fast = plan.build_system(p, axis)
            assert_systems_identical(fast, plan.reference_system(p, axis))
            assert fast.matrix.nnz == 0


class ReferencePlan:
    """Shim with the AssemblyPlan interface backed by the slow path."""

    def __init__(self, netlist, model, eps, hybrid_threshold=3):
        self.netlist = netlist
        self.model = model
        self.eps = eps
        self.hybrid_threshold = hybrid_threshold

    def build_system(self, placement, axis):
        return build_system(
            self.netlist, placement, axis, model=self.model, eps=self.eps,
            hybrid_threshold=self.hybrid_threshold,
        )


def _run_placer(netlist, monkeypatch=None, reference=False):
    config = ComPLxConfig(max_iterations=8, seed=7)
    placer = ComPLxPlacer(netlist, config)
    if reference:
        placer._plan = ReferencePlan(netlist, config.net_model,
                                     placer._b2b_eps)
    return placer.place()


class TestFullRunRegression:
    @pytest.fixture(scope="class")
    def design(self):
        return random_netlist(seed=8, num_cells=80)

    def test_plan_run_byte_identical_to_reference_run(self, design):
        # The headline guarantee: the cached fast path changes *nothing*
        # about the numbers, only how fast they are produced.
        fast = _run_placer(design)
        ref = _run_placer(design, reference=True)
        for attr in ("lower", "upper"):
            assert np.array_equal(getattr(fast, attr).x,
                                  getattr(ref, attr).x)
            assert np.array_equal(getattr(fast, attr).y,
                                  getattr(ref, attr).y)
        assert (fast.history.records[-1].phi_upper
                == ref.history.records[-1].phi_upper)


class TestPinNetIdsMemoization:
    def test_cached_and_read_only(self, tiny_netlist):
        first = tiny_netlist.pin_net_ids()
        second = tiny_netlist.pin_net_ids()
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 99

    def test_values(self, tiny_netlist):
        ids = tiny_netlist.pin_net_ids()
        expected = np.repeat(
            np.arange(tiny_netlist.num_nets), tiny_netlist.net_degrees,
        )
        assert np.array_equal(ids, expected)
