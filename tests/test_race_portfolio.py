"""Portfolio builder: deterministic expansion and dedupe."""

import pytest

from repro.core.config import ComPLxConfig
from repro.core.effort import effort_overrides
from repro.race.portfolio import VariantSpec, build_portfolio


class TestVariantSpec:
    def test_explicit_overrides_beat_effort_preset(self):
        spec = VariantSpec("v", overrides={"max_iterations": 7}, effort=3)
        knobs = spec.effective_overrides()
        assert knobs["max_iterations"] == 7
        assert knobs["cg_tol"] == effort_overrides(3)["cg_tol"]

    def test_config_applies_on_top_of_base(self):
        base = ComPLxConfig(gamma=0.8)
        spec = VariantSpec("v", overrides={"max_iterations": 9})
        config = spec.config(base)
        assert config.gamma == 0.8
        assert config.max_iterations == 9

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            VariantSpec("")



class TestBuildPortfolio:
    def test_deterministic_order(self):
        portfolio = build_portfolio(
            seeds=(3, 1), efforts=(2,),
            variants={"x": {"gamma": 0.9}},
            base_overrides={"max_iterations": 30},
        )
        assert [s.variant_id for s in portfolio] == \
            ["base", "s3", "s1", "e2", "x"]
        # base knobs folded into every variant
        assert all(s.effective_overrides().get("max_iterations") == 30
                   or s.effort is not None for s in portfolio)

    def test_same_inputs_same_output(self):
        kwargs = dict(seeds=(1, 2), efforts=(4,),
                      variants={"a": {"gamma": 0.7}})
        assert build_portfolio(**kwargs) == build_portfolio(**kwargs)

    def test_knob_duplicates_dropped_first_wins(self):
        portfolio = build_portfolio(
            seeds=(), efforts=(),
            variants={"same-as-base": {}},
        )
        assert [s.variant_id for s in portfolio] == ["base"]

    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_portfolio(seeds=(2,), variants={"s2": {"gamma": 0.5}})

    def test_non_int_seed_rejected(self):
        with pytest.raises(ValueError):
            build_portfolio(seeds=("a",))

    def test_empty_portfolio_raises(self):
        with pytest.raises(ValueError, match="empty"):
            build_portfolio(include_base=False)
