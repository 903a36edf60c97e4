"""The typed facade: equivalence with the legacy entry points."""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.analysis.montecarlo import blocking_probability, blocking_vs_m
from repro.core.models import Construction, MulticastModel
from repro.multistage.exhaustive import exact_minimal_m


def strip_meta(estimate):
    return (estimate.m, estimate.attempts, estimate.blocked, estimate.probability)


class TestFrozenConfigs:
    @pytest.mark.parametrize("config", [
        api.UniformConfig(), api.ExecConfig(), api.SearchConfig()])
    def test_configs_are_frozen(self, config):
        field = dataclasses.fields(config)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, None)

    def test_exec_config_cache(self, tmp_path):
        assert api.ExecConfig().cache() is None
        cache = api.ExecConfig(cache_dir=str(tmp_path)).cache()
        assert cache is not None

    def test_search_config_applied_pins_kernel(self):
        from repro.multistage.routing import get_routing_kernel

        ambient = get_routing_kernel()
        other = "reference" if ambient == "bitmask" else "bitmask"
        with api.SearchConfig(kernel=other).applied():
            assert get_routing_kernel() == other
        assert get_routing_kernel() == ambient
        with api.SearchConfig().applied():
            assert get_routing_kernel() == ambient


class TestBlockingEquivalence:
    def test_matches_legacy_call_bit_for_bit(self):
        new = api.blocking(3, 3, 2, 1, x=1,
                           traffic=api.UniformConfig(steps=200, seeds=(0, 1)))
        with pytest.warns(DeprecationWarning):
            old = blocking_probability(3, 3, 2, 1, x=1, steps=200, seeds=(0, 1))
        assert strip_meta(new) == strip_meta(old)

    def test_default_steps_match_legacy_default(self):
        new = api.blocking(2, 2, 2, 1, x=1,
                           traffic=api.UniformConfig(seeds=(0,)))
        with pytest.warns(DeprecationWarning):
            old = blocking_probability(2, 2, 2, 1, x=1, seeds=(0,))
        assert strip_meta(new) == strip_meta(old)


class TestSweepEquivalence:
    def test_random_traffic_curve_matches_legacy(self):
        traffic = api.UniformConfig(steps=150, seeds=(0, 1))
        new = api.sweep(3, 3, 1, [1, 2, 3], x=1, traffic=traffic)
        with pytest.warns(DeprecationWarning):
            old = blocking_vs_m(3, 3, 1, [1, 2, 3], x=1, steps=150, seeds=(0, 1))
        assert [strip_meta(e) for e in new] == [strip_meta(e) for e in old]

    def test_max_fanout_is_honored(self):
        capped = api.sweep(2, 2, 1, [2], x=1,
                           traffic=api.UniformConfig(
                               steps=150, seeds=(0,), max_fanout=1))
        with pytest.warns(DeprecationWarning):
            legacy = blocking_vs_m(2, 2, 1, [2], x=1, steps=150, seeds=(0,),
                                   max_fanout=1)
        assert strip_meta(capped[0]) == strip_meta(legacy[0])

    def test_alternate_construction_and_model(self):
        traffic = api.UniformConfig(steps=100, seeds=(0,))
        new = api.sweep(2, 2, 2, [1, 2], construction=Construction.MAW_DOMINANT,
                        model=MulticastModel.MAW, x=1, traffic=traffic)
        with pytest.warns(DeprecationWarning):
            old = blocking_vs_m(2, 2, 2, [1, 2],
                                construction=Construction.MAW_DOMINANT,
                                model=MulticastModel.MAW, x=1,
                                steps=100, seeds=(0,))
        assert [strip_meta(e) for e in new] == [strip_meta(e) for e in old]


class TestExactEquivalence:
    def test_verdicts_match_legacy(self):
        new = api.exact_m(2, 2, 1, x=1, m_max=5)
        with pytest.warns(DeprecationWarning):
            old = exact_minimal_m(2, 2, 1, x=1, m_max=5)
        assert new.m_exact == old.m_exact == 3
        assert [(p.m, p.blockable) for p in new.per_m] == [
            (p.m, p.blockable) for p in old.per_m]

    def test_uncanonicalized_search_config(self):
        reference = api.exact_m(2, 2, 1, x=1, m_max=4,
                                search=api.SearchConfig(canonicalize=False))
        canonical = api.exact_m(2, 2, 1, x=1, m_max=4)
        assert reference.m_exact == canonical.m_exact

    def test_cache_round_trip(self, tmp_path):
        execution = api.ExecConfig(cache_dir=str(tmp_path))
        first = api.exact_m(2, 2, 1, x=1, m_max=4, execution=execution)
        second = api.exact_m(2, 2, 1, x=1, m_max=4, execution=execution)
        assert first.m_exact == second.m_exact
        assert list(tmp_path.iterdir())  # entries were stored


class TestBadMiddleCount:
    """Every kernel rejects ``m < 1`` with one wording."""

    @pytest.mark.parametrize("kernel", ["reference", "bitmask", "batched"])
    @pytest.mark.parametrize("m", [0, -2])
    def test_blocking_wording_is_shared(self, kernel, m):
        with pytest.raises(
            ValueError, match=rf"^middle count m must be >= 1, got {m}$"
        ):
            api.blocking(2, 2, m, 1, search=api.SearchConfig(kernel=kernel))

    @pytest.mark.parametrize("kernel", ["reference", "bitmask", "batched"])
    def test_sweep_wording_is_shared(self, kernel):
        with pytest.raises(
            ValueError, match=r"^middle count m must be >= 1, got 0$"
        ):
            api.sweep(2, 2, 1, m_values=[0, 1],
                      search=api.SearchConfig(kernel=kernel))
