"""Tests for the Monte-Carlo blocking probability study."""

from __future__ import annotations

import json
import math

import pytest

from repro import api
from repro.analysis.montecarlo import BlockingEstimate
from repro.analysis.rendering import format_probability
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import min_middle_switches_msw_dominant


class TestBlockingProbability:
    def test_zero_at_the_bound(self):
        m = min_middle_switches_msw_dominant(3, 3, 1, x=1)
        estimate = api.blocking(
            3, 3, m, 1, x=1, traffic=api.UniformConfig(steps=600, seeds=(0, 1))
        )
        assert estimate.blocked == 0
        assert estimate.attempts > 100

    def test_positive_when_starved(self):
        estimate = api.blocking(
            3, 3, 1, 1, x=1, traffic=api.UniformConfig(steps=600, seeds=(0, 1))
        )
        assert estimate.probability > 0.0

    def test_probability_field(self):
        estimate = api.blocking(
            2, 2, 1, 1, x=1, traffic=api.UniformConfig(steps=200, seeds=(0,))
        )
        assert 0.0 <= estimate.probability <= 1.0

    def test_deterministic_given_seeds(self):
        traffic = api.UniformConfig(steps=300, seeds=(5,))
        a = api.blocking(3, 3, 2, 1, x=1, traffic=traffic)
        b = api.blocking(3, 3, 2, 1, x=1, traffic=traffic)
        assert (a.attempts, a.blocked) == (b.attempts, b.blocked)

    def test_dropped_connections_do_not_poison_state(self):
        """After a blocked setup, the simulation must keep running and the
        totals must stay consistent."""
        estimate = api.blocking(
            2, 2, 1, 1, x=1, traffic=api.UniformConfig(steps=800, seeds=(3,))
        )
        assert estimate.attempts >= estimate.blocked > 0

    def test_zero_attempts_report_no_probability(self):
        """No seeds, no attempts: the probability is undefined, not 0."""
        estimate = api.blocking(2, 2, 2, 1, traffic=api.UniformConfig(seeds=()))
        assert (estimate.attempts, estimate.blocked) == (0, 0)
        assert math.isnan(estimate.probability)
        assert format_probability(estimate.probability) == "n/a"
        assert format_probability(0.0) == "0.0000"


class TestBlockingVsM:
    def test_monotone_trend_and_zero_tail(self):
        bound = min_middle_switches_msw_dominant(3, 3, 1, x=1)
        estimates = api.sweep(
            3, 3, 1, list(range(1, bound + 1)), x=1,
            traffic=api.UniformConfig(steps=500, seeds=(0, 1)),
        )
        probabilities = [estimate.probability for estimate in estimates]
        # Starved end blocks, provisioned end does not.
        assert probabilities[0] > 0
        assert probabilities[-1] == 0.0
        # Broad monotone trend: first half average >= second half average.
        half = len(probabilities) // 2
        assert sum(probabilities[:half]) >= sum(probabilities[half:])

    def test_adversarial_mode_marks_witnessed_points(self):
        estimates = api.sweep(
            3, 3, 1, [4], x=1,
            traffic=api.UniformConfig(
                steps=200, seeds=(0,), adversarial=True, adversary_seeds=30
            ),
        )
        # At m=4 random traffic rarely blocks but the adversary finds a
        # witness (demonstrated in test_adversary); either way the field
        # is well-formed.
        [estimate] = estimates
        assert estimate.blocked in (0, 1) or estimate.blocked > 1

    def test_respects_configuration(self):
        estimates = api.sweep(
            2, 2, 2, [1, 4],
            model=MulticastModel.MAW,
            construction=Construction.MAW_DOMINANT,
            x=1,
            traffic=api.UniformConfig(steps=200, seeds=(0,)),
        )
        assert [e.m for e in estimates] == [1, 4]
        assert all(e.model is MulticastModel.MAW for e in estimates)


def _estimate(attempts: int, blocked: int, m: int = 2) -> BlockingEstimate:
    return BlockingEstimate(
        n=3, r=3, m=m, k=1,
        construction=Construction.MSW_DOMINANT, model=MulticastModel.MSW,
        x=1, attempts=attempts, blocked=blocked,
    )


class TestIntervalStatistics:
    def test_stderr(self):
        estimate = _estimate(400, 100)
        p = 0.25
        assert math.isclose(
            estimate.stderr, math.sqrt(p * (1 - p) / 400)
        )

    def test_stderr_without_attempts_is_infinite(self):
        assert _estimate(0, 0).stderr == math.inf

    def test_wilson_interval_brackets_the_point_estimate(self):
        estimate = _estimate(400, 100)
        low, high = estimate.ci()
        assert low < estimate.probability < high
        assert 0.0 <= low and high <= 1.0

    def test_wilson_shrinks_at_zero(self):
        """The Wald interval degenerates to width 0 at p = 0; Wilson must
        not -- and it must still tighten with n."""
        small, large = _estimate(100, 0), _estimate(10_000, 0)
        assert small.half_width() > large.half_width() > 0.0

    def test_higher_level_is_wider(self):
        estimate = _estimate(500, 50)
        assert estimate.half_width(0.99) > estimate.half_width(0.95)

    def test_no_attempts_is_the_vacuous_interval(self):
        estimate = _estimate(0, 0)
        assert estimate.ci() == (0.0, 1.0)
        assert estimate.half_width() == math.inf
        assert math.isnan(estimate.probability)

    def test_merged_pools_counts(self):
        merged = _estimate(300, 30).merged(_estimate(200, 10))
        assert (merged.attempts, merged.blocked) == (500, 40)

    def test_merged_rejects_cell_mismatch(self):
        with pytest.raises(ValueError, match="cell"):
            _estimate(300, 30, m=2).merged(_estimate(200, 10, m=3))

    def test_pooled_equals_pairwise_merge(self):
        parts = [_estimate(100, 9), _estimate(250, 21), _estimate(50, 3)]
        pooled = BlockingEstimate.pooled(parts)
        assert (pooled.attempts, pooled.blocked) == (400, 33)


class TestEstimateJson:
    def test_round_trip_includes_interval_fields(self):
        estimate = _estimate(400, 100)
        payload = json.loads(estimate.to_json())
        assert payload["ci95"] == list(estimate.ci())
        assert payload["half_width95"] == estimate.half_width()
        assert math.isclose(payload["stderr"], estimate.stderr)
        assert BlockingEstimate.from_json(estimate.to_json()) == estimate

    def test_zero_attempt_stderr_serializes_as_null(self):
        payload = json.loads(_estimate(0, 0).to_json())
        assert payload["stderr"] is None

    def test_old_payloads_without_interval_fields_still_load(self):
        """Backward compatibility: payloads written before the interval
        statistics existed must still deserialize."""
        estimate = _estimate(400, 100)
        old = json.loads(estimate.to_json())
        for field in ("stderr", "ci95", "half_width95", "adaptive", "meta"):
            old.pop(field, None)
        back = BlockingEstimate.from_json(json.dumps(old))
        assert back == estimate
        assert back.adaptive is None and back.meta is None
