"""Adversary-seed derivation: keyed by the whole configuration.

An adversary reseeded from ``m`` alone would replay the identical
stream for every configuration sharing an ``m`` value.  The schedule
mixes a traffic key (topology, construction, model, x) into the
derivation instead.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.montecarlo import _adversary_seeds, _adversary_traffic_key
from repro.core.models import Construction, MulticastModel


KEY_A = _adversary_traffic_key(
    3, 3, 1, Construction.MSW_DOMINANT, MulticastModel.MSW, 1)
KEY_B = _adversary_traffic_key(
    4, 2, 2, Construction.MSW_DOMINANT, MulticastModel.MSW, 1)


class TestKeyedSchedule:
    def test_deterministic_for_a_fixed_key(self):
        assert _adversary_seeds(5, 8, KEY_A) == _adversary_seeds(5, 8, KEY_A)

    def test_differs_across_traffic_keys(self):
        assert _adversary_seeds(5, 8, KEY_A) != _adversary_seeds(5, 8, KEY_B)

    def test_differs_from_legacy_schedule(self):
        """Never the ``m``-only derivation the keyed schedule replaced."""
        m_only = random.Random(5)
        legacy = [m_only.randrange(10**9) for _ in range(8)]
        assert _adversary_seeds(5, 8, KEY_A) != legacy

    def test_still_varies_with_m(self):
        assert _adversary_seeds(4, 8, KEY_A) != _adversary_seeds(5, 8, KEY_A)

    def test_key_covers_every_traffic_dimension(self):
        for field in ("n=3", "r=3", "k=1", "construction=MSW_DOMINANT",
                      "model=MSW", "x=1"):
            assert field in KEY_A


class TestEndToEnd:
    @pytest.mark.parametrize("construction", [
        Construction.MSW_DOMINANT, Construction.MAW_DOMINANT])
    def test_adversarial_sweep_remains_deterministic(self, construction):
        from repro import api

        traffic = api.UniformConfig(steps=80, seeds=(0,), adversarial=True,
                                    adversary_seeds=4)
        first = api.sweep(2, 2, 1, [1, 2], construction=construction, x=1,
                          traffic=traffic)
        second = api.sweep(2, 2, 1, [1, 2], construction=construction, x=1,
                           traffic=traffic)
        assert [(e.m, e.blocked) for e in first] == [
            (e.m, e.blocked) for e in second]
