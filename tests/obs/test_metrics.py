"""Metrics registry semantics and cross-process aggregation."""

from __future__ import annotations

import pytest

from repro import api, obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import merge_snapshots
from repro.perf.sweeper import WorkUnit, _run_chunk_obs


class TestRegistry:
    def test_counters_timers_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.observe("t", 0.25)
        reg.observe("t", 0.75)
        reg.gauge("g", 7.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 5}
        assert snap["timers"] == {"t": [2, 1.0]}
        assert snap["gauges"] == {"g": 7.0}

    def test_merge_sums_counters_and_timers(self):
        a = MetricsRegistry()
        a.inc("x", 2)
        a.observe("t", 1.0)
        b = MetricsRegistry()
        b.inc("x", 3)
        b.inc("y")
        b.observe("t", 2.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"x": 5, "y": 1}
        assert snap["timers"]["t"] == [2, 3.0]

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.reset()
        assert reg.snapshot()["counters"] == {}

    def test_timeit_records_one_observation(self):
        reg = MetricsRegistry()
        with reg.timeit("span"):
            pass
        count, total = reg.snapshot()["timers"]["span"]
        assert count == 1 and total >= 0.0


class TestPaused:
    def test_paused_records_nothing_then_restores(self):
        tracer = obs.Tracer()
        with obs.capture(tracer=tracer) as run:
            with obs.paused():
                assert not obs.enabled() and obs.tracer() is None
                obs.inc("hidden")
            assert obs.enabled() and obs.tracer() is tracer
            obs.inc("seen")
        assert run.metrics.snapshot()["counters"] == {"seen": 1}

    def test_paused_while_off_stays_off(self):
        assert not obs.enabled()
        with obs.paused():
            pass
        assert not obs.enabled()


class TestMergeSnapshots:
    def test_merges_many_worker_snapshots(self):
        snapshots = []
        for i in range(3):
            reg = MetricsRegistry()
            reg.inc("cells", i + 1)
            snapshots.append(reg.snapshot())
        merged = merge_snapshots(snapshots)
        assert merged["counters"]["cells"] == 6


def _unit_fn(value: int) -> int:
    obs.inc("test.unit_calls")
    return value * 2


class TestChunkRunner:
    def test_run_chunk_obs_ships_a_snapshot(self):
        """The worker-side runner returns results plus a metrics delta."""
        assert not obs.enabled()
        units = [WorkUnit(unit_id=i, fn=_unit_fn, args=(i,)) for i in range(4)]
        results, snapshot = _run_chunk_obs(units)
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert snapshot["counters"]["test.unit_calls"] == 4
        # The runner restores the disabled state it found.
        assert not obs.enabled()

    def test_run_chunk_obs_starts_from_reset_registry(self):
        """Per-chunk snapshots are deltas even on a reused pool worker."""
        obs.REGISTRY.inc("stale.counter", 99)
        try:
            _, snapshot = _run_chunk_obs([WorkUnit(unit_id=0, fn=_unit_fn, args=(1,))])
        finally:
            obs.REGISTRY.reset()
        assert "stale.counter" not in snapshot["counters"]
        assert snapshot["counters"]["test.unit_calls"] == 1


@pytest.fixture
def two_cpus(monkeypatch):
    """Pretend the host has two cores so the process pool engages."""
    monkeypatch.setattr("repro.perf.sweeper._effective_cpus", lambda: 2)


class TestCrossProcessAggregation:
    CONFIG = dict(x=1, traffic=api.UniformConfig(steps=120, seeds=(0, 1)))

    def _counters(self, jobs):
        with obs.capture() as run:
            api.sweep(
                3, 3, 1, [2, 4], execution=api.ExecConfig(jobs=jobs),
                **self.CONFIG,
            )
            return dict(run.metrics.snapshot()["counters"])

    def test_pooled_counters_match_serial(self, two_cpus):
        serial = self._counters(1)
        pooled = self._counters(2)
        keys = [k for k in serial if k.startswith(("net.", "mc.", "route."))]
        assert keys, "expected simulator counters in the serial run"
        for key in keys:
            assert pooled.get(key) == serial[key], key
        # One lockstep unit per seed, each covering both m values.
        assert pooled["sweep.units"] == serial["sweep.units"] == 2

    def test_admission_counters_are_consistent(self, two_cpus):
        counters = self._counters(2)
        assert counters["net.admit.attempts"] == (
            counters["net.admit.admitted"] + counters.get("net.admit.blocked", 0)
        )
        assert counters["mc.cells"] == 4
