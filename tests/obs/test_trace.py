"""Trace JSONL schema: emission, validation, summary invariants."""

from __future__ import annotations

import io
import json

import pytest

from repro import api, obs
from repro.analysis.montecarlo import _traffic_cell
from repro.core.models import Construction, MulticastModel
from repro.multistage.network import BlockedError, ThreeStageNetwork
from repro.obs.trace import CAUSE_KINDS, TRACE_SCHEMA, Tracer, validate_record
from repro.switching.requests import Endpoint, MulticastConnection


def conn(source, *destinations):
    return MulticastConnection(Endpoint(*source), [Endpoint(*d) for d in destinations])


class TestTracer:
    def test_seq_is_monotonic_and_counts_accumulate(self):
        tracer = Tracer()
        tracer.emit({"event": "admit", "connection_id": 0, "source": [0, 0],
                     "destinations": [[1, 0]], "middles": [0],
                     "branches": [[0, 0, [[0, 0]]]]})
        tracer.emit({"event": "release", "connection_id": 0})
        assert [r["seq"] for r in tracer.records] == [0, 1]
        assert tracer.admitted == 1 and tracer.released == 1

    def test_sink_receives_jsonl(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        tracer.emit({"event": "release", "connection_id": 3})
        tracer.close()
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [r["event"] for r in lines] == ["release", "summary"]
        assert not tracer.records  # streaming tracers do not accumulate

    def test_summary_causes_sum_to_blocked(self):
        tracer = Tracer()
        cause = dict.fromkeys(
            ("x", "input_module", "source_wavelength", "failed_middles_mask",
             "first_stage_blocked_mask", "available_middles_mask"), 0)
        cause.update(kind="no_cover", destination_modules=[0],
                     unreachable_modules=[], per_destination=[[0, 0]])
        for _ in range(3):
            tracer.emit({"event": "block", "source": [0, 0],
                         "destinations": [[1, 0]], "cause": dict(cause)})
        summary = tracer.summary_record()
        validate_record(dict(summary, seq=99))
        assert summary["blocked"] == 3
        assert sum(summary["causes"].values()) == 3


class TestValidateRecord:
    def test_rejects_unknown_event(self):
        with pytest.raises(ValueError, match="unknown trace event"):
            validate_record({"event": "mystery", "seq": 0})

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            validate_record({"event": "release", "seq": 0})

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError, match="has type"):
            validate_record({"event": "release", "seq": 0, "connection_id": "x"})

    def test_rejects_unknown_cause_kind(self):
        cause = dict.fromkeys(
            ("x", "input_module", "source_wavelength", "failed_middles_mask",
             "first_stage_blocked_mask", "available_middles_mask"), 0)
        cause.update(kind="gremlins", destination_modules=[],
                     unreachable_modules=[], per_destination=[])
        with pytest.raises(ValueError, match="unknown blocking-cause kind"):
            validate_record({"event": "block", "seq": 0, "source": [0, 0],
                             "destinations": [], "cause": cause})

    def test_rejects_summary_whose_causes_do_not_sum(self):
        with pytest.raises(ValueError, match="sum"):
            validate_record({"event": "summary", "seq": 0, "attempts": 2,
                             "admitted": 1, "blocked": 1, "released": 0,
                             "causes": {}})

    def test_schema_covers_the_emitted_events(self):
        assert set(TRACE_SCHEMA) == {"admit", "block", "release", "summary"}
        # The four Clos kinds plus the structural awg_no_path of the
        # AWG-routed fabric (the full ALL_BLOCK_KINDS taxonomy).
        assert len(CAUSE_KINDS) == 5
        assert "awg_no_path" in CAUSE_KINDS


class TestNetworkEmitsTrace:
    def test_connect_block_release_all_traced(self):
        net = ThreeStageNetwork(2, 2, 1, 1, construction=Construction.MSW_DOMINANT,
                                model=MulticastModel.MSW, x=1)
        sink = io.StringIO()
        tracer = Tracer(sink)
        with obs.capture(tracer=tracer):
            cid = net.connect(conn((0, 0), (0, 0)))
            with pytest.raises(BlockedError):
                net.connect(conn((1, 0), (2, 0)))
            net.disconnect(cid)
        tracer.close()
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        for record in records:
            validate_record(record)
        assert [r["event"] for r in records] == [
            "admit", "block", "release", "summary"]
        summary = records[-1]
        assert summary["attempts"] == 2
        assert summary["causes"] == {"saturated_wavelength": 1}

    def test_monte_carlo_trace_blocked_matches_estimate(self):
        """The trace's blocked total IS the blocking-probability numerator.

        The lockstep estimator records counters, not events, so the
        trace comes from the serial network replaying each seed.
        """
        tracer = Tracer()
        with obs.capture(tracer=tracer):
            for seed in (0, 1):
                _traffic_cell(
                    2, 2, 2, 1, Construction.MSW_DOMINANT,
                    MulticastModel.MSW, 1, 150, seed, None,
                )
        estimate = api.blocking(
            2, 2, 2, 1, x=1,
            traffic=api.UniformConfig(steps=150, seeds=(0, 1)),
        )
        assert tracer.blocked == estimate.blocked > 0
        assert tracer.admitted + tracer.blocked == estimate.attempts
        assert sum(tracer.cause_counts.values()) == estimate.blocked
