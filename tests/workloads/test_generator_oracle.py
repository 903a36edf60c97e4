"""The production traffic generator against its frozen reference.

Every registered workload must emit, event for event, the stream the
sorted-set reference generator (:mod:`tests.workloads.generator_oracle`)
emits for the same ``(seed, antithetic)`` stream: same kind, id,
source and destinations.  Golden values, cache keys and adaptive
schedules all hang off that contract.  The pinned digests guard the
reference itself, so the two cannot drift together.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import MulticastModel
from repro.switching.generators import FreeEndpoints, dynamic_traffic
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    TraceConfig,
    UniformConfig,
    workload_names,
)
from repro.workloads.keys import stream_rng
from repro.workloads.trace import generate_trace
from tests.workloads import generator_oracle as oracle

MODELS = list(MulticastModel)

GENERATIVE = st.one_of(
    st.just(UniformConfig()),
    st.builds(
        HotspotConfig,
        zipf_s=st.floats(0.2, 3.0),
        hot_fraction=st.floats(0.05, 1.0),
    ),
    st.builds(HeavyTailFanoutConfig, alpha=st.floats(0.2, 3.0)),
    st.builds(
        PoissonErlangConfig,
        offered_erlangs=st.floats(0.5, 40.0),
        mean_holding=st.floats(0.2, 5.0),
    ),
)


def records(events):
    return [oracle.event_record(event) for event in events]


def both(config, model, n_ports, k, steps, seed, antithetic, max_fanout):
    """(production, reference) event records of one stream."""
    streams = []
    for events in (config.events, oracle.reference_events(config)):
        streams.append(
            records(
                events(
                    model, n_ports, k,
                    steps=steps,
                    rng=stream_rng(seed, antithetic),
                    max_fanout=max_fanout,
                )
            )
        )
    return streams


class TestIdentity:
    @settings(max_examples=200)
    @given(
        config=GENERATIVE,
        model=st.sampled_from(MODELS),
        n_ports=st.integers(1, 12),
        k=st.integers(1, 5),
        steps=st.integers(0, 250),
        seed=st.integers(0, 2**32 - 1),
        antithetic=st.booleans(),
        max_fanout=st.sampled_from([None, 1, 2]),
    )
    def test_every_event_matches_the_reference(
        self, config, model, n_ports, k, steps, seed, antithetic, max_fanout
    ):
        fresh, reference = both(
            config, model, n_ports, k, steps, seed, antithetic, max_fanout
        )
        assert fresh == reference

    @pytest.mark.parametrize(
        "config",
        [
            UniformConfig(),
            HotspotConfig(zipf_s=2.0),
            HeavyTailFanoutConfig(alpha=0.5),
            PoissonErlangConfig(offered_erlangs=50.0),
        ],
        ids=lambda c: c.workload,
    )
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "n_ports, k, steps",
        [
            (1, 1, 40),  # one endpoint each side
            (1, 4, 60),  # one port, several wavelengths
            (6, 1, 60),  # one wavelength
            (5, 3, 0),  # no events asked for
            (2, 2, 400),  # exhausted: sources saturate, teardowns forced
            (4, 0, 10),  # no wavelengths: nothing can ever connect
        ],
    )
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_degenerate_shapes(self, config, model, n_ports, k, steps, antithetic):
        fresh, reference = both(config, model, n_ports, k, steps, 5, antithetic, None)
        assert fresh == reference
        if steps == 0 or k == 0:
            assert fresh == []

    def test_exhausted_fabric_forces_teardowns(self):
        # With every input busy the next step must tear down; the
        # stream still matches the reference through that branch.
        fresh, reference = both(
            UniformConfig(), MulticastModel.MAW, 2, 1, 300, 3, False, 1
        )
        assert fresh == reference
        busy = 0
        saturated = False
        for kind, *_ in fresh:
            busy += 1 if kind == "setup" else -1
            saturated |= busy == 2
        assert saturated

    @pytest.mark.parametrize("config", [UniformConfig(), PoissonErlangConfig()],
                             ids=lambda c: c.workload)
    def test_max_fanout_zero_is_rejected_alike(self, config):
        for events in (config.events, oracle.reference_events(config)):
            with pytest.raises(ValueError, match="at least one destination"):
                list(
                    events(
                        MulticastModel.MSW, 3, 1,
                        steps=5, rng=stream_rng(0), max_fanout=0,
                    )
                )

    @pytest.mark.parametrize(
        "recorded",
        [UniformConfig(), HotspotConfig(zipf_s=1.5)],
        ids=lambda c: c.workload,
    )
    def test_trace_replay_matches_the_reference(self, tmp_path, recorded):
        # The trace workload replays a recording; one recorded through
        # the production generator replays the reference stream.
        path = str(tmp_path / "stream.jsonl")
        generate_trace(recorded, path, MulticastModel.MSDW, 8, 2,
                       steps=200, seed=11)
        replayed = records(
            TraceConfig(path=path).events(
                MulticastModel.MSDW, 8, 2,
                steps=200, rng=stream_rng(0), max_fanout=None,
            )
        )
        reference = records(
            oracle.oracle_events(
                recorded, MulticastModel.MSDW, 8, 2,
                steps=200, rng=stream_rng(11), max_fanout=None,
            )
        )
        assert replayed == reference

    def test_every_registered_workload_is_covered(self):
        covered = {
            UniformConfig.workload,
            HotspotConfig.workload,
            HeavyTailFanoutConfig.workload,
            PoissonErlangConfig.workload,
            TraceConfig.workload,
        }
        assert covered == set(workload_names())


class TestPinnedStreams:
    @pytest.mark.parametrize(
        "case", oracle.PINNED_STREAMS, ids=lambda c: f"{c[0].workload}-{c[1].value}"
    )
    def test_reference_and_production_hash_to_the_pinned_digest(self, case):
        config, model, n_ports, k, seed, antithetic, max_fanout, steps, digest = case
        for events in (config.events, oracle.reference_events(config)):
            stream = events(
                model, n_ports, k,
                steps=steps,
                rng=stream_rng(seed, antithetic),
                max_fanout=max_fanout,
            )
            assert oracle.stream_digest(stream) == digest


class TestFreeEndpoints:
    @given(
        model=st.sampled_from(MODELS),
        n_ports=st.integers(1, 8),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_index_mirrors_the_free_sets(self, model, n_ports, k, seed):
        free = FreeEndpoints(n_ports, k)
        inputs = set(range(n_ports * k))
        outputs = set(inputs)
        live = {}
        for event in oracle.dynamic_traffic(model, n_ports, k, steps=120, seed=seed):
            connection = event.connection
            source = connection.source.port * k + connection.source.wavelength
            codes = {d.port * k + d.wavelength for d in connection.destinations}
            if event.kind == "setup":
                free.take(connection)
                inputs.discard(source)
                outputs -= codes
                live[event.connection_id] = connection
            else:
                free.give(live.pop(event.connection_id))
                inputs.add(source)
                outputs |= codes
            assert free.inputs == sorted(inputs)
            for wavelength in range(k):
                assert free.ports_on[wavelength] == sorted(
                    code // k for code in outputs if code % k == wavelength
                )
            for port in range(n_ports):
                assert free.wavelengths_at[port] == sorted(
                    code % k for code in outputs if code // k == port
                )
            assert free.ports == sorted({code // k for code in outputs})

    def test_endpoint_table_follows_code_order(self):
        free = FreeEndpoints(3, 2)
        assert [(e.port, e.wavelength) for e in free.endpoint] == [
            (p, w) for p in range(3) for w in range(2)
        ]

    def test_dynamic_traffic_accepts_a_seed_or_a_stream(self):
        by_seed = records(dynamic_traffic(MulticastModel.MSW, 6, 2, steps=80, seed=4))
        reference = records(
            oracle.dynamic_traffic(MulticastModel.MSW, 6, 2, steps=80, seed=4)
        )
        assert by_seed == reference
