"""The shipped workload models: determinism, feasibility and shape.

Every workload must produce a well-formed traffic stream (the same
contract ``compile_stream`` assumes: unique setup ids, teardowns of
live connections, feasible endpoints) and must be a pure function of
its RNG stream.  ``uniform`` additionally carries the compatibility
contract of the whole redesign: bit-identical events to the
historical generator (the frozen reference in ``generator_oracle``)
for golden seeds.  The non-uniform models get distribution-shape
assertions -- the point of shipping them is that they are *not*
uniform.
"""

from __future__ import annotations

import pytest

from repro.core.models import MulticastModel
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    UniformConfig,
    workload_class,
    workload_names,
)
from repro.workloads.keys import stream_rng
from tests.workloads.generator_oracle import dynamic_traffic as legacy_traffic

GOLDEN_SEEDS = (0, 7, 12345)
STEPS = 250

GENERATIVE = [
    UniformConfig(),
    HotspotConfig(zipf_s=1.5),
    HeavyTailFanoutConfig(alpha=0.9),
    PoissonErlangConfig(offered_erlangs=6.0),
]


def draw(config, model, n_ports=9, k=2, seed=0, steps=STEPS, max_fanout=None):
    return list(
        config.events(
            model, n_ports, k,
            steps=steps, rng=stream_rng(seed), max_fanout=max_fanout,
        )
    )


def assert_well_formed(events, model, n_ports, k, max_fanout=None):
    """The stream contract compile_stream and the serial cell assume.

    Input and output endpoints are distinct spaces (a port code names
    an input endpoint on the source side and an output endpoint on the
    destination side), so freedom is tracked per side.
    """
    free_inputs = {code for code in range(n_ports * k)}
    free_outputs = {code for code in range(n_ports * k)}
    live: dict[int, tuple[int, list[int]]] = {}
    for event in events:
        if event.kind == "setup":
            assert event.connection_id not in live
            connection = event.connection
            source = connection.source.port * k + connection.source.wavelength
            ports = [d.port for d in connection.destinations]
            assert len(ports) == len(set(ports)), "duplicate destination port"
            if max_fanout is not None:
                assert len(ports) <= max_fanout
            if model is MulticastModel.MSW:
                assert all(
                    d.wavelength == connection.source.wavelength
                    for d in connection.destinations
                )
            elif model is MulticastModel.MSDW:
                assert len({d.wavelength for d in connection.destinations}) == 1
            outputs = [
                d.port * k + d.wavelength for d in connection.destinations
            ]
            assert source in free_inputs, "input endpoint not free at setup"
            free_inputs.discard(source)
            for code in outputs:
                assert code in free_outputs, "output endpoint not free at setup"
                free_outputs.discard(code)
            live[event.connection_id] = (source, outputs)
        else:
            source, outputs = live.pop(event.connection_id)
            free_inputs.add(source)
            free_outputs.update(outputs)
    assert len(events) > 0


class TestUniformBitIdentity:
    @pytest.mark.parametrize("model", list(MulticastModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_events_equal_the_legacy_generator(self, model, seed, antithetic):
        legacy = list(
            legacy_traffic(
                model, 9, 2, steps=STEPS, seed=stream_rng(seed, antithetic)
            )
        )
        fresh = list(
            UniformConfig().events(
                model, 9, 2,
                steps=STEPS, rng=stream_rng(seed, antithetic), max_fanout=None,
            )
        )
        assert fresh == legacy

    def test_max_fanout_passes_through(self):
        legacy = list(
            legacy_traffic(
                MulticastModel.MAW, 9, 1,
                steps=STEPS, seed=stream_rng(3), max_fanout=2,
            )
        )
        fresh = draw(UniformConfig(), MulticastModel.MAW, 9, 1, seed=3,
                     max_fanout=2)
        assert fresh == legacy


class TestEveryModel:
    @pytest.mark.parametrize("config", GENERATIVE, ids=lambda c: c.workload)
    @pytest.mark.parametrize("model", list(MulticastModel), ids=lambda m: m.value)
    def test_streams_are_well_formed(self, config, model):
        events = draw(config, model)
        assert_well_formed(events, model, 9, 2)

    @pytest.mark.parametrize("config", GENERATIVE, ids=lambda c: c.workload)
    def test_streams_are_deterministic(self, config):
        assert draw(config, MulticastModel.MAW) == draw(
            config, MulticastModel.MAW
        )

    @pytest.mark.parametrize("config", GENERATIVE, ids=lambda c: c.workload)
    def test_max_fanout_is_respected(self, config):
        events = draw(config, MulticastModel.MAW, 12, 1, max_fanout=2)
        assert_well_formed(events, MulticastModel.MAW, 12, 1, max_fanout=2)

    def test_every_registered_generative_model_is_covered(self):
        covered = {config.workload for config in GENERATIVE}
        assert covered == set(workload_names()) - {"trace"}
        for name in covered:
            assert workload_class(name) in {type(c) for c in GENERATIVE}


def setup_events(events):
    return [e for e in events if e.kind == "setup"]


class TestHotspotShape:
    @staticmethod
    def _hot_preference(config, n_ports=12, hot=3, steps=800):
        """P(setup touches a hot port | >=1 hot and >=1 cold port free).

        Conditioning on availability matters: in steady state the hot
        output endpoints are saturated (they are popular!), so the
        *carried* destination mix converges toward uniform -- the skew
        lives in what gets picked when there is a choice.
        """
        events = list(
            config.events(
                MulticastModel.MAW, n_ports, 1,
                steps=steps, rng=stream_rng(0), max_fanout=1,
            )
        )
        free = set(range(n_ports))
        live = {}
        trials = hits = 0
        for event in events:
            if event.kind == "setup":
                ports = [d.port for d in event.connection.destinations]
                hot_free = any(p < hot for p in free)
                cold_free = any(p >= hot for p in free)
                if hot_free and cold_free:
                    trials += 1
                    hits += any(p < hot for p in ports)
                free -= set(ports)
                live[event.connection_id] = ports
            else:
                free.update(live.pop(event.connection_id))
        assert trials > 50
        return hits / trials

    def test_hot_ports_preferred_when_available(self):
        skewed = self._hot_preference(HotspotConfig(zipf_s=2.0,
                                                    hot_fraction=0.25))
        flat = self._hot_preference(UniformConfig())
        assert skewed > flat + 0.1

    def test_differs_from_uniform_with_the_same_stream(self):
        uniform = draw(UniformConfig(), MulticastModel.MAW, 12, 1)
        skewed = draw(HotspotConfig(zipf_s=2.0), MulticastModel.MAW, 12, 1)
        assert uniform != skewed


class TestHeavyTailShape:
    def test_unicast_dominates_unlike_uniform(self):
        # P(F=1) = 1 - 2^-alpha for the truncated Pareto, ~0.5 at
        # alpha=1.1; the uniform draw spreads mass evenly over 1..cap.
        heavy = draw(HeavyTailFanoutConfig(alpha=1.1),
                     MulticastModel.MAW, 16, 1, steps=600)
        flat = draw(UniformConfig(), MulticastModel.MAW, 16, 1, steps=600)

        def unicast_share(events):
            setups = setup_events(events)
            ones = sum(
                1 for e in setups if len(e.connection.destinations) == 1
            )
            return ones / len(setups)

        assert unicast_share(heavy) > unicast_share(flat) + 0.15

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            HeavyTailFanoutConfig(alpha=0.0)


class TestPoissonErlangShape:
    def test_arrivals_are_capped_at_steps(self):
        events = draw(PoissonErlangConfig(offered_erlangs=4.0),
                      MulticastModel.MAW, 9, 1, steps=100)
        setups = setup_events(events)
        assert 0 < len(setups) <= 100

    def test_offered_load_drives_concurrency(self):
        def mean_active(erlangs):
            events = draw(PoissonErlangConfig(offered_erlangs=erlangs),
                          MulticastModel.MAW, 12, 2, steps=400)
            active = 0
            samples = []
            for event in events:
                active += 1 if event.kind == "setup" else -1
                samples.append(active)
            return sum(samples) / len(samples)

        assert mean_active(12.0) > mean_active(1.0) + 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="offered_erlangs"):
            PoissonErlangConfig(offered_erlangs=0.0)
        with pytest.raises(ValueError, match="mean_holding"):
            PoissonErlangConfig(mean_holding=-1.0)


class TestHotspotValidation:
    def test_bounds(self):
        with pytest.raises(ValueError, match="zipf_s"):
            HotspotConfig(zipf_s=0.0)
        with pytest.raises(ValueError, match="hot_fraction"):
            HotspotConfig(hot_fraction=0.0)
        with pytest.raises(ValueError, match="hot_fraction"):
            HotspotConfig(hot_fraction=1.5)
