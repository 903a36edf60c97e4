"""Equivalence and property tests for the lockstep batch engine.

The engine is the one route of the Monte-Carlo estimators, and its
whole contract is *bit-identity*: every ``(m, seed)`` cell it produces
-- counts, causes, cache entries, obs counters -- must equal the serial
bitmask simulator's.  These tests pin that contract on randomized
configurations and on both state backends.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import random
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import api, obs
from repro.analysis.montecarlo import _traffic_cell
from repro.core.corrected import min_middle_switches_corrected
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import valid_x_range
from repro.engine import fabrics
from repro.engine.fused import FUSED_ENV, NUMBA_AVAILABLE
from repro.engine.geometry import FabricGeometry
from repro.perf import batch as batch_module
from repro.multistage.network import ThreeStageNetwork
from repro.perf.batch import (
    BACKEND_ENV,
    available_backends,
    compile_stream,
    replay_cell,
    resolve_backend,
    simulate_batch,
)
from repro.perf.cache import ResultCache
from repro.switching.generators import dynamic_traffic

#: the built-in backends this host can run: ``numba`` needs numpy, and
#: runs compiled where numba is installed, interpreted elsewhere.
BACKENDS = (
    ("python", "numba") if importlib.util.find_spec("numpy") else ("python",)
)
STEPS = 150


@contextmanager
def fused_interpreted():
    """Force the fused backend's interpreted mode for a block.

    Makes ``numba`` available even on hosts without numba installed
    (the kernel runs uncompiled over the same arrays), which is how
    the python/fused suites always exercise the fused array program.
    Plain ``os.environ`` juggling instead of monkeypatch because
    hypothesis forbids function-scoped fixtures under ``@given``.
    """
    previous = os.environ.get(FUSED_ENV)
    os.environ[FUSED_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[FUSED_ENV]
        else:
            os.environ[FUSED_ENV] = previous


def fused_runnable():
    """The ``numba`` backend runnable: compiled if installed, else interpreted."""
    return nullcontext() if NUMBA_AVAILABLE else fused_interpreted()


def serial_cell_with_causes(n, r, m, k, construction, model, x, steps, seed):
    """The serial simulator's ``(attempts, blocked, causes)`` ground truth."""
    rng = random.Random(seed)
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x
    )
    attempts = blocked = 0
    live: dict[int, int] = {}
    dropped: set[int] = set()
    causes = []
    for event in dynamic_traffic(model, n * r, k, steps=steps, seed=rng):
        if event.kind == "setup":
            attempts += 1
            connection_id = net.try_connect(event.connection)
            if connection_id is None:
                blocked += 1
                causes.append(net.explain_block(event.connection))
                dropped.add(event.connection_id)
            else:
                live[event.connection_id] = connection_id
        else:
            if event.connection_id in dropped:
                dropped.discard(event.connection_id)
                continue
            net.disconnect(live.pop(event.connection_id))
    return attempts, blocked, causes


@st.composite
def configs(draw):
    n = draw(st.integers(2, 4))
    r = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    x = draw(st.integers(1, 3))
    assume(x in valid_x_range(n, r))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    construction = draw(st.sampled_from(list(Construction)))
    model = draw(st.sampled_from(list(MulticastModel)))
    return n, r, k, x, m, seed, construction, model


class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(config=configs(), backend=st.sampled_from(BACKENDS))
    def test_counts_and_causes_equal_serial(self, config, backend):
        n, r, k, x, m, seed, construction, model = config
        attempts, blocked, causes = serial_cell_with_causes(
            n, r, m, k, construction, model, x, STEPS, seed
        )
        with fused_runnable():
            outcome = replay_cell(
                n, r, m, k, construction=construction, model=model, x=x,
                steps=STEPS, seed=seed, backend=backend, record_causes=True,
            )
        assert (outcome.attempts, outcome.blocked) == (attempts, blocked)
        assert list(outcome.causes) == causes

    @settings(max_examples=15, deadline=None)
    @given(config=configs())
    def test_backends_agree(self, config):
        n, r, k, x, m, seed, construction, model = config
        with fused_runnable():
            outcomes = [
                replay_cell(
                    n, r, m, k, construction=construction, model=model,
                    x=x, steps=STEPS, seed=seed, backend=backend,
                    record_causes=True,
                )
                for backend in BACKENDS
            ]
        assert len({(o.attempts, o.blocked) for o in outcomes}) == 1
        assert len({repr(o.causes) for o in outcomes}) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_whole_batch_equals_per_cell_serial(self, backend):
        """One lockstep batch covers the m column bit for bit."""
        n, r, k, x, seed = 3, 3, 2, 1, 0
        m_values = list(range(1, 9))
        for construction in Construction:
            for model in MulticastModel:
                with fused_runnable():
                    batch = dict(
                        simulate_batch(
                            n, r, k, construction, model, x, 300, None,
                            seed, m_values, backend,
                        )
                    )
                for m in m_values:
                    assert batch[m] == _traffic_cell(
                        n, r, m, k, construction, model, x, 300, seed, None
                    )

    def test_max_fanout_respected(self):
        n, r, k, x, seed = 3, 4, 2, 2, 1
        for m in (2, 3):
            assert replay_cell(
                n, r, m, k, x=x, steps=200, seed=seed, max_fanout=2,
            ).blocked == _traffic_cell(
                n, r, m, k, Construction.MSW_DOMINANT, MulticastModel.MSW,
                x, 200, seed, 2,
            )[1]


@pytest.mark.skipif(
    "numba" not in BACKENDS, reason="fused backend needs numpy"
)
class TestThreeWayIdentity:
    """python vs fused vs the serial simulator on the same cells."""

    @settings(max_examples=20, deadline=None)
    @given(config=configs())
    def test_counts_and_causes_agree(self, config):
        n, r, k, x, m, seed, construction, model = config
        with fused_interpreted():
            backends = available_backends()
            assert {"python", "numba"} <= set(backends)
            outcomes = [
                replay_cell(
                    n, r, m, k, construction=construction, model=model, x=x,
                    steps=STEPS, seed=seed, backend=backend,
                    record_causes=True,
                )
                for backend in ("python", "numba")
            ]
        attempts, blocked, causes = serial_cell_with_causes(
            n, r, m, k, construction, model, x, STEPS, seed
        )
        for outcome in outcomes:
            assert (outcome.attempts, outcome.blocked) == (attempts, blocked)
            assert repr(list(outcome.causes)) == repr(causes)

    @pytest.mark.parametrize("construction", list(Construction))
    @pytest.mark.parametrize("model", list(MulticastModel))
    def test_fused_batch_equals_python_batch(self, construction, model):
        n, r, k, x, seed = 3, 3, 2, 1, 0
        m_values = tuple(range(1, 9))
        with fused_interpreted():
            python = simulate_batch(
                n, r, k, construction, model, x, 300, None, seed,
                m_values, "python",
            )
            fused = simulate_batch(
                n, r, k, construction, model, x, 300, None, seed,
                m_values, "numba",
            )
        assert fused == python


class TestStreamCompilation:
    def test_stream_is_m_independent(self):
        """The compiled ops depend on the traffic config, never on m."""
        ops = compile_stream(MulticastModel.MSDW, 3, 3, 2, 200, seed=4)
        again = compile_stream(MulticastModel.MSDW, 3, 3, 2, 200, seed=4)
        assert ops == again
        assert any(tag == 1 for tag, *_ in ops)
        assert any(tag == 0 for tag, *_ in ops)

    def test_ops_mirror_generator_events(self):
        model, n, r, k = MulticastModel.MAW, 2, 3, 2
        ops = compile_stream(model, n, r, k, 120, seed=9)
        events = list(
            dynamic_traffic(model, n * r, k, steps=120, seed=random.Random(9))
        )
        assert len(ops) == len(events)
        for op, event in zip(ops, events):
            tag, cid, g, sw, dest_mask = op
            assert tag == (1 if event.kind == "setup" else 0)
            assert cid == event.connection_id
            assert g == event.connection.source.port // n
            assert sw == event.connection.source.wavelength
            if tag:
                expected = 0
                for destination in event.connection.destinations:
                    expected |= 1 << (destination.port // n)
                assert dest_mask == expected


class TestBackendResolution:
    def test_auto_resolves_to_python(self):
        if "numba" in available_backends():
            pytest.skip("numba installed: auto legitimately prefers it")
        assert resolve_backend("auto", m_max=8, r=4, k=2) == "python"

    @pytest.mark.skipif(
        "numba" not in BACKENDS, reason="fused backend needs numpy"
    )
    def test_auto_prefers_numba_over_python(self):
        with fused_interpreted():
            assert resolve_backend("auto", m_max=8, r=4, k=2) == "numba"
            # ... at any plane width, now that the word gate is lifted.
            assert resolve_backend("auto", m_max=100, r=4, k=2) == "numba"

    def test_env_python_beats_numba_preference(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        with fused_interpreted():
            assert resolve_backend("auto", m_max=8, r=4, k=2) == "python"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert resolve_backend("auto", m_max=8, r=4, k=2) == "python"
        if "numba" in BACKENDS:
            monkeypatch.setenv(BACKEND_ENV, "numba")
            with fused_interpreted():
                assert resolve_backend("auto", m_max=8, r=4, k=2) == "numba"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown batch backend"):
            resolve_backend("fortran", m_max=8, r=4, k=2)

    def test_retired_numpy_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown batch backend 'numpy'"):
            resolve_backend("numpy", m_max=8, r=4, k=2)

    def test_illegal_x_rejected_like_the_network(self):
        with pytest.raises(ValueError, match="outside the legal range"):
            replay_cell(2, 2, 3, 1, x=5, steps=50, seed=0)


class TestApiIntegration:
    """The front door against the per-cell serial oracle.

    ``api.blocking``/``api.sweep`` always replay in lockstep; the second
    leg of each identity is the sum of :func:`_traffic_cell` replays on
    the serial network (plus, for the adversarial curve, the literal
    counts both routes produced before the serial route was retired).
    """

    TRAFFIC = api.UniformConfig(steps=200, seeds=(0, 1, 2))

    def sweep(self, **kwargs):
        return api.sweep(
            3, 3, 2, [1, 2, 3, 4], traffic=self.TRAFFIC, **kwargs
        )

    @staticmethod
    def serial(n, r, m, k, x=1, steps=200, seeds=(0, 1, 2)):
        cells = [
            _traffic_cell(
                n, r, m, k, Construction.MSW_DOMINANT, MulticastModel.MSW,
                x, steps, seed, None,
            )
            for seed in seeds
        ]
        return sum(c[0] for c in cells), sum(c[1] for c in cells)

    def test_sweep_matches_bitmask(self):
        assert [(e.m, e.attempts, e.blocked) for e in self.sweep()] == [
            (m, *self.serial(3, 3, m, 2)) for m in (1, 2, 3, 4)
        ]

    def test_blocking_matches_bitmask(self):
        estimate = api.blocking(3, 4, 3, 2, x=2, traffic=self.TRAFFIC)
        assert (estimate.attempts, estimate.blocked) == self.serial(
            3, 4, 3, 2, x=2
        )
        assert estimate.meta is not None and estimate.meta.kernel == "bitmask"

    def test_adversarial_sweep_matches_bitmask(self):
        traffic = api.UniformConfig(steps=150, seeds=(0, 1), adversarial=True)
        curve = api.sweep(2, 2, 1, [2, 3, 4], traffic=traffic)
        counts = [(e.m, e.attempts, e.blocked) for e in curve]
        assert counts == [(2, 151, 6), (3, 151, 0), (4, 151, 0)]
        # No adversary witness at m = 3, 4: the curve is random traffic's.
        assert counts == [
            (m, *self.serial(2, 2, m, 1, steps=150, seeds=(0, 1)))
            for m in (2, 3, 4)
        ]

    def test_obs_counters_merge_to_serial_totals(self):
        """The acceptance contract: lockstep counters == the serial network's.

        Compared over the simulation namespaces (``mc.*``, ``net.*``);
        the orchestration counters (``sweep.*``) legitimately differ --
        a batch is one work unit where serial runs one per cell.
        """

        def simulation(run):
            return {
                name: value
                for name, value in run.metrics.snapshot()["counters"].items()
                if name.startswith(("mc.", "net."))
            }

        with obs.capture() as run:
            self.sweep()
        lockstep = simulation(run)
        with obs.capture() as run:
            for m in (1, 2, 3, 4):
                self.serial(3, 3, m, 2)
        assert lockstep == simulation(run)
        assert lockstep["mc.cells"] == 12  # 4 m-values x 3 seeds
        assert lockstep["net.admit.blocked"] > 0
        assert any(name.startswith("net.block.cause.") for name in lockstep)


class TestCacheIntegration:
    CONFIG = dict(steps=150, seeds=(0, 1))

    def sweep(self, cache_dir, kernel=None):
        return api.sweep(
            2, 2, 1, [1, 2, 3],
            traffic=api.UniformConfig(**self.CONFIG),
            execution=api.ExecConfig(cache_dir=str(cache_dir)),
            search=api.SearchConfig(kernel=kernel),
        )

    def test_batched_sweep_is_cached_per_cell(self, tmp_path):
        cold = self.sweep(tmp_path)
        cache = ResultCache(tmp_path)
        assert len(cache) == 6  # 3 m-values x 2 seeds, one entry each
        warm = self.sweep(tmp_path)
        assert warm == cold

    def test_kernel_tag_keeps_pipelines_separate(self, tmp_path):
        self.sweep(tmp_path, "bitmask")
        entries_after_bitmask = len(ResultCache(tmp_path))
        self.sweep(tmp_path, "reference")
        # The reference-kernel run cannot alias the bitmask entries
        # (kernel is part of every key), so it stores its own.
        assert len(ResultCache(tmp_path)) == 2 * entries_after_bitmask

    def test_warm_plan_counts_cell_cache_hits(self, tmp_path):
        self.sweep(tmp_path)
        plan = self.sweep(tmp_path)[0].meta.plan
        assert (plan["units"], plan["dispatched"], plan["cache_hits"]) == (
            0, 0, 6,
        )

    def test_partially_warm_batched_sweep(self, tmp_path):
        full = self.sweep(tmp_path)
        cache = ResultCache(tmp_path)
        victims = sorted(cache.directory.glob("*.pkl"))[::2]
        for path in victims:
            path.unlink()
        resumed = self.sweep(tmp_path)
        assert resumed == full


class TestCertifiedColumns:
    """Columns the corrected Theorem 1/2 bound certifies skip the replay.

    ``(3, 3, 2)`` MAW-dominant/MAW at ``x = 2`` certifies ``m >= 9``, so
    ``m = 7..11`` straddles the bound: two replayed columns, three
    certified ones.  Either way every cell must equal the serial
    network's, on every backend.
    """

    SHAPE = (3, 3, 2, Construction.MAW_DOMINANT, MulticastModel.MAW, 2)
    BOUND = min_middle_switches_corrected(
        3, 3, 2, Construction.MAW_DOMINANT, MulticastModel.MAW, 2
    )

    def test_bound_of_the_shape(self):
        assert self.BOUND == 9

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_across_the_bound_equals_per_cell_serial(self, backend):
        n, r, k, construction, model, x = self.SHAPE
        m_values = list(range(self.BOUND - 2, self.BOUND + 3))
        for seed in (0, 1):
            with fused_runnable():
                cells = simulate_batch(
                    n, r, k, construction, model, x, 300, None, seed,
                    m_values, backend,
                )
            assert [m for m, _ in cells] == m_values
            assert [value for _, value in cells] == [
                _traffic_cell(
                    n, r, m, k, construction, model, x, 300, seed, None
                )
                for m in m_values
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_spans_only_uncertified_columns(self, backend, monkeypatch):
        """A wide certified column drops out, so the planes stay one word."""
        n, r, k, construction, model, x = self.SHAPE
        built = []
        real = batch_module.make_state

        def spy(geometries, chosen):
            built.append([geo.m for geo in geometries])
            return real(geometries, chosen)

        monkeypatch.setattr(batch_module, "make_state", spy)
        m_values = [self.BOUND - 1, 70, self.BOUND - 2, self.BOUND]
        with fused_runnable():
            cells = simulate_batch(
                n, r, k, construction, model, x, 200, None, 3, m_values,
                backend,
            )
        assert built == [[self.BOUND - 1, self.BOUND - 2]]
        assert cells == [
            (m, _traffic_cell(n, r, m, k, construction, model, x, 200, 3, None))
            for m in m_values
        ]

    def test_all_certified_batch_builds_no_state(self, monkeypatch):
        n, r, k, construction, model, x = self.SHAPE

        def refuse(*args):
            raise AssertionError("a certified column reached the replay")

        monkeypatch.setattr(batch_module, "make_state", refuse)
        cells = simulate_batch(
            n, r, k, construction, model, x, 200, None, 0,
            [self.BOUND, self.BOUND + 5],
        )
        setups = sum(
            1
            for op in compile_stream(model, n, r, k, 200, 0)
            if op[0] == 1
        )
        assert cells == [
            (self.BOUND, (setups, 0)), (self.BOUND + 5, (setups, 0)),
        ]
        with pytest.raises(ValueError, match="unknown batch backend"):
            simulate_batch(
                n, r, k, construction, model, x, 200, None, 0,
                [self.BOUND], "fortran",
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_certified_replay_cell_has_no_causes(self, backend):
        n, r, k, construction, model, x = self.SHAPE
        with fused_runnable():
            outcome = replay_cell(
                n, r, self.BOUND, k, construction=construction, model=model,
                x=x, steps=300, seed=0, backend=backend, record_causes=True,
            )
        assert outcome.blocked == 0
        assert outcome.causes == ()
        assert outcome.attempts == _traffic_cell(
            n, r, self.BOUND, k, construction, model, x, 300, 0, None
        )[0]

    def test_obs_counts_certified_cells(self):
        n, r, k, construction, model, x = self.SHAPE
        m_values = list(range(self.BOUND - 2, self.BOUND + 3))
        with obs.capture() as run:
            simulate_batch(
                n, r, k, construction, model, x, 150, None, 0, m_values,
            )
        counters = run.metrics.snapshot()["counters"]
        assert counters["mc.certified_cells"] == 3
        assert counters["mc.cells"] == 5
        with obs.capture() as run:
            simulate_batch(
                n, r, k, construction, model, x, 150, None, 0,
                [self.BOUND - 1],
            )
        assert "mc.certified_cells" not in run.metrics.snapshot()["counters"]

    def test_awg_clos_never_certifies(self):
        spec = fabrics.get_fabric("awg_clos")
        for k in (1, 2, 3):
            for m in (1, 9, 64, 200):
                geometry = FabricGeometry(
                    n=3, r=3, k=k, m=m,
                    construction=Construction.MSW_DOMINANT,
                    model=MulticastModel.MSW, x=1, fabric="awg_clos",
                )
                assert not spec.certifies(geometry)
                assert spec.certified_bound(geometry) is None

    def test_crossbar_certifies_every_column(self):
        spec = fabrics.get_fabric("crossbar")
        for m in (1, 2, 100):
            assert spec.certifies(
                FabricGeometry(
                    n=2, r=2, k=2, m=m,
                    construction=Construction.MSW_DOMINANT,
                    model=MulticastModel.MSW, x=1, fabric="crossbar",
                )
            )

    def test_debug_checks_name_the_bound_of_a_false_certificate(
        self, monkeypatch
    ):
        """A certificate that skips a blocking column cannot go unnoticed."""
        forged = dataclasses.replace(
            fabrics.CLOS, certificate=lambda *shape: 1
        )
        monkeypatch.setitem(fabrics._REGISTRY, "clos", forged)
        with pytest.raises(AssertionError) as excinfo:
            api.blocking(
                2, 2, 1, 1,
                traffic=api.UniformConfig(steps=150, seeds=(0,)),
                search=api.SearchConfig(debug_checks=True),
            )
        message = str(excinfo.value)
        assert "(m=1, seed=0" in message
        assert "certified by corrected bound m>=1" in message


class TestObsGuard:
    def test_engine_records_nothing_while_disabled(self):
        obs.reset()
        assert not obs.enabled()
        simulate_batch(
            2, 2, 1, Construction.MSW_DOMINANT, MulticastModel.MSW, 1,
            100, None, 0, (1, 2),
        )
        assert obs.REGISTRY.snapshot()["counters"] == {}
