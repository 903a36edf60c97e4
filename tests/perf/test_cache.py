"""Tests for the content-addressed sweep-result cache."""

from __future__ import annotations

import hashlib
import shutil
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import api, obs
from repro.analysis.montecarlo import _blocking_vs_m_impl
from repro.core.models import Construction, MulticastModel
from repro.multistage.routing import routing_kernel
from repro.perf.cache import CODE_VERSION, ResultCache


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _hammer(directory, worker, writes, max_bytes):
    """One concurrent writer: interleaved puts and lookups on a shared dir.

    Module-level so worker processes can unpickle it.  Returns
    ``(bad_values, stats)`` -- ``bad_values`` counts lookups that hit
    but returned the wrong payload, which must never happen no matter
    how writes and prunes interleave.
    """
    cache = ResultCache(directory, max_bytes=max_bytes)
    bad = 0
    for i in range(writes):
        # Writers deliberately collide on half the key space.
        shared = i % (writes // 2)
        key = cache.key("concurrent", dict(cell=shared))
        cache.put(key, ("payload", shared))
        hit, value = cache.lookup(key)
        if hit and value != ("payload", shared):
            bad += 1
        # And probe a peer's keyspace while they write it.
        other_key = cache.key("concurrent", dict(cell=(shared + 1) % (writes // 2)))
        hit, value = cache.lookup(other_key)
        if hit and not (value[0] == "payload" and isinstance(value[1], int)):
            bad += 1
    return bad, cache.stats.as_dict()


class TestKeys:
    def test_deterministic(self, cache):
        params = dict(n=2, r=2, m=3, k=1, seed=0)
        assert cache.key("cell", params) == cache.key("cell", params)

    def test_sensitive_to_namespace_and_params(self, cache):
        params = dict(n=2, r=2, m=3, k=1, seed=0)
        assert cache.key("cell", params) != cache.key("other", params)
        assert cache.key("cell", params) != cache.key(
            "cell", dict(params, seed=1)
        )

    def test_enums_are_stable_key_material(self, cache):
        a = cache.key("cell", dict(model=MulticastModel.MSW))
        b = cache.key("cell", dict(model=MulticastModel.MAW))
        c = cache.key(
            "cell", dict(model=MulticastModel.MSW, extra=Construction.MSW_DOMINANT)
        )
        assert len({a, b, c}) == 3

    def test_unstable_key_material_rejected(self, cache):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="stable"):
            cache.key("cell", dict(thing=Opaque()))

    def test_code_version_bump_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, code_version=CODE_VERSION)
        new = ResultCache(tmp_path, code_version=CODE_VERSION + ".bumped")
        params = dict(n=2, r=2, m=3, k=1)
        key_old = old.key("cell", params)
        old.put(key_old, "stale")
        key_new = new.key("cell", params)
        assert key_new != key_old
        hit, _ = new.lookup(key_new)
        assert not hit  # the bumped version cannot see the old entry

    def test_kernel_id_separates_entries(self, cache):
        params = dict(n=2, r=2, m=3, k=1)
        assert cache.key("cell", params, kernel="bitmask") != cache.key(
            "cell", params, kernel="reference"
        )

    def test_kernel_defaults_to_active_kernel(self, cache):
        params = dict(n=2, r=2, m=3, k=1)
        with routing_kernel("bitmask"):
            under_bitmask = cache.key("cell", params)
        with routing_kernel("reference"):
            under_reference = cache.key("cell", params)
        assert under_bitmask != under_reference
        with routing_kernel("bitmask"):
            assert cache.key("cell", params, kernel="bitmask") == under_bitmask


class TestStorage:
    def test_roundtrip(self, cache):
        key = cache.key("cell", dict(seed=0))
        cache.put(key, (12, [3, 4], {"a": 1}))
        assert cache.get(key) == (12, [3, 4], {"a": 1})
        assert key in cache
        assert len(cache) == 1

    def test_cached_none_is_a_hit(self, cache):
        """A stored None (e.g. 'adversary found no witness') is not a miss."""
        key = cache.key("adversary", dict(seed=7))
        cache.put(key, None)
        hit, value = cache.lookup(key)
        assert hit and value is None

    def test_miss(self, cache):
        hit, value = cache.lookup(cache.key("cell", dict(seed=99)))
        assert not hit and value is None
        assert cache.stats.misses == 1

    def test_corrupted_entry_recovered(self, cache):
        key = cache.key("cell", dict(seed=0))
        cache.put(key, "good")
        path = cache._path(key)
        path.write_bytes(b"\x80garbage that will not unpickle")
        hit, _ = cache.lookup(key)
        assert not hit
        assert cache.stats.corrupt == 1
        assert not path.exists()  # discarded, ready for a clean rewrite
        cache.put(key, "rewritten")
        assert cache.get(key) == "rewritten"

    def test_truncated_entry_recovered(self, cache):
        key = cache.key("cell", dict(seed=0))
        cache.put(key, list(range(1000)))
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:10])
        hit, _ = cache.lookup(key)
        assert not hit and cache.stats.corrupt == 1

    def test_atomic_writes_leave_no_temp_files(self, cache):
        for seed in range(5):
            cache.put(cache.key("cell", dict(seed=seed)), seed)
        leftovers = [
            p for p in cache.directory.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert len(cache) == 5

    def test_clear(self, cache):
        for seed in range(3):
            cache.put(cache.key("cell", dict(seed=seed)), seed)
        assert cache.clear() == 3
        assert len(cache) == 0


class TestBoundedGrowth:
    @staticmethod
    def _stamp(cache, key, age):
        """Pin an entry's mtime so LRU order is deterministic."""
        import os

        os.utime(cache._path(key), ns=(age * 10**9, age * 10**9))

    def test_unbounded_by_default(self, cache):
        assert cache.max_bytes is None
        for seed in range(20):
            cache.put(cache.key("cell", dict(seed=seed)), bytes(4096))
        assert len(cache) == 20
        assert cache.stats.evictions == 0

    def test_put_prunes_least_recently_used(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        keys = [cache.key("cell", dict(seed=seed)) for seed in range(3)]
        for age, key in enumerate(keys):
            cache.put(key, "x")
            self._stamp(cache, key, age + 1)
        # Budget of one byte: each write keeps itself, evicting elders.
        assert len(cache) == 1
        assert keys[2] in cache
        assert cache.stats.evictions == 2

    def test_lookup_refreshes_recency(self, tmp_path):
        entry = bytes(100)
        cache = ResultCache(tmp_path, max_bytes=350)
        keys = [cache.key("cell", dict(seed=seed)) for seed in range(3)]
        for age, key in enumerate(keys):
            cache.put(key, entry)
            self._stamp(cache, key, age + 1)
        hit, _ = cache.lookup(keys[0])  # oldest entry becomes hottest
        assert hit
        newest = cache.key("cell", dict(seed=99))
        cache.put(newest, entry)  # over budget: one eviction needed
        assert keys[0] in cache  # spared by the lookup
        assert keys[1] not in cache  # now the least recently used
        assert keys[2] in cache and newest in cache

    def test_pruned_entry_recovers_as_miss(self, tmp_path):
        """The prune-and-recover contract: eviction only costs a recompute."""
        cache = ResultCache(tmp_path, max_bytes=1)
        first = cache.key("cell", dict(seed=0))
        second = cache.key("cell", dict(seed=1))
        cache.put(first, "first")
        self._stamp(cache, first, 1)
        cache.put(second, "second")
        hit, _ = cache.lookup(first)
        assert not hit  # pruned -> plain miss, not an error
        cache.put(first, "first again")  # recompute-and-store path
        assert cache.get(first) == "first again"

    def test_newest_write_survives_even_over_budget(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        key = cache.key("cell", dict(seed=0))
        cache.put(key, bytes(10_000))
        assert cache.get(key) == bytes(10_000)

    def test_bounded_sweep_stays_correct(self, tmp_path):
        config = dict(steps=120, seeds=(0, 1))
        cache = ResultCache(tmp_path, max_bytes=64)  # roughly one entry
        # The facade opens unbounded caches; a bounded one goes through
        # the engine underneath it.
        bounded = _blocking_vs_m_impl(2, 2, 1, [1, 2, 3], cache=cache, **config)
        nocache = api.sweep(
            2, 2, 1, [1, 2, 3], traffic=api.UniformConfig(**config)
        )
        assert bounded == nocache
        assert cache.stats.evictions > 0
        assert cache.total_bytes() <= 64

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)


class TestConcurrentWriters:
    def test_concurrent_bounded_writers_roundtrip(self, tmp_path):
        """Many processes share one bounded cache without corruption.

        Every lookup that hits must return exactly the payload some
        writer stored -- torn writes, stampeding prunes or half-deleted
        entries would surface as a wrong value or an unpickling error.
        """
        directory = str(tmp_path / "shared")
        workers, writes = 4, 40
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _hammer,
                    [directory] * workers,
                    range(workers),
                    [writes] * workers,
                    [4096] * workers,
                )
            )
        assert [bad for bad, _ in results] == [0] * workers
        # The directory is still a healthy cache afterwards.
        survivor = ResultCache(directory, max_bytes=4096)
        leftovers = [
            p for p in survivor.directory.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        for i in range(writes // 2):
            hit, value = survivor.lookup(
                survivor.key("concurrent", dict(cell=i))
            )
            if hit:  # pruned entries are legal; wrong values are not
                assert value == ("payload", i)

    def test_put_recreates_removed_directory(self, tmp_path):
        """A peer wiping the cache directory costs a recompute, not a crash."""
        cache = ResultCache(tmp_path / "wiped")
        key = cache.key("cell", dict(seed=0))
        cache.put(key, "before")
        shutil.rmtree(cache.directory)
        cache.put(key, "after")  # must recreate the directory and succeed
        assert cache.get(key) == "after"

    def test_skipped_prune_is_caught_up_by_next_store(self, tmp_path, monkeypatch):
        """If a prune is skipped (peer holds the lock), a later store prunes.

        Simulated by disabling one store's prune, then verifying the
        following store brings the cache back under budget.
        """
        cache = ResultCache(tmp_path, max_bytes=150)
        monkeypatch.setattr(ResultCache, "_prune", lambda self, keep: None)
        for seed in range(4):
            cache.put(cache.key("cell", dict(seed=seed)), bytes(100))
        assert cache.total_bytes() > 150  # nothing pruned while "locked out"
        monkeypatch.undo()
        newest = cache.key("cell", dict(seed=99))
        cache.put(newest, bytes(100))
        assert cache.total_bytes() <= 150
        assert newest in cache


class TestSweepIntegration:
    CONFIG = dict(steps=120, seeds=(0, 1))

    @staticmethod
    def counted(call, **execution):
        """``(result, cache counters)`` of one facade call."""
        with obs.capture() as run:
            result = call(api.ExecConfig(**execution))
        counters = run.metrics.snapshot()["counters"]
        return result, {
            name: counters.get(f"cache.{name}", 0)
            for name in ("hits", "misses", "stores")
        }

    def blocking(self, cache=None, **execution):
        cache_dir = None if cache is None else str(cache.directory)
        return self.counted(
            lambda e: api.blocking(
                2, 2, 2, 1, traffic=api.UniformConfig(**self.CONFIG),
                execution=e,
            ),
            cache_dir=cache_dir, **execution,
        )

    def sweep(self, m_values, cache=None, traffic=None, **execution):
        cache_dir = None if cache is None else str(cache.directory)
        traffic = traffic or api.UniformConfig(**self.CONFIG)
        return self.counted(
            lambda e: api.sweep(2, 2, 1, m_values, traffic=traffic, execution=e),
            cache_dir=cache_dir, **execution,
        )

    def test_blocking_probability_warm_equals_cold(self, cache):
        cold, first = self.blocking(cache)
        warm, second = self.blocking(cache)
        nocache, _ = self.blocking()
        assert warm == cold == nocache
        assert first["stores"] == len(self.CONFIG["seeds"])
        assert second["hits"] == len(self.CONFIG["seeds"])

    def test_blocking_vs_m_resumed_sweep(self, cache):
        m_values = [1, 2, 3]
        full, _ = self.sweep(m_values, cache)
        # Simulate an interrupted sweep: drop a third of the entries.
        entries = sorted(cache.directory.glob("*.pkl"))
        for path in entries[:: 3]:
            path.unlink()
        resumed, counters = self.sweep(m_values, cache)
        nocache, _ = self.sweep(m_values)
        assert resumed == full == nocache
        assert counters["stores"] == len(entries[:: 3])

    def test_adversarial_curve_cached(self, cache):
        traffic = api.UniformConfig(
            adversarial=True, adversary_seeds=3, **self.CONFIG
        )
        cold, _ = self.sweep([3, 4], cache, traffic)
        warm, _ = self.sweep([3, 4], cache, traffic)
        assert warm == cold

    def test_exact_minimal_m_cached(self, cache):
        exact = lambda e: api.exact_m(2, 2, 1, x=1, m_max=6, execution=e)  # noqa: E731
        cold, first = self.counted(exact, cache_dir=str(cache.directory))
        warm, _ = self.counted(exact, cache_dir=str(cache.directory))
        assert first["stores"] == 3  # m = 1, 2, 3 -- the scan stops at the threshold
        assert warm.m_exact == cold.m_exact == 3
        assert [p.blockable for p in warm.per_m] == [
            p.blockable for p in cold.per_m
        ]

    def test_parallel_sweep_shares_the_cache(self, cache):
        serial, _ = self.sweep([1, 2], cache, jobs=1)
        parallel, counters = self.sweep([1, 2], cache, jobs=2)
        assert parallel == serial
        # Every cell of the second run came from the cache.
        assert counters["hits"] == 2 * len(self.CONFIG["seeds"])


# -- semantic fingerprint ----------------------------------------------------
#
# CODE_VERSION is bumped by hand, so nothing stops a refactor from changing
# what a cached cell means while keeping the version.  This digest pins the
# replay semantics themselves: counts, releases, cause histograms and the
# full explain_block-shaped cause dicts of a small fixed replay set, on the
# per-event python backend and on the fused kernel (interpreted).  A change
# to the digest is a semantic change: bump CODE_VERSION, then re-pin.

#: the built-in fabric models (every fabric registered at import time).
FINGERPRINT_FABRICS = ("clos", "crossbar", "awg_clos")
#: (n, r, k, x, m_values, steps, seed): one single-word shape and one whose
#: module masks straddle the 62-bit word boundary (r = 63).
FINGERPRINT_SHAPES = (
    (3, 3, 2, 2, (1, 2, 3, 5), 150, 3),
    (3, 63, 2, 2, (2, 4), 60, 11),
)
SEMANTIC_FINGERPRINT = (
    "10432782f7e6a3a31c21c836ac803986c9471eda07aa946acd1addd14ab27522"
)


def _semantic_fingerprint(monkeypatch) -> str:
    from repro.engine.fabrics import get_fabric
    from repro.engine.fused import FUSED_ENV
    from repro.perf.batch import _simulate

    monkeypatch.setenv(FUSED_ENV, "1")
    digest = hashlib.sha256()
    for n, r, k, x, m_values, steps, seed in FINGERPRINT_SHAPES:
        for fabric in FINGERPRINT_FABRICS:
            spec = get_fabric(fabric)
            for construction in spec.constructions or tuple(Construction):
                for model in MulticastModel:
                    for backend in ("python", "numba"):
                        attempts, reps = _simulate(
                            n, r, k, construction, model, x, steps, None,
                            seed, list(m_values), backend,
                            record_causes=True, fabric=fabric,
                        )
                        for m, rep in zip(m_values, reps):
                            record = (
                                backend, fabric, construction.value,
                                model.value, n, r, k, m,
                                attempts, rep.blocked, rep.releases,
                                sorted(rep.kind_counts.items()),
                                repr(rep.causes),
                            )
                            digest.update(repr(record).encode())
    return digest.hexdigest()


def test_semantic_fingerprint_is_pinned(monkeypatch):
    """Replay semantics are unchanged since CODE_VERSION was last set."""
    pytest.importorskip("numpy", reason="the fused kernel runs on numpy")
    assert _semantic_fingerprint(monkeypatch) == SEMANTIC_FINGERPRINT
