"""Parallel sweeps must be bit-identical to their serial counterparts.

The sweep engine's contract is that ``jobs`` only changes wall time,
never results: every cell owns its RNG stream and the merge is keyed,
so the assertions here compare full result structures for equality.
"""

from __future__ import annotations

from repro import api

PARALLEL = api.ExecConfig(jobs=2)


def _key(estimates):
    return [(e.m, e.attempts, e.blocked) for e in estimates]


class TestBlockingProbabilityDeterminism:
    def test_jobs_do_not_change_the_estimate(self):
        traffic = api.UniformConfig(steps=300, seeds=(0, 1, 2))
        serial = api.blocking(3, 3, 2, 1, x=1, traffic=traffic)
        parallel = api.blocking(
            3, 3, 2, 1, x=1, traffic=traffic, execution=PARALLEL
        )
        assert (serial.attempts, serial.blocked) == (
            parallel.attempts,
            parallel.blocked,
        )

    def test_each_seed_owns_one_stream(self):
        """Pooled totals equal the sum of single-seed runs: the per-seed
        streams are independent, so pooling is pure addition."""
        pooled = api.blocking(
            3, 3, 2, 1, x=1, traffic=api.UniformConfig(steps=300, seeds=(4, 5))
        )
        singles = [
            api.blocking(
                3, 3, 2, 1, x=1, traffic=api.UniformConfig(steps=300, seeds=(s,))
            )
            for s in (4, 5)
        ]
        assert pooled.attempts == sum(e.attempts for e in singles)
        assert pooled.blocked == sum(e.blocked for e in singles)


class TestBlockingVsMEquivalence:
    def test_serial_vs_parallel_curve(self):
        args = (3, 3, 1, [1, 2, 3, 4])
        kwargs = dict(x=1, traffic=api.UniformConfig(steps=300, seeds=(0, 1)))
        assert _key(api.sweep(*args, **kwargs)) == _key(
            api.sweep(*args, execution=PARALLEL, **kwargs)
        )

    def test_serial_vs_parallel_adversarial_curve(self):
        args = (3, 3, 1, [2, 4])
        kwargs = dict(
            x=1,
            traffic=api.UniformConfig(
                steps=150, seeds=(0,), adversarial=True, adversary_seeds=6
            ),
        )
        assert _key(api.sweep(*args, **kwargs)) == _key(
            api.sweep(*args, execution=PARALLEL, **kwargs)
        )


class TestExactMinimalMEquivalence:
    def test_serial_vs_parallel_scan(self):
        serial = api.exact_m(2, 2, 1, x=1, m_max=6)
        parallel = api.exact_m(2, 2, 1, x=1, m_max=6, execution=PARALLEL)
        assert serial == parallel
