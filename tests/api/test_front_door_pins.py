"""Literal front-door numbers, pinned independently of any second route.

Every value below was computed when ``api.blocking``/``api.sweep`` still
had two Monte-Carlo routes (the serial per-cell network and the lockstep
batch engine) and both routes agreed on it.  With one route left, these
literals are the second leg of the identity contract: a change to the
lockstep engine that shifts any ``(attempts, blocked)`` count fails here
even though no other route remains to disagree with it.
"""

from __future__ import annotations

from repro import api

UNIFORM = api.UniformConfig(steps=200, seeds=(0, 1, 2))


def counts(estimates):
    return [(e.m, e.attempts, e.blocked) for e in estimates]


def test_blocking_point():
    estimate = api.blocking(3, 4, 3, 2, x=2, traffic=UNIFORM)
    assert (estimate.attempts, estimate.blocked) == (311, 19)


def test_sweep_curve():
    curve = api.sweep(3, 3, 2, [1, 2, 3, 4], traffic=UNIFORM)
    assert counts(curve) == [
        (1, 311, 169), (2, 311, 72), (3, 311, 16), (4, 311, 2),
    ]


def test_adversarial_sweep():
    traffic = api.UniformConfig(steps=150, seeds=(0, 1), adversarial=True)
    curve = api.sweep(2, 2, 1, [2, 3, 4], traffic=traffic)
    assert counts(curve) == [(2, 151, 6), (3, 151, 0), (4, 151, 0)]


def test_precision_sweep():
    curve = api.sweep(
        3, 3, 2, [1, 2, 3],
        traffic=api.UniformConfig(steps=120),
        execution=api.ExecConfig(
            precision=api.PrecisionConfig(half_width=0.05, max_rounds=6)
        ),
    )
    assert [(e.m, e.attempts, e.blocked, e.adaptive.rounds) for e in curve] == [
        (1, 500, 260, 2), (2, 500, 97, 2), (3, 500, 19, 2),
    ]


def test_hotspot_sweep():
    curve = api.sweep(
        3, 3, 2, [2, 3], traffic=api.HotspotConfig(steps=150, seeds=(0, 1))
    )
    assert counts(curve) == [(2, 158, 32), (3, 158, 2)]


def test_awg_clos_sweep():
    curve = api.sweep(
        3, 3, 2, [2, 3],
        traffic=api.UniformConfig(steps=150, seeds=(0, 1)),
        fabric="awg_clos",
    )
    assert counts(curve) == [(2, 160, 101), (3, 160, 91)]
