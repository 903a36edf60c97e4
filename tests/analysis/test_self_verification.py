"""``debug_checks``: the lockstep estimators verify themselves.

With ``debug_checks`` on, every freshly computed Clos cell is replayed
through the serial ``ThreeStageNetwork`` (per-event invariant checks
on) and any disagreement in ``(attempts, blocked)`` raises.  The replay
changes neither the numbers nor the obs counters.
"""

from __future__ import annotations

import pytest

from repro import api, obs
from repro.analysis import montecarlo
from repro.multistage.network import DEBUG_CHECKS_ENV

TRAFFIC = api.UniformConfig(steps=120, seeds=(0, 1))
PRECISION = api.ExecConfig(
    precision=api.PrecisionConfig(half_width=0.1, min_rounds=1, max_rounds=2)
)

CALLS = {
    "blocking": lambda search: [
        api.blocking(3, 3, 2, 1, traffic=TRAFFIC, search=search)
    ],
    "sweep": lambda search: api.sweep(
        3, 3, 1, [1, 2, 3], traffic=TRAFFIC, search=search
    ),
    "precision_sweep": lambda search: api.sweep(
        3, 3, 1, [1, 2, 3], traffic=api.UniformConfig(steps=120),
        execution=PRECISION, search=search,
    ),
}

CHECKED = api.SearchConfig(debug_checks=True)
UNCHECKED = api.SearchConfig(debug_checks=False)


def counts(estimates):
    return [(e.m, e.attempts, e.blocked) for e in estimates]


@pytest.fixture
def off_by_one(monkeypatch):
    """Make the lockstep engine report one extra block in its first cell."""
    real = montecarlo.simulate_batch

    def wrong(*args):
        cells = real(*args)
        (m, (attempts, blocked)), *rest = cells
        return [(m, (attempts, blocked + 1)), *rest]

    monkeypatch.setattr(montecarlo, "simulate_batch", wrong)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_checked_estimates_equal_unchecked(call):
    checked, unchecked = CALLS[call](CHECKED), CALLS[call](UNCHECKED)
    assert checked == unchecked
    assert counts(checked) == counts(unchecked)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_wrong_lockstep_count_raises(call, off_by_one):
    with pytest.raises(AssertionError, match=r"lockstep cell \(m=\d+, seed=\d+"):
        CALLS[call](CHECKED)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_unchecked_run_trusts_the_engine(call, off_by_one):
    """Without debug_checks nothing replays, so the wrong count stands."""
    CALLS[call](UNCHECKED)


def test_env_switches_checks_on(monkeypatch, off_by_one):
    monkeypatch.setenv(DEBUG_CHECKS_ENV, "1")
    with pytest.raises(AssertionError, match="antithetic=False"):
        CALLS["blocking"](api.SearchConfig())


@pytest.mark.parametrize("call", sorted(CALLS))
def test_obs_counters_unchanged_by_checks(call):
    snapshots = []
    for search in (CHECKED, UNCHECKED):
        with obs.capture() as run:
            CALLS[call](search)
        snapshots.append(run.metrics.snapshot()["counters"])
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["mc.cells"] > 0


def test_non_clos_fabric_is_not_replayed():
    """No serial network exists for awg_clos: checks leave it alone."""
    checked = api.sweep(
        3, 3, 2, [2, 3], traffic=TRAFFIC, fabric="awg_clos", search=CHECKED
    )
    unchecked = api.sweep(3, 3, 2, [2, 3], traffic=TRAFFIC, fabric="awg_clos")
    assert counts(checked) == counts(unchecked)
