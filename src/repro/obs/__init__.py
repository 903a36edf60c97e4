"""Observability layer: zero-cost-when-off metrics, tracing and reports.

The paper's theorems are about *why* a request blocks -- which middle
switches are full, which wavelength is saturated -- but the Monte-Carlo
and exhaustive engines historically reported only aggregate verdicts.
This package instruments every hot path in the repo behind a single
module-level switch:

* :mod:`repro.obs.metrics` -- counters/timers/gauges (admission
  attempts, cover-search node expansions, cache hits/misses, pool
  queue latencies), mergeable across
  :class:`repro.perf.ParallelSweeper` worker processes;
* :mod:`repro.obs.trace` -- a structured JSONL tracer for request
  admit/block/release events, with the blocking *cause* reconstructed
  from :class:`~repro.multistage.network.ThreeStageNetwork`'s bitmask
  caches (``wdm-repro trace`` on the CLI);
* :mod:`repro.obs.report` -- aggregation and export of one run's
  observations;
* :mod:`repro.obs.meta` -- the :class:`~repro.obs.meta.ResultMeta`
  envelope (code version, kernel id, execution plan, obs summary)
  attached to results by :mod:`repro.api`.

**Zero cost when off.**  Every hook site in the simulator guards on
:func:`enabled` -- a read of one module-level boolean -- and the
disabled hook functions return before touching anything, allocating
nothing.  ``benchmarks/bench_perf.py`` asserts the obs-off overhead on
the routing-replay and end-to-end sections stays within noise, and
``tests/obs`` asserts the disabled admit path performs zero
allocations.

Typical use::

    from repro import api, obs

    with obs.capture() as run:                 # metrics only
        estimate = api.blocking(3, 3, 4, 1)
    print(run.metrics.snapshot()["counters"])

    import sys
    with obs.capture(sink=sys.stdout):         # metrics + JSONL trace
        api.blocking(3, 3, 2, 1)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, IO, Iterator

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import TRACE_SCHEMA, Tracer, validate_record

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.multistage.network import (
        MulticastConnection,
        RoutedConnection,
        ThreeStageNetwork,
    )
    from repro.multistage.routing import CoverSearch

__all__ = [
    "Capture",
    "MetricsRegistry",
    "REGISTRY",
    "TRACE_SCHEMA",
    "Tracer",
    "capture",
    "disable",
    "enable",
    "enabled",
    "inc",
    "observe",
    "on_admit",
    "on_block",
    "on_release",
    "paused",
    "reset",
    "summary",
    "tracer",
    "validate_record",
]

#: the master switch -- hot paths read this via :func:`enabled`
_ENABLED = False
#: the active tracer, or None for metrics-only observation
_TRACER: Tracer | None = None


def enabled() -> bool:
    """Is observability on?  The hot-path guard; reads one boolean."""
    return _ENABLED


def enable(tracer: Tracer | None = None) -> None:
    """Turn observability on (metrics always; tracing if ``tracer`` given)."""
    global _ENABLED, _TRACER
    _TRACER = tracer
    _ENABLED = True


def disable() -> None:
    """Turn observability off (recorded metrics are kept until :func:`reset`)."""
    global _ENABLED, _TRACER
    _ENABLED = False
    _TRACER = None


def tracer() -> Tracer | None:
    """The active tracer, or None."""
    return _TRACER


def reset() -> None:
    """Clear the process-wide metrics registry."""
    REGISTRY.reset()


@dataclass(frozen=True)
class Capture:
    """Handle yielded by :func:`capture`: the registry plus the tracer."""

    metrics: MetricsRegistry
    tracer: Tracer | None

    def summary(self) -> dict[str, Any]:
        """Metrics snapshot plus trace summary for this capture."""
        out: dict[str, Any] = {"metrics": self.metrics.snapshot()}
        if self.tracer is not None:
            out["trace"] = self.tracer.summary_record()
        return out


@contextmanager
def capture(
    sink: IO[str] | None = None,
    *,
    tracer: Tracer | None = None,
    reset_metrics: bool = True,
) -> Iterator[Capture]:
    """Enable observability for a ``with`` block and yield a :class:`Capture`.

    The Monte-Carlo estimators (:func:`repro.api.blocking` /
    :func:`repro.api.sweep`) run the lockstep engine of
    :mod:`repro.perf.batch`, which records aggregate counters only
    (``mc.cells``, ``mc.certified_cells`` -- columns whose replay the
    corrected Theorem 1/2 bound let the engine skip --
    ``net.admit.*``, ``net.block.cause.*``, ``net.release``) and never
    per-event trace records.  A per-event
    trace of random traffic comes from the serial network instead --
    ``wdm-repro trace blocking`` drives
    :func:`repro.analysis.montecarlo._traffic_cell` per seed.

    Args:
        sink: writable text stream to receive the JSONL trace; None
            (default) with no ``tracer`` means metrics only.
        tracer: a preconfigured :class:`Tracer` (overrides ``sink``).
        reset_metrics: start the block from an empty registry.
    """
    active = tracer if tracer is not None else (Tracer(sink) if sink is not None else None)
    if reset_metrics:
        REGISTRY.reset()
    previous = (_ENABLED, _TRACER)
    enable(active)
    try:
        yield Capture(metrics=REGISTRY, tracer=active)
    finally:
        if previous[0]:
            enable(previous[1])
        else:
            disable()


@contextmanager
def paused() -> Iterator[None]:
    """Switch observability off for a ``with`` block, then restore it.

    Work done inside records no metrics and no trace events -- how a
    self-check replays a result without counting it twice.
    """
    previous = (_ENABLED, _TRACER)
    disable()
    try:
        yield
    finally:
        if previous[0]:
            enable(previous[1])


def summary() -> dict[str, Any]:
    """Snapshot of the process-wide registry plus active-trace summary."""
    out: dict[str, Any] = {"metrics": REGISTRY.snapshot()}
    if _TRACER is not None:
        out["trace"] = _TRACER.summary_record()
    return out


# -- guarded recording helpers (no-ops while disabled) -----------------------


def inc(name: str, value: int = 1) -> None:
    """Counter increment that is a no-op (and allocation-free) when off."""
    if not _ENABLED:
        return
    REGISTRY.inc(name, value)


def observe(name: str, seconds: float) -> None:
    """Timer observation that is a no-op (and allocation-free) when off."""
    if not _ENABLED:
        return
    REGISTRY.observe(name, seconds)


# -- hot-path hooks ----------------------------------------------------------
#
# The simulator calls these behind its own ``if obs.enabled():`` guard,
# but each hook re-checks the flag so a direct call is equally safe; the
# disabled path returns before allocating anything.


def _record_cover_stats(stats: "CoverSearch | None") -> None:
    if stats is None:
        return
    if stats.greedy_hit:
        REGISTRY.inc("route.cover.greedy_hits")
    if stats.exact_nodes:
        REGISTRY.inc("route.cover.exact_nodes", stats.exact_nodes)


def on_admit(
    net: "ThreeStageNetwork",
    routed: "RoutedConnection",
    stats: "CoverSearch | None" = None,
) -> None:
    """Record one admitted connection (and trace it if tracing)."""
    if not _ENABLED:
        return
    REGISTRY.inc("net.admit.attempts")
    REGISTRY.inc("net.admit.admitted")
    _record_cover_stats(stats)
    if _TRACER is not None:
        request = routed.request
        _TRACER.emit(
            {
                "event": "admit",
                "connection_id": routed.connection_id,
                "source": [request.source.port, request.source.wavelength],
                "destinations": [
                    [d.port, d.wavelength] for d in request.destinations
                ],
                "middles": [branch.middle for branch in routed.branches],
                "branches": [
                    [
                        branch.middle,
                        branch.in_wavelength,
                        [[p, w] for p, w in branch.deliveries],
                    ]
                    for branch in routed.branches
                ],
            }
        )


def on_block(
    net: "ThreeStageNetwork",
    request: "MulticastConnection",
    cause: dict[str, Any],
    stats: "CoverSearch | None" = None,
) -> None:
    """Record one blocked request with its reconstructed cause."""
    if not _ENABLED:
        return
    REGISTRY.inc("net.admit.attempts")
    REGISTRY.inc("net.admit.blocked")
    REGISTRY.inc(f"net.block.cause.{cause['kind']}")
    _record_cover_stats(stats)
    if _TRACER is not None:
        _TRACER.emit(
            {
                "event": "block",
                "source": [request.source.port, request.source.wavelength],
                "destinations": [
                    [d.port, d.wavelength] for d in request.destinations
                ],
                "cause": cause,
            }
        )


def on_release(net: "ThreeStageNetwork", connection_id: int) -> None:
    """Record one teardown."""
    if not _ENABLED:
        return
    REGISTRY.inc("net.release")
    if _TRACER is not None:
        _TRACER.emit({"event": "release", "connection_id": connection_id})


# -- lazy heavy exports ------------------------------------------------------
#
# ``meta`` and ``report`` pull in repro.perf (and through it the
# multistage package); importing them eagerly here would cycle with the
# simulator modules that import repro.obs for their hook guards.

_LAZY = {"meta", "report", "ResultMeta", "ObsReport"}


def __getattr__(name: str) -> Any:  # pragma: no cover - thin import shim
    if name in _LAZY:
        import importlib

        meta = importlib.import_module("repro.obs.meta")
        report = importlib.import_module("repro.obs.report")
        values = {
            "meta": meta,
            "report": report,
            "ResultMeta": meta.ResultMeta,
            "ObsReport": report.ObsReport,
        }
        globals().update(values)
        return values[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
