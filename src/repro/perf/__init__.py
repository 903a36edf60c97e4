"""Performance layer: sweep engine, result cache and routing-kernel tools.

Every expensive computation in the reproduction decomposes into
independent work units -- (seed, m, config) cells of the Monte-Carlo
sweeps, adversary seeds, m-candidates of the exact model checker,
benchmark grid points.  :class:`ParallelSweeper` fans those units out
across worker processes (or threads) with chunking and merges the
results deterministically (keyed by work-unit id), so parallel output
is bit-identical to serial output; ``jobs="auto"`` adapts the worker
count to the host and falls back to inline serial execution whenever a
pool cannot win (the resolved :class:`ExecutionPlan` is recorded for
results metadata).

:class:`ResultCache` persists per-cell results content-addressed by
``(config hash, seed, kernel id, code version)`` with atomic writes and
corrupted-entry recovery, making repeated and interrupted sweeps
incremental and resumable (``--cache`` on the CLI).

The third piece is the lockstep structure-of-arrays Monte-Carlo
engine of :mod:`repro.perf.batch` -- the one route of the estimators:
it compiles each seed's traffic stream once and replays it against
every ``m`` value of a sweep in a single pass (common random numbers,
batch-per-process work units, per-replication bit-identity with the
serial simulator).  :func:`routing_kernel` / :func:`set_routing_kernel`
(from :mod:`repro.multistage.routing`) pick the cover search of the
serial routes: the bitmask kernel (the default) or the frozenset
reference implementation (the correctness oracle of the equivalence
tests and the ``bench_perf`` baseline).
"""

from repro.multistage.routing import (
    get_routing_kernel,
    routing_kernel,
    set_routing_kernel,
)
from repro.perf.batch import (
    BACKEND_ENV,
    CellOutcome,
    available_backends,
    compile_stream,
    replay_cell,
    resolve_backend,
    simulate_batch,
)
from repro.perf.cache import CODE_VERSION, CacheStats, ResultCache
from repro.perf.sweeper import (
    ExecutionPlan,
    ParallelSweeper,
    SweepResult,
    WorkUnit,
    last_plan,
    resolve_jobs,
    sweep,
)

__all__ = [
    "BACKEND_ENV",
    "CODE_VERSION",
    "CacheStats",
    "CellOutcome",
    "ExecutionPlan",
    "ParallelSweeper",
    "ResultCache",
    "SweepResult",
    "WorkUnit",
    "available_backends",
    "compile_stream",
    "get_routing_kernel",
    "last_plan",
    "replay_cell",
    "resolve_backend",
    "resolve_jobs",
    "routing_kernel",
    "set_routing_kernel",
    "simulate_batch",
    "sweep",
]
