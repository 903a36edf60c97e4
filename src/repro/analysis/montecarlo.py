"""Monte-Carlo blocking probability of three-stage networks.

The paper's theorems assert zero blocking above the ``m`` bound; this
module measures what happens *below* it: drive the network with random
dynamic multicast traffic and estimate the per-request blocking
probability as a function of ``m``.  The expected shape -- the implied
"figure" X3 of DESIGN.md -- is a blocking probability that decreases
with ``m`` and hits exactly zero at (in practice, somewhat before) the
theorem bound.

Blocked requests are dropped (the optical-domain behaviour the paper
motivates: no optical RAM to buffer them) and the simulation proceeds.

Determinism and parallelism
---------------------------

Each replication owns one :class:`random.Random` stream created from
its seed and threaded end-to-end through the traffic generator, so a
(seed, m, config) cell is a pure function of its arguments.  The
estimators compute every cell through the lockstep engine of
:mod:`repro.perf.batch`: each seed's stream is compiled once and
replayed against all of its ``m`` values in one work unit.  Units are
fanned out through :class:`repro.perf.ParallelSweeper` and merged in
seed order, which makes every :class:`BlockingEstimate` bit-identical
for any ``jobs`` value -- pooled seeds are summed, never interleaved.

:func:`_traffic_cell` is the serial oracle beside that one route: it
replays one cell on a
:class:`~repro.multistage.network.ThreeStageNetwork`, and the
``debug_checks`` self-verification, the per-event trace of ``wdm-repro
trace blocking`` and the benchmarks' serial baselines run it.

Because every cell is a pure function of its arguments, cells are also
*cacheable*: pass a :class:`repro.perf.cache.ResultCache` and each
(seed, m, config) replication -- and, in adversarial mode, each
(m, adversary-seed) search -- is looked up before being computed and
stored afterwards.  A re-run of an interrupted or repeated sweep then
recomputes only the missing cells, with results bit-identical to a
cold run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import TYPE_CHECKING, Any

from repro import obs as _obs
from repro.core.models import (
    Construction,
    MulticastModel,
    parse_construction,
    parse_multicast_model,
)
from repro.engine.fabrics import get_fabric
from repro.multistage.adversary import search_blocking_state
from repro.multistage.network import ThreeStageNetwork, _debug_checks_default
from repro.obs.meta import ResultMeta
from repro.perf.batch import simulate_batch
from repro.perf.sweeper import ParallelSweeper, WorkUnit
from repro.switching.generators import dynamic_traffic, stream_rng
from repro.workloads.keys import key_fragment

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.perf.cache import ResultCache
    from repro.workloads.base import WorkloadConfig

__all__ = [
    "AdaptiveInfo",
    "BlockingEstimate",
]


def _z_value(level: float) -> float:
    """Two-sided normal quantile for a confidence ``level`` in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


@dataclass(frozen=True)
class AdaptiveInfo:
    """How an adaptive (sequentially stopped) estimate was sampled.

    Attached to :attr:`BlockingEstimate.adaptive` by
    :mod:`repro.perf.adaptive`; excluded from estimate equality the same
    way ``meta`` is, so a pooled adaptive estimate can compare equal to
    a fixed-budget estimate with the same numbers.

    Attributes:
        rounds: sampling rounds this cell ran before stopping.
        replications: independent replications pooled (antithetic twins
            count individually).
        events: total traffic events simulated
            (``replications x steps``) -- the budget the fixed-budget
            comparison in ``bench_perf.py`` measures against.
        converged: whether the CI target was met (False means the
            round cap stopped the cell first).
        target_half_width: the requested half-width.
        relative: whether the target is relative to the point estimate.
        level: the confidence level of the stopping rule.
    """

    rounds: int
    replications: int
    events: int
    converged: bool
    target_half_width: float
    relative: bool
    level: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "rounds": self.rounds,
            "replications": self.replications,
            "events": self.events,
            "converged": self.converged,
            "target_half_width": self.target_half_width,
            "relative": self.relative,
            "level": self.level,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AdaptiveInfo":
        return cls(**data)


def _traffic_key(
    cache: "ResultCache",
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    seed: int,
    max_fanout: int | None,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> str:
    params = dict(
        n=n, r=r, m=m, k=k, construction=construction, model=model,
        x=x, steps=steps, seed=seed, max_fanout=max_fanout,
    )
    # The workload token joins the key only when non-uniform: uniform
    # runs keep their legacy addresses (warm caches stay warm), while a
    # non-uniform run can never collide with them -- the cross-workload
    # cache-poisoning guarantee.
    token = None if workload is None else workload.token()
    if token is not None:
        params["workload"] = token
    # The fabric token follows the same anchor rule: the Clos (token
    # None) keeps every legacy address, any other fabric model gets its
    # own -- Clos results can never be served for another topology.
    fabric_token = get_fabric(fabric).token()
    if fabric_token is not None:
        params["fabric"] = fabric_token
    return cache.key("traffic_cell", params)


def _adversary_key(
    cache: "ResultCache",
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    seed: int,
) -> str:
    return cache.key(
        "adversary_cell",
        dict(
            n=n, r=r, m=m, k=k, construction=construction, model=model,
            x=x, seed=seed,
        ),
    )


@dataclass(frozen=True)
class BlockingEstimate:
    """Blocking statistics of one configuration under random traffic.

    ``meta`` is the shared :class:`repro.obs.meta.ResultMeta` provenance
    envelope (code version, routing kernel, execution plan, obs
    summary).  It is excluded from equality/hashing -- two estimates
    with identical numbers compare equal even if one ran serial and the
    other parallel, preserving the bit-identity contracts.  ``adaptive``
    (how a sequentially stopped estimate was sampled) is excluded for
    the same reason: the pooled numbers, not the sampling path, define
    identity.

    The estimate carries first-class interval statistics: ``stderr``
    (binomial normal-approximation), ``ci(level)`` (the Wilson score
    interval, well behaved at and near ``p = 0`` -- exactly where the
    blocking curves live), ``half_width(level)`` (the Wilson interval's
    half-width, the quantity the adaptive driver's stopping rule
    targets), and ``merged``/``pooled`` for combining independent
    estimates of the same configuration.
    """

    n: int
    r: int
    m: int
    k: int
    construction: Construction
    model: MulticastModel
    x: int
    attempts: int
    blocked: int
    meta: ResultMeta | None = field(default=None, compare=False, repr=False)
    adaptive: AdaptiveInfo | None = field(default=None, compare=False, repr=False)

    @property
    def probability(self) -> float:
        """Fraction of setup attempts refused.

        ``nan`` with no attempts: an estimate that sampled nothing has
        no blocking probability to report (tables print it ``n/a``).
        """
        return self.blocked / self.attempts if self.attempts else math.nan

    @property
    def stderr(self) -> float:
        """Normal-approximation standard error ``sqrt(p(1-p)/n)``.

        ``inf`` with no attempts -- an unsampled estimate carries no
        information, and ``inf`` keeps stopping rules conservative.
        """
        if not self.attempts:
            return math.inf
        p = self.probability
        return math.sqrt(p * (1.0 - p) / self.attempts)

    def ci(self, level: float = 0.95) -> tuple[float, float]:
        """Wilson score confidence interval at ``level``.

        Unlike the Wald interval, Wilson never collapses to a width-zero
        interval at ``p = 0`` (its half-width shrinks like ``z^2 / n``),
        so a cell that has seen no blocking still reports honest
        uncertainty -- the property that lets the adaptive driver stop
        near-zero cells only once they are *provably* near zero.
        """
        if not self.attempts:
            return (0.0, 1.0)
        z = _z_value(level)
        n = self.attempts
        p = self.probability
        z2 = z * z
        denom = 1.0 + z2 / n
        center = (p + z2 / (2.0 * n)) / denom
        half = (z / denom) * math.sqrt(
            p * (1.0 - p) / n + z2 / (4.0 * n * n)
        )
        return (max(0.0, center - half), min(1.0, center + half))

    def half_width(self, level: float = 0.95) -> float:
        """Half the width of :meth:`ci` (``inf`` with no attempts)."""
        if not self.attempts:
            return math.inf
        low, high = self.ci(level)
        return (high - low) / 2.0

    def merged(self, other: "BlockingEstimate") -> "BlockingEstimate":
        """Pool this estimate with an independent one of the same cell.

        Attempts and blocked counts are summed, so merging the
        per-round estimates of a split run reproduces the single-run
        estimate *exactly* (integer sums carry no rounding).  ``meta``
        and ``adaptive`` describe a single run's provenance and do not
        survive a merge.
        """
        mine = (self.n, self.r, self.m, self.k, self.construction,
                self.model, self.x)
        theirs = (other.n, other.r, other.m, other.k, other.construction,
                  other.model, other.x)
        if mine != theirs:
            raise ValueError(
                f"cannot merge estimates of different cells: {mine} vs {theirs}"
            )
        return BlockingEstimate(
            n=self.n, r=self.r, m=self.m, k=self.k,
            construction=self.construction, model=self.model, x=self.x,
            attempts=self.attempts + other.attempts,
            blocked=self.blocked + other.blocked,
        )

    @classmethod
    def pooled(cls, estimates: "list[BlockingEstimate]") -> "BlockingEstimate":
        """Merge a non-empty list of independent same-cell estimates."""
        if not estimates:
            raise ValueError("cannot pool zero estimates")
        result = estimates[0]
        for estimate in estimates[1:]:
            result = result.merged(estimate)
        return result

    def to_json(self) -> str:
        """Canonical JSON; inverse of :meth:`from_json`.

        Alongside the defining counts, the payload carries the derived
        interval statistics (``stderr``, ``ci95``, ``half_width95``) so
        downstream consumers need no recomputation, plus the
        ``adaptive`` sampling record when present.  ``from_json``
        ignores the derived fields (they are functions of the counts)
        and tolerates their absence -- payloads written before they
        existed still load.
        """
        ci_low, ci_high = self.ci(0.95)
        half = self.half_width(0.95)
        return json.dumps(
            {
                "n": self.n, "r": self.r, "m": self.m, "k": self.k,
                "construction": self.construction.name,
                "model": self.model.name,
                "x": self.x,
                "attempts": self.attempts,
                "blocked": self.blocked,
                "stderr": self.stderr if self.attempts else None,
                "ci95": [ci_low, ci_high],
                "half_width95": half if self.attempts else None,
                "adaptive": (
                    self.adaptive.as_dict()
                    if self.adaptive is not None
                    else None
                ),
                "meta": self.meta.to_json() if self.meta is not None else None,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, payload: str) -> "BlockingEstimate":
        """Rebuild an estimate (meta included) from :meth:`to_json` output.

        Backward compatible with payloads written before the interval
        statistics and ``adaptive`` record existed: missing keys simply
        yield an estimate without an adaptive record (the interval
        statistics are always recomputed from the counts).
        """
        data = json.loads(payload)
        meta = data.get("meta")
        adaptive = data.get("adaptive")
        return cls(
            n=data["n"], r=data["r"], m=data["m"], k=data["k"],
            construction=parse_construction(data["construction"]),
            model=parse_multicast_model(data["model"]),
            x=data["x"],
            attempts=data["attempts"],
            blocked=data["blocked"],
            meta=ResultMeta.from_json(meta) if meta is not None else None,
            adaptive=(
                AdaptiveInfo.from_dict(adaptive)
                if adaptive is not None
                else None
            ),
        )


def _traffic_cell(
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    seed: int,
    max_fanout: int | None,
    debug_checks: bool | None = None,
    antithetic: bool = False,
    workload: "WorkloadConfig | None" = None,
) -> tuple[int, int]:
    """The serial Clos oracle: ``(attempts, blocked)`` for one traffic seed.

    Replays one ``(m, seed)`` cell on a
    :class:`~repro.multistage.network.ThreeStageNetwork`, one event at a
    time.  The estimators never route through it -- they run the
    lockstep engine, which must agree with it bit for bit -- but the
    ``debug_checks`` self-verification (:func:`_verify_unit`), the
    per-event trace of ``wdm-repro trace blocking`` and the benchmarks'
    serial baselines do.

    The seed's single ``random.Random`` stream drives the traffic
    generator end-to-end; nothing else in the cell draws randomness, so
    the result depends only on the arguments.  With ``antithetic=True``
    the stream is the seed's antithetic mirror
    (:class:`repro.switching.generators.AntitheticRandom`) -- the
    variance-reduction twin the adaptive driver pairs with the plain
    stream.  ``workload`` swaps in a registered traffic model from
    :mod:`repro.workloads` (None = the uniform generator, the
    historical behaviour).  ``debug_checks`` re-verifies the network
    invariants after every event; it cannot change the result.
    """
    _obs.inc("mc.cells")
    rng = stream_rng(seed, antithetic)
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x,
        debug_checks=debug_checks,
    )
    attempts = 0
    blocked = 0
    live: dict[int, int] = {}
    dropped: set[int] = set()
    if workload is None:
        events = dynamic_traffic(
            model, n * r, k, steps=steps, seed=rng, max_fanout=max_fanout
        )
    else:
        events = workload.events(
            model, n * r, k, steps=steps, rng=rng, max_fanout=max_fanout
        )
    for event in events:
        if event.kind == "setup":
            attempts += 1
            connection_id = net.try_connect(event.connection)
            if connection_id is None:
                blocked += 1
                dropped.add(event.connection_id)
            else:
                live[event.connection_id] = connection_id
        else:
            if event.connection_id in dropped:
                dropped.discard(event.connection_id)
                continue
            net.disconnect(live.pop(event.connection_id))
    return attempts, blocked


def _batch_unit(
    unit_id: object,
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    seed: int,
    m_values: tuple[int, ...],
    antithetic: bool,
    workload: "WorkloadConfig | None",
    fabric: str,
) -> WorkUnit:
    """One seed's lockstep work unit: every ``m`` in ``m_values`` at once."""
    return WorkUnit(
        unit_id=unit_id,
        fn=simulate_batch,
        args=(
            n, r, k, construction, model, x, steps, max_fanout, seed,
            m_values, "auto", antithetic, workload, fabric,
        ),
    )


def _verify_unit(
    unit: WorkUnit,
    cells: list[tuple[int, tuple[int, int]]],
    debug_checks: bool | None,
) -> None:
    """The estimators' ``debug_checks`` self-verification.

    With ``debug_checks`` on (or, when None, with
    ``WDM_REPRO_DEBUG_CHECKS`` set), every Clos cell a lockstep
    :func:`_batch_unit` just computed is replayed through
    :func:`_traffic_cell` on a ``ThreeStageNetwork`` that checks its
    invariants after every event, and a disagreement in ``(attempts,
    blocked)`` raises ``AssertionError`` naming the ``(m, seed,
    antithetic)`` cell.  Other fabrics have no serial network to replay
    on.  The replay runs with observability paused, so counters and
    traces are the lockstep run's alone.
    """
    (n, r, k, construction, model, x, steps, max_fanout, seed, _, _,
     antithetic, workload, fabric) = unit.args
    if fabric != "clos":
        return
    if not (_debug_checks_default() if debug_checks is None else debug_checks):
        return
    with _obs.paused():
        for m, value in cells:
            serial = _traffic_cell(
                n, r, m, k, construction, model, x, steps, seed, max_fanout,
                True, antithetic, workload,
            )
            if tuple(value) != serial:
                raise AssertionError(
                    f"debug_checks: lockstep cell (m={m}, seed={seed}, "
                    f"antithetic={antithetic}) gave (attempts, blocked) = "
                    f"{tuple(value)}, the serial network {serial}"
                )


def _run_batched_cells(
    sweeper: ParallelSweeper,
    cache: "ResultCache | None",
    cells: list[tuple[int, int]],
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
    debug_checks: bool | None = None,
) -> dict[tuple[int, int], tuple[int, int]]:
    """All ``(m, seed)`` traffic cells through the lockstep batch engine.

    Cells sharing a seed share one compiled traffic stream and one
    :func:`repro.perf.batch.simulate_batch` work unit (so the sweeper
    fans out batch-per-process), and each cell's result lands in
    ``cache`` under its own per-cell traffic key: a re-run computes
    only the missing cells.  Each unit's fabric state runs on the
    backend :func:`repro.engine.backends.resolve_backend` picks for
    ``"auto"`` (``WDM_REPRO_BATCH_BACKEND``, else the fused ``numba``
    kernel when usable, else ``python``); every backend is
    bit-identical, which is why cache keys ignore the backend.
    Freshly computed cells pass :func:`_verify_unit` before they are
    stored.
    """
    results: dict[tuple[int, int], tuple[int, int]] = {}
    keys: dict[tuple[int, int], str] = {}
    pending: list[tuple[int, int]] = []
    for cell in cells:
        m, seed = cell
        if cache is not None:
            key = _traffic_key(
                cache, n, r, m, k, construction, model, x, steps, seed,
                max_fanout, workload, fabric,
            )
            keys[cell] = key
            hit, value = cache.lookup(key)
            if hit:
                results[cell] = tuple(value)
                continue
        pending.append(cell)
    by_seed: dict[int, list[int]] = {}
    for m, seed in pending:
        by_seed.setdefault(seed, []).append(m)
    units = [
        _batch_unit(
            seed, n, r, k, construction, model, x, steps, max_fanout, seed,
            tuple(by_seed[seed]), False, workload, fabric,
        )
        for seed in sorted(by_seed)
    ]
    for unit, unit_result in zip(units, sweeper.run(units)):
        _verify_unit(unit, unit_result.value, debug_checks)
        for m, value in unit_result.value:
            cell = (m, unit.unit_id)
            results[cell] = value
            if cache is not None:
                cache.put(keys[cell], value)
    return results


def _blocking_probability_impl(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    steps: int = 2000,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_fanout: int | None = None,
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
    executor: str = "process",
    debug_checks: bool | None = None,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> BlockingEstimate:
    """Estimate blocking probability under random dynamic traffic.

    Requests come from :func:`repro.switching.generators.dynamic_traffic`;
    blocked setups are dropped (their endpoints stay free for later
    requests, mirroring loss-mode optical switching).

    Args:
        n, r, m, k: topology.
        construction, model, x: network configuration.
        steps: traffic events per seed.
        seeds: independent replications (results are pooled).  Each seed
            owns one RNG stream end-to-end and runs a fresh network, so
            the pooled estimate is deterministic for any ``jobs``.
        max_fanout: cap on destinations per request.
        jobs: worker processes for the per-seed sweep (1 = in-process,
            ``"auto"`` = adapt to the host).
        cache: optional per-cell result cache (incremental re-runs).
        executor: worker pool kind, ``"process"`` or ``"thread"``.
        debug_checks: replay every freshly computed cell through the
            serial network with per-event invariant checks and raise on
            any disagreement (slow; result-identical, so cache keys
            ignore it) -- see :func:`_verify_unit`.
        workload: a registered traffic model from
            :mod:`repro.workloads` (None = uniform, the historical
            behaviour); its identity joins every cell cache key.
        fabric: the registered fabric model the traffic replays through
            (:mod:`repro.engine.fabrics`; ``"clos"`` is the paper's
            network).  Its token joins every non-Clos cell cache key.
    """
    with ParallelSweeper(jobs, executor=executor) as sweeper:
        by_cell = _run_batched_cells(
            sweeper, cache, [(m, seed) for seed in seeds],
            n, r, k, construction, model, x, steps, max_fanout, workload,
            fabric, debug_checks,
        )
        plan = sweeper.last_plan
    values = [by_cell[(m, seed)] for seed in seeds]
    return BlockingEstimate(
        n=n,
        r=r,
        m=m,
        k=k,
        construction=construction,
        model=model,
        x=x,
        attempts=sum(value[0] for value in values),
        blocked=sum(value[1] for value in values),
        meta=ResultMeta.capture(plan, workload=workload),
    )


def _adversary_seeds(m: int, count: int, traffic_key: str) -> list[int]:
    """The deterministic adversary-seed schedule for one ``m`` point.

    Derived from the *whole* configuration (``traffic_key``, see
    :func:`_adversary_traffic_key`), so two sweeps with equal ``m`` but
    different topology/model/traffic get independent adversary streams.
    """
    rng = random.Random(f"{traffic_key}|m={m}")
    return [rng.randrange(10**9) for _ in range(count)]


def _adversary_traffic_key(
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
) -> str:
    """Configuration fingerprint mixed into the adversary-seed schedule."""
    return key_fragment(
        dict(n=n, r=r, k=k, construction=construction, model=model, x=x)
    )


def _blocking_vs_m_impl(
    n: int,
    r: int,
    k: int,
    m_values: list[int],
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    steps: int = 1500,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_fanout: int | None = None,
    adversarial: bool = False,
    adversary_seeds: int = 20,
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
    executor: str = "process",
    debug_checks: bool | None = None,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> list[BlockingEstimate]:
    """The blocking-probability-vs-``m`` curve (implied figure X3).

    With ``adversarial=True``, each point additionally runs the
    randomized adversary of
    :func:`repro.multistage.adversary.search_blocking_state`; if the
    adversary finds a witness at an ``m`` where random traffic saw no
    blocking, one synthetic blocked attempt is recorded so the curve
    reflects *worst-case* rather than average-case behaviour.

    The traffic stage runs each seed's whole ``m`` column in lockstep
    through :mod:`repro.perf.batch`, one work unit per seed; in
    adversarial mode every (m, adversary-seed) search is a work unit
    too.  With ``jobs > 1`` (or ``"auto"``) units run concurrently and
    merge by id, so the curve is bit-identical to ``jobs=1`` (serial
    short-circuits skip redundant adversary cells but pick the same
    first witness).  Both stages share one sweeper, so a parallel run
    pays the pool spawn cost once.  With ``cache``, every cell is
    content-addressed in the given
    :class:`~repro.perf.cache.ResultCache`, so re-runs only compute
    cells missing from the cache.  ``debug_checks`` replays every
    freshly computed traffic cell through the serial network (see
    :func:`_verify_unit`).
    """
    if adversarial and workload is not None and workload.token() is not None:
        raise ValueError(
            "adversarial probing is defined for uniform traffic only "
            "(the adversary constructs its own worst-case states); got "
            f"workload {workload.workload!r}"
        )
    if adversarial and get_fabric(fabric).token() is not None:
        raise ValueError(
            "adversarial probing is defined for the Clos fabric only "
            "(the adversary constructs three-stage worst-case states); "
            f"got fabric {fabric!r}"
        )
    traffic_key = _adversary_traffic_key(n, r, k, construction, model, x)
    with ParallelSweeper(jobs, executor=executor) as sweeper:
        by_cell = _run_batched_cells(
            sweeper, cache,
            [(m, seed) for m in m_values for seed in seeds],
            n, r, k, construction, model, x, steps, max_fanout, workload,
            fabric, debug_checks,
        )
        estimates = []
        for m in m_values:
            attempts = sum(by_cell[(m, seed)][0] for seed in seeds)
            blocked = sum(by_cell[(m, seed)][1] for seed in seeds)
            estimates.append(
                BlockingEstimate(
                    n=n,
                    r=r,
                    m=m,
                    k=k,
                    construction=construction,
                    model=model,
                    x=x,
                    attempts=attempts,
                    blocked=blocked,
                )
            )
        if not adversarial:
            meta = ResultMeta.capture(sweeper.last_plan, workload=workload)
            return [replace(estimate, meta=meta) for estimate in estimates]

        needs_adversary = [
            (index, estimate)
            for index, estimate in enumerate(estimates)
            if estimate.blocked == 0
        ]
        witnessed: set[int] = set()
        if jobs == 1:
            # Serial short-circuit: stop at the first witness per m, exactly
            # like the pre-sweeper implementation.
            for index, estimate in needs_adversary:
                for seed in _adversary_seeds(
                    estimate.m, adversary_seeds, traffic_key
                ):
                    key = (
                        None
                        if cache is None
                        else _adversary_key(
                            cache, n, r, estimate.m, k, construction,
                            model, x, seed,
                        )
                    )
                    if key is not None:
                        hit, witness = cache.lookup(key)
                        if not hit:
                            witness = search_blocking_state(
                                n, r, estimate.m, k,
                                construction=construction, model=model,
                                x=x, seed=seed,
                            )
                            cache.put(key, witness)
                    else:
                        witness = search_blocking_state(
                            n, r, estimate.m, k,
                            construction=construction, model=model,
                            x=x, seed=seed,
                        )
                    if witness is not None:
                        witnessed.add(index)
                        break
        else:
            units = [
                WorkUnit(
                    unit_id=(index, attempt),
                    fn=search_blocking_state,
                    args=(n, r, estimate.m, k),
                    kwargs=dict(
                        construction=construction, model=model, x=x, seed=seed
                    ),
                    cache_key=(
                        None
                        if cache is None
                        else _adversary_key(
                            cache, n, r, estimate.m, k, construction,
                            model, x, seed,
                        )
                    ),
                )
                for index, estimate in needs_adversary
                for attempt, seed in enumerate(
                    _adversary_seeds(estimate.m, adversary_seeds, traffic_key)
                )
            ]
            found = sweeper.run_keyed(units, cache=cache)
            for index, estimate in needs_adversary:
                # First witness in schedule order == the serial short-circuit's.
                if any(
                    found[(index, attempt)].value is not None
                    for attempt in range(adversary_seeds)
                ):
                    witnessed.add(index)
    for index in witnessed:
        estimate = estimates[index]
        estimates[index] = BlockingEstimate(
            n=n,
            r=r,
            m=estimate.m,
            k=k,
            construction=construction,
            model=model,
            x=x,
            attempts=estimate.attempts + 1,
            blocked=1,
        )
    meta = ResultMeta.capture(sweeper.last_plan, workload=workload)
    return [replace(estimate, meta=meta) for estimate in estimates]

