"""Typed public facade: the one front door to the analysis engines.

Frozen config dataclasses grouped by concern:

* the :class:`repro.workloads.WorkloadConfig` family -- what traffic to
  offer.  :class:`UniformConfig` is the uniform member (the paper's
  i.i.d. requests); :class:`HotspotConfig`,
  :class:`HeavyTailFanoutConfig`, :class:`PoissonErlangConfig` and
  :class:`TraceConfig` are the non-uniform models, and any config
  registered with :func:`repro.workloads.register_workload` works too;
* :class:`ExecConfig` -- how to run it (worker count, pool kind,
  result-cache directory, precision targeting);
* :class:`SearchConfig` -- how to search (routing kernel of the
  exhaustive and adversarial searches, canonicalized exhaustive search,
  self-verification);

and three verbs that consume them:

* :func:`blocking` -- blocking probability of one configuration;
* :func:`sweep` -- the blocking-vs-``m`` curve;
* :func:`exact_m` -- the exhaustive exact nonblocking threshold.

:func:`blocking` and :func:`sweep` have one Monte-Carlo route: the
lockstep engine of :mod:`repro.perf.batch`, on the backend
``resolve_backend("auto")`` picks (``WDM_REPRO_BATCH_BACKEND``
overrides it).  Every result carries the shared
:class:`repro.obs.meta.ResultMeta` provenance envelope, which records
the workload that produced the numbers.  Adversary seeds derive from
the whole configuration, not just ``m``.

Typical use::

    from repro import api

    estimate = api.blocking(3, 3, 4, 1, x=1)
    curve = api.sweep(
        3, 3, 1, [1, 2, 3, 4],
        traffic=api.HotspotConfig(zipf_s=1.5, steps=500, seeds=(0, 1)),
        execution=api.ExecConfig(jobs="auto"),
    )
    exact = api.exact_m(2, 2, 1, x=1, m_max=5)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.montecarlo import (
    BlockingEstimate,
    _blocking_probability_impl,
    _blocking_vs_m_impl,
)
from repro.core.models import Construction, MulticastModel
from repro.engine.fabrics import fabric_names, get_fabric
from repro.multistage.exhaustive import ExactMinimal, _exact_minimal_m_impl
from repro.multistage.routing import routing_kernel
from repro.perf.adaptive import PrecisionConfig, adaptive_sweep
from repro.perf.cache import ResultCache
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    TraceConfig,
    UniformConfig,
    WorkloadConfig,
    make_workload,
    workload_from_dict,
    workload_names,
)

__all__ = [
    "BlockingEstimate",
    "ExactMinimal",
    "ExecConfig",
    "FabricConfig",
    "HeavyTailFanoutConfig",
    "HotspotConfig",
    "PoissonErlangConfig",
    "PrecisionConfig",
    "SearchConfig",
    "TraceConfig",
    "UniformConfig",
    "WorkloadConfig",
    "blocking",
    "exact_m",
    "fabric_names",
    "make_workload",
    "sweep",
    "workload_from_dict",
    "workload_names",
]


def _as_workload(traffic: WorkloadConfig) -> WorkloadConfig:
    """Validate the ``traffic`` argument."""
    if not isinstance(traffic, WorkloadConfig):
        raise TypeError(
            "traffic must be a repro.workloads config (UniformConfig, "
            f"HotspotConfig, ...), got {type(traffic).__name__}"
        )
    return traffic


@dataclass(frozen=True)
class FabricConfig:
    """Which registered fabric model to replay traffic through.

    Attributes:
        name: a :mod:`repro.engine.fabrics` registry name -- ``"clos"``
            (the paper's three-stage network; the default),
            ``"crossbar"`` (the single-stage
            nonblocking baseline), ``"awg_clos"`` (the AWG-routed Clos
            variant), or any name added with
            :func:`repro.engine.fabrics.register_fabric`.

    :func:`blocking` and :func:`sweep` also accept a bare fabric-name
    string; this config exists for symmetry with the other grouped
    configs and for future per-fabric options.  Unknown names raise the
    registry's uniform error at construction.
    """

    name: str = "clos"

    def __post_init__(self) -> None:
        get_fabric(self.name)


def _as_fabric(fabric: "str | FabricConfig") -> str:
    """Validate and normalize the ``fabric`` argument to a registry name."""
    name = fabric.name if isinstance(fabric, FabricConfig) else fabric
    get_fabric(name)
    return name


@dataclass(frozen=True)
class ExecConfig:
    """How to execute a run.

    Attributes:
        jobs: worker count -- 1 (inline, default), an explicit count,
            or ``"auto"`` for the effective CPU count.
        executor: ``"process"`` (default) or ``"thread"`` pools; the
            engine still falls back to serial whenever a pool cannot
            win.
        cache_dir: directory of a content-addressed
            :class:`repro.perf.cache.ResultCache`; None disables
            caching.
        precision: switch :func:`blocking` and :func:`sweep` from the
            fixed ``traffic.seeds`` replication budget to the adaptive
            sequential-stopping engine
            (:func:`repro.perf.adaptive.adaptive_sweep`): each cell
            samples antithetic/stratified rounds until its Wilson
            interval meets the configured half-width.  ``traffic.seeds``
            is ignored in this mode (the round schedule derives its own
            seeds); ``traffic.adversarial`` is rejected.  With
            ``cache_dir`` set, completed rounds persist and an
            interrupted sweep resumes bit-identically.
    """

    jobs: int | str = 1
    executor: str = "process"
    cache_dir: str | None = None
    precision: PrecisionConfig | None = None

    def cache(self) -> ResultCache | None:
        """The configured result cache, or None."""
        return ResultCache(self.cache_dir) if self.cache_dir is not None else None


@dataclass(frozen=True)
class SearchConfig:
    """How to search: kernel choice and self-verification.

    Attributes:
        kernel: cover-search kernel of the serial routes --
            :func:`exact_m` and adversarial probing -- ``"bitmask"`` or
            ``"reference"``; None (default) keeps the process's active
            kernel.  The kernel id also joins every cache key.  The
            Monte-Carlo estimators always replay in lockstep, so their
            numbers never depend on it.
        canonicalize: dedup exhaustive-search states by canonical
            signature (identical verdicts, far fewer states).
        debug_checks: replay every freshly computed Monte-Carlo cell
            through the serial network, re-verifying its invariants
            after every connect/disconnect, and raise if the counts
            differ (slow; result-identical).  None defers to the
            ``WDM_REPRO_DEBUG_CHECKS`` environment variable.
    """

    kernel: str | None = None
    canonicalize: bool = True
    debug_checks: bool | None = None

    @contextmanager
    def applied(self) -> Iterator[None]:
        """Pin the configured kernel for a ``with`` block (no-op if None)."""
        if self.kernel is None:
            yield
        else:
            with routing_kernel(self.kernel):
                yield


def _adaptive(
    n: int,
    r: int,
    k: int,
    m_values: list[int],
    construction: Construction,
    model: MulticastModel,
    x: int,
    traffic: WorkloadConfig,
    execution: ExecConfig,
    search: SearchConfig,
    *,
    default_steps: int,
    fabric: str = "clos",
) -> list[BlockingEstimate]:
    """Route a precision-targeted run to the adaptive engine."""
    if traffic.adversarial:
        raise ValueError(
            "adversarial traffic has no precision-targeted mode; "
            "unset the workload config's adversarial flag or "
            "ExecConfig.precision"
        )
    steps = traffic.resolved_steps(default_steps)
    # Workloads that cannot honour the adaptive contract (trace replay:
    # one fixed recording, no fresh streams per round) veto here with a
    # diagnosis rather than silently re-walking their events.
    traffic.validate_precision(execution.precision, steps)
    with search.applied():
        return adaptive_sweep(
            n, r, k, m_values,
            construction=construction,
            model=model,
            x=x,
            steps=steps,
            max_fanout=traffic.max_fanout,
            precision=execution.precision,
            jobs=execution.jobs,
            cache=execution.cache(),
            executor=execution.executor,
            debug_checks=search.debug_checks,
            workload=traffic,
            fabric=fabric,
        )


def blocking(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    traffic: WorkloadConfig = UniformConfig(),
    execution: ExecConfig = ExecConfig(),
    search: SearchConfig = SearchConfig(),
    fabric: "str | FabricConfig" = "clos",
) -> BlockingEstimate:
    """Blocking probability of ``v(n, r, m, k)`` under dynamic traffic.

    ``traffic`` accepts any :mod:`repro.workloads` config -- the
    uniform default reproduces the paper's generator, the others
    reshape the offered traffic.  Every seed's stream is replayed in
    lockstep by :mod:`repro.perf.batch`.  The returned estimate carries
    a :class:`repro.obs.meta.ResultMeta` envelope (kernel, execution
    plan, workload, obs summary when enabled).

    With ``execution.precision`` set, the fixed ``traffic.seeds``
    budget is replaced by the adaptive sequential-stopping engine and
    the estimate carries its
    :class:`~repro.analysis.montecarlo.AdaptiveInfo` provenance.

    ``fabric`` (a registry name or :class:`FabricConfig`) swaps the
    Clos for another registered fabric model -- see
    :mod:`repro.engine.fabrics`.
    """
    traffic = _as_workload(traffic)
    fabric_name = _as_fabric(fabric)
    if execution.precision is not None:
        return _adaptive(
            n, r, k, [m], construction, model, x, traffic, execution,
            search, default_steps=2000, fabric=fabric_name,
        )[0]
    with search.applied():
        return _blocking_probability_impl(
            n, r, m, k,
            construction=construction,
            model=model,
            x=x,
            steps=traffic.resolved_steps(2000),
            seeds=traffic.seeds,
            max_fanout=traffic.max_fanout,
            jobs=execution.jobs,
            cache=execution.cache(),
            executor=execution.executor,
            debug_checks=search.debug_checks,
            workload=traffic,
            fabric=fabric_name,
        )


def sweep(
    n: int,
    r: int,
    k: int,
    m_values: list[int],
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    traffic: WorkloadConfig = UniformConfig(),
    execution: ExecConfig = ExecConfig(),
    search: SearchConfig = SearchConfig(),
    fabric: "str | FabricConfig" = "clos",
) -> list[BlockingEstimate]:
    """The blocking-probability-vs-``m`` curve (implied figure X3).

    ``traffic`` accepts any :mod:`repro.workloads` config (see
    :func:`blocking`); each seed's stream is compiled once and replayed
    against every ``m`` in lockstep.  With ``traffic.adversarial``, the
    adversary-seed schedule is derived from the whole configuration
    (topology, construction, model, x), so two sweeps sharing an ``m``
    value never reuse identical adversary streams.  Adversarial probing
    is only meaningful for uniform traffic and is rejected otherwise.

    With ``execution.precision`` set, every curve point samples until
    its Wilson interval meets the precision target instead of running
    the fixed ``traffic.seeds`` budget (see
    :class:`ExecConfig.precision`).

    ``fabric`` (a registry name or :class:`FabricConfig`) swaps the
    Clos for another registered fabric model; adversarial probing is
    Clos-only and rejected for any other fabric.
    """
    traffic = _as_workload(traffic)
    fabric_name = _as_fabric(fabric)
    if execution.precision is not None:
        return _adaptive(
            n, r, k, list(m_values), construction, model, x, traffic,
            execution, search, default_steps=1500, fabric=fabric_name,
        )
    with search.applied():
        return _blocking_vs_m_impl(
            n, r, k, m_values,
            construction=construction,
            model=model,
            x=x,
            steps=traffic.resolved_steps(1500),
            seeds=traffic.seeds,
            max_fanout=traffic.max_fanout,
            adversarial=traffic.adversarial,
            adversary_seeds=traffic.adversary_seeds,
            jobs=execution.jobs,
            cache=execution.cache(),
            executor=execution.executor,
            debug_checks=search.debug_checks,
            workload=traffic,
            fabric=fabric_name,
        )


def exact_m(
    n: int,
    r: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    m_max: int | None = None,
    state_budget: int = 100_000,
    unicast_only: bool = False,
    execution: ExecConfig = ExecConfig(),
    search: SearchConfig = SearchConfig(),
) -> ExactMinimal:
    """The exact minimal nonblocking ``m`` by exhaustive model checking."""
    with search.applied():
        return _exact_minimal_m_impl(
            n, r, k,
            construction=construction,
            model=model,
            x=x,
            m_max=m_max,
            state_budget=state_budget,
            unicast_only=unicast_only,
            canonicalize=search.canonicalize,
            jobs=execution.jobs,
            cache=execution.cache(),
        )
