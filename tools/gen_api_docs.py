#!/usr/bin/env python3
"""Regenerate docs/API.md from the package's public surface.

Walks every subpackage's ``__all__``, pulls the first docstring line of
each exported item, and writes a compact API reference.  Run after
changing public APIs::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

PACKAGES = [
    "repro",
    "repro.combinatorics",
    "repro.core",
    "repro.engine",
    "repro.switching",
    "repro.fabric",
    "repro.multistage",
    "repro.analysis",
    "repro.scheduling",
    "repro.perf",
    "repro.perf.adaptive",
    "repro.workloads",
    "repro.api",
    "repro.obs",
]

#: hand-written notes appended after a package's export table (markdown)
NOTES = {
    "repro.engine": """\
### One admission kernel, many consumers

`repro.engine` is the bottom layer of the simulator stack (see
`docs/ARCHITECTURE.md`): the serial `ThreeStageNetwork`, the lockstep
batch engine, the exhaustive model checker and the adversary all route
their wavelength-availability, converter-budget and Lemma-4 cover
decisions through these kernels, so MSW/MSDW/MAW semantics and the
blocking-cause taxonomy are stated exactly once. The mask-level
functions (`free_middles`, `reach_map`, `probe_cover`, `classify_kind`,
`block_cause`) are what the hot paths call with their own caches; the
state-level functions (`avail`, `coverable`, `admit`, `release`,
`classify_block`) pair an `AdmissionRequest` with a `FabricState`.

### The backend seam

Two built-in backends replay a batch: `python`, whose `PythonState`
implements the per-event `FabricState` protocol on unbounded-int
bitplanes, and the fused `numba` backend (`repro.engine.fused`), whose
`FusedState` is a whole-stream `StreamState`: it lowers the compiled
stream to flat int64 arrays and replays it in one `@njit` kernel.
That kernel is word-looped: masks pack into
`W = ceil(bits / WORD_BITS)` signed int64 words per the fabric's
`PlaneLayout` (`repro.engine.planes`), so both backends accept fabrics
of any width, and at `W == 1` the planes keep the single-word layout
byte for byte. `resolve_backend` picks one (`auto`
prefers `numba` when importable, else `python`;
`WDM_REPRO_BATCH_BACKEND` overrides) and `make_state` instantiates it.
`register_backend(name, factory, missing=..., max_plane_width=...)`
plugs in further backends -- registered names become valid `backend=`
arguments everywhere without touching any consumer, and
`backend_status` / `wdm-repro kernels` report live availability plus
each backend's plane-width capability.
`WDM_REPRO_FUSED_PY=1` forces the fused kernel's interpreted mode (the
identity-test vehicle on machines without numba). The package ships
`py.typed` and is kept fully typed (`mypy src/repro/engine` in CI).
""",
    "repro.multistage": """\
### Debug checks

`ThreeStageNetwork(..., debug_checks=True)` -- or setting the
`WDM_REPRO_DEBUG_CHECKS` environment variable to `1`/`true`/`yes`/`on`
-- re-runs `check_invariants()` after every `connect`/`disconnect`, so
any incremental-cache leak surfaces at the exact event that caused it.
Off by default: the scan is O(state) per event, far too slow for the
Monte-Carlo hot paths. Explicit `check_invariants()` calls always run
regardless of the flag; the fuzz tests enable it, the hot paths leave
it off.

### Canonicalized exhaustive search

`is_blockable` and `repro.api.exact_m` default to canonicalized
search (`canonicalize=True` / `SearchConfig(canonicalize=True)`): the
DFS transposition table keys on
`ThreeStageNetwork.canonical_signature()` (invariant under
middle-switch permutation, plus global wavelength relabeling for the
MSW model) and a monotone victim probe replaces the exhaustive
per-request scan. Verdicts are identical to `canonicalize=False` (the
reference search, kept for the property tests); `states_explored`
counts symmetry classes and witnesses may differ but still `replay()`.
`repro.api.exact_m` also takes `ExecConfig(jobs=...)` (parallel
m-candidates) and `ExecConfig(cache_dir=...)` (a
`repro.perf.ResultCache`).
""",
    "repro.perf": """\
### Executor selection

`ParallelSweeper(jobs, executor=...)` accepts `jobs=1` (inline, the
default), an explicit worker count, or `"auto"`/`None`/`<= 0` for the
effective CPU count; `executor` is `"process"` (default) or
`"thread"`. Whatever was requested, the engine falls back to inline
serial execution whenever a pool cannot win -- a single effective CPU,
a single pending unit, or an explicit `jobs` exceeding the unit count
-- and records what actually ran (executor, resolved worker count,
dispatched units, cache hits, fallback reason) in the `ExecutionPlan`
available as `sweeper.last_plan` / `last_plan()`. Pools persist across
one sweeper's `run` calls; `close()` or the context-manager form shuts
them down.

### Result caching

`ResultCache(directory)` content-addresses each sweep cell by a
SHA-256 digest of (namespace, `CODE_VERSION`, routing-kernel id,
canonical-JSON parameters). `repro.api.blocking`, `sweep` and
`exact_m` open one with `ExecConfig(cache_dir=...)`; every cell is
looked up before it is computed and stored after, so interrupted or
repeated sweeps recompute only missing cells. Writes
are atomic (temp file + `os.replace`); entries that fail to unpickle
are deleted and recomputed. The CLI flags are `--cache` / `--no-cache`
and `--cache-dir DIR` on `blocking` and `exact`.

`ResultCache(directory, max_bytes=N)` bounds on-disk growth: every
`put` prunes least-recently-used entries (hits refresh recency) until
the cache fits the budget, never evicting the entry just written. A
pruned entry is a plain miss on the next lookup -- the cell is
recomputed and re-stored -- so a bounded cache trades disk for
recompute without ever changing results.

### Lockstep batch Monte Carlo

`repro.perf.batch` is the one Monte-Carlo route behind
`repro.api.blocking` and `sweep`. A blocking-vs-m sweep replays the
*same* traffic per `(m,
seed)` cell, so `compile_stream` compiles each seed's stream once
(traffic is m-independent -- common random numbers) and the engine
replays it through B structure-of-arrays fabric states in lockstep.
`simulate_batch` is the picklable sweeper work unit; `replay_cell`
exposes one replication with `explain_block`-identical causes. The
replay itself is one backend-parameterized event loop over the shared
admission kernels of `repro.engine`; the fabric-state backends (the
pure-Python int-bitplane backend and the fused `numba` backend -- the
`auto` choice when numba is importable -- whose int64 planes carry a
`[..., W]` word axis on fabrics wider than `WORD_BITS` bits) live in
`repro.engine.state` /
`repro.engine.fused` behind the `repro.engine.backends` registry and
are bit-identical to the serial simulator per replication, blocking
causes included. For the fused backend, `lower_stream` flattens the
compiled stream to int64 arrays and `FusedState.replay_ops` runs the
entire event loop in one `@njit` kernel. The front door always runs
on the `auto` backend; override it with the `WDM_REPRO_BATCH_BACKEND`
environment variable. `wdm-repro kernels` prints backend availability.
`repro.analysis.montecarlo._traffic_cell` stays as the serial oracle:
`SearchConfig(debug_checks=True)` replays every freshly computed Clos
cell through it and raises on any disagreement.
""",
    "repro.perf.adaptive": """\
### Sequential stopping instead of fixed budgets

`adaptive_sweep` / `adaptive_blocking` replace fixed replication
counts with a precision target: each `(m, traffic)` cell runs rounds
of replications until the Wilson score interval on its
`BlockingEstimate` is narrower than `PrecisionConfig.half_width`
(absolute, or relative to the point estimate with
`relative=True`; `zero_half_width` keeps the relative mode's stopping
rule meaningful at p = 0, where a relative target can never be met).
Cheap cells (deep in the nonblocking regime) stop after `min_rounds`;
hard cells keep going to `max_rounds` and report
`converged=False` rather than run forever.  The estimate's
`.adaptive` field records rounds, schedule shape and convergence.

### Variance reduction, deterministically

Each round draws `pairs_per_round` antithetic seed pairs
(`AntitheticRandom` replays the mirrored uniform stream) from
stratified slices of the seed space, keyed by a `stream_key` that
covers the full traffic configuration *except* `m` -- common random
numbers across the whole curve, so neighboring cells share traffic
schedules and their difference is low-variance.  The schedule is a
pure function of (key, round); nothing depends on wall clock,
iteration order or worker count.

### Resumable by construction

With a `ResultCache`, every completed round is stored under a key
covering the cell and the schedule shape -- but *not* the precision
target -- so an interrupted sweep replays warm rounds bit-identically
(`wdm-repro sweep --resume`), and tightening the target reuses every
round already paid for.  `tools/check_resume.py` (CI) SIGKILLs a
sweep mid-run and asserts the resumed table equals an uninterrupted
run's byte for byte.
""",
    "repro.workloads": """\
### The traffic seam

A workload is a frozen config dataclass plus a pure generator: given a
fabric (`model`, `n_ports`, `k`), a `random.Random` stream and an
optional fanout cap, `events()` yields the same guaranteed-legal
`TrafficEvent` stream contract `compile_stream` consumes -- so every
registered model runs unchanged through the serial simulator, the
lockstep batch engine and the fused numba backend, bit-identically per
replication. `register_workload` adds a model to the registry; the tag
becomes a `--workload` name, a `wdm-repro workloads` row and a
`workload_from_dict` tag with no consumer changes.

### Identity and caching

`token()` is a workload's cache/stream-key identity. `uniform` returns
None -- it joins no key, so every pre-workload cache entry and adaptive
schedule keeps its address (the compatibility anchor). Every other
model returns `{"workload": tag, **shape_params}`, which joins every
traffic-cell cache key, adaptive stream key and round key -- a warm
uniform cache can never answer for skewed traffic. `TraceConfig`'s
token is content-addressed (a digest of the file), so the same
recording at two paths shares cache entries and an edited recording
never aliases the old one.

### Shipped models

`uniform` (the historical generator, bit-identical), `hotspot`
(Zipf-skewed destination popularity over a configurable hot set),
`heavytail_fanout` (truncated-Pareto multicast group sizes),
`poisson_erlang` (continuous-time Poisson arrivals with exponential
holding, offered load in Erlangs) and `trace` (JSONL/CSV replay of a
recorded stream; `wdm-repro trace-gen` writes one, `generate_trace` /
`write_trace` / `load_trace` are the library surface). Traces are one
fixed recording, so combining them with a precision target raises.
""",
    "repro.api": """\
### Typed configs over kwargs sprawl

The three verbs take frozen config dataclasses grouped by concern:
a `repro.workloads.WorkloadConfig` as `traffic=` (steps, seeds, fanout
cap, adversarial probing on the base surface, model shape on each
subclass), `ExecConfig` (jobs, executor kind, cache directory) and
`SearchConfig` (routing kernel of the exact and adversarial searches,
canonicalization, self-verification). Results carry a
`repro.obs.meta.ResultMeta` provenance envelope
(code version, kernel id, execution plan, obs summary, workload
identity) on `.meta`; the envelope and `BlockingEstimate` both
round-trip through `to_json()`/`from_json()`.

`blocking` and `sweep` accept any registered workload config --
`UniformConfig` (the default), `HotspotConfig`,
`HeavyTailFanoutConfig`, `PoissonErlangConfig`, `TraceConfig` -- and
the estimators, kernels, caches and the adaptive driver treat them
uniformly.

`blocking` and `sweep` run every seed through the lockstep batch
engine (`repro.perf.batch`): one compiled-stream replay per seed
covers every `m`, on the backend `resolve_backend("auto")` picks.

`ExecConfig(precision=PrecisionConfig(...))` switches `blocking` and
`sweep` from the fixed seed list to the adaptive sequential-stopping
driver (`repro.perf.adaptive`): replication rounds continue until the
Wilson interval meets the requested half-width.  Adversarial traffic
has no precision-targeted mode and is rejected with a `ValueError`.

`sweep` derives adversary seeds from the whole traffic configuration,
not from `m` alone, so two sweeps sharing an `m` value never replay
identical adversary streams.
""",
    "repro.obs": """\
### Zero cost when off

Every hot-path hook guards on `obs.enabled()` -- one module-level
boolean read -- and the disabled hooks return before allocating
anything (`tests/obs/test_overhead.py` asserts zero allocations;
`benchmarks/bench_perf.py` bounds the obs-off overhead at <= 2% of the
routing replay). Enable for a block with `obs.capture()`, which yields
the metrics registry and optional `Tracer`.

### Tracing blocking causes

With a tracer active, every `connect`/`disconnect` emits one JSONL
record; blocked requests carry a cause reconstructed from the
network's bitmask caches by `ThreeStageNetwork.explain_block`:
`saturated_wavelength`, `converter_exhaustion`, `full_middles` or
`no_cover`, plus the evidence masks. The `summary` record's per-cause
counts always sum to the blocked total -- the blocking-probability
numerator. The lockstep estimators emit aggregate counters only, never
per-event records, so `wdm-repro trace blocking ...` replays each seed
on the serial network instead. CLI: `wdm-repro trace fig10
--trace-out -` and `wdm-repro trace blocking ...`.

### Cross-process metrics

`ParallelSweeper` worker processes run chunks under a reset,
metrics-only registry and ship snapshots back for the parent to merge,
so counters from `jobs=N` process pools equal the serial run's.
""",
}


def first_line(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.strip().splitlines()[0] if doc.strip() else ""
    return line


def describe_package(name: str) -> list[str]:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    summary = first_line(module)
    if summary:
        lines += [summary, ""]
    lines.append("| export | kind | summary |")
    lines.append("|---|---|---|")
    for export in sorted(getattr(module, "__all__", [])):
        member = getattr(module, export)
        if inspect.isclass(member):
            kind = "class"
        elif inspect.isfunction(member):
            kind = "function"
        elif callable(member):
            kind = "callable"
        else:
            kind = type(member).__name__
        lines.append(f"| `{export}` | {kind} | {first_line(member)} |")
    lines.append("")
    if name in NOTES:
        lines += [NOTES[name].rstrip(), ""]
    return lines


def main() -> None:
    out = [
        "# API reference",
        "",
        "_Generated by `tools/gen_api_docs.py`; do not edit by hand._",
        "",
    ]
    for package in PACKAGES:
        out.extend(describe_package(package))
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
