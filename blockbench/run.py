#!/usr/bin/env python3
"""Front-door blocking benchmark of the WDM multicast simulator.

Run from the root of a checkout::

    python3 blockbench/run.py --workload point_uniform_dense --seed 1 \\
        --seconds 30 --trace 0

Each workload is a run of independent ``repro.api.blocking`` /
``repro.api.sweep`` calls whose inputs come from ``--seed`` (see
``cases.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count result cells, and ``failed / attempted`` is the run's
error rate.  A run with any failed cell exits with code 1.

``--trace 0`` times the calls for ``--seconds`` with tracing and
``repro.obs`` off, and reports the end-to-end metrics:

* ``setup_s`` -- median over fresh processes of the wall time from
  process spawn until the program is ready: imports, parsing of the
  first call's input files and a small first call.  Writing the input
  files is the benchmark's own work and is excluded.
* ``attempts_per_s`` -- setup requests judged per second of call wall
  time, summed over the timed calls.
* ``call_p50_s`` / ``call_tail_s`` -- median wall time of one call, and
  the wall time at the highest percentile that still has at least 10
  calls beyond it (the maximum when fewer than 22 calls ran); the
  percentile and the call count are printed above the result.
* ``time_to_ci_s`` / ``events_to_ci`` -- the time and the attempts
  needed to reach a 95% Wilson half-width of 0.01 on every cell.  The
  adaptive workload measures it: the median wall time and the attempts
  of a cold precision-targeted sweep.  The fixed-budget workloads
  project it: from the blocking probability pooled over their first
  calls, the attempts a fixed budget needs, where every column of a
  call gets the same attempts, divided by ``attempts_per_s``.
* ``peak_rss_mb`` -- ``ru_maxrss`` of this process.

``--trace 1`` runs a fixed list of calls three times -- untraced, with
spans (``spans.py``) and inside ``repro.obs.capture()`` -- prints a
per-layer table, writes the spans as JSONL under ``.bench_build/`` and
reports the per-layer metrics, whose counts repeat exactly for a seed.

Every run checks the result cells: structural checks on every cell,
the committed cells of ``expected.json`` for seed 0, a re-simulation of
cells picked from the seed, and, on the adaptive workload, that the
warm resume returns the cold result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from statistics import NormalDist
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "blockbench")
EXPECTED = os.path.join(HERE, "expected.json")

#: the precision target behind time_to_ci_s / events_to_ci
CI_HALF_WIDTH = 0.01
CI_LEVEL = 0.95
#: calls of each run whose cells are re-simulated, and cells per call
REFERENCE_CALLS = 2
REFERENCE_CELLS = 2
#: a tail percentile needs at least this many calls beyond it
TAIL_BEYOND = 10
#: calls of seed 0 whose cells expected.json holds
EXPECTED_CALLS = {"point_uniform_dense": 3, "curve_trace_maw": 2, "adaptive_hotspot": 1}

#: the block causes of ``repro.engine.kernel.ALL_BLOCK_KINDS``, fixed here
#: because BENCHMARK.json names one metric per cause; a cause outside
#: this list is reported as a warning
BLOCK_KINDS = (
    "saturated_wavelength",
    "converter_exhaustion",
    "full_middles",
    "no_cover",
    "awg_no_path",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "attempts_per_s": "attempts/s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "time_to_ci_s": "s",
    "events_to_ci": "attempts",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "api.self_s": "s",
    "perf.sweeper.units": "count",
    "perf.sweeper.self_s": "s",
    "workloads.events": "count",
    "workloads.busy_s": "s",
    "workloads.events_per_s": "events/s",
    "workloads.share": "share",
    "perf.batch.compile.calls": "count",
    "perf.batch.compile.self_s": "s",
    "perf.batch.lower.self_s": "s",
    "perf.batch.replay.self_s": "s",
    "perf.batch.replay.attempts_per_s": "attempts/s",
    "engine.state.build_s": "s",
    "multistage.network.build_s": "s",
    "multistage.network.connect.calls": "count",
    "multistage.network.connect.self_s": "s",
    "multistage.network.disconnect.self_s": "s",
    "multistage.network.attempts_per_s": "attempts/s",
    "admission.attempts": "count",
    "admission.blocked": "count",
    "admission.admit_ratio": "share",
    "admission.share": "share",
    **{f"obs.block_cause.{kind}": "count" for kind in BLOCK_KINDS},
    "perf.cache.lookups": "count",
    "perf.cache.hits": "count",
    "perf.cache.puts": "count",
    "perf.cache.bytes_written": "bytes",
    "perf.cache.busy_s": "s",
    "perf.cache.resume_s": "s",
    "perf.adaptive.rounds": "count",
    "perf.adaptive.replications": "count",
    "perf.adaptive.unconverged_cells": "count",
    "obs.on_overhead_share": "share",
    "trace.coverage": "share",
    "trace.overhead_share": "share",
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"blockbench: no program under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"blockbench: imported repro from {repro.__file__}, not {SRC}")


# -- statistics ---------------------------------------------------------------


def tail(walls: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with 10 calls beyond.

    With too few calls for that percentile to lie above the median, the
    slowest call stands in (percentile 100).
    """
    ordered = sorted(walls)
    if len(ordered) < 2 * (TAIL_BEYOND + 1):
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def wilson_half_width(p: float, n: int, z: float) -> float:
    denom = 1.0 + z * z / n
    return (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))


def attempts_for_ci(p: float) -> int:
    """Fewest attempts whose Wilson half-width at ``p`` meets the target."""
    z = NormalDist().inv_cdf((1.0 + CI_LEVEL) / 2.0)
    high = 1
    while wilson_half_width(p, high, z) > CI_HALF_WIDTH:
        high *= 2
    low = high // 2
    while high - low > 1:
        mid = (low + high) // 2
        if wilson_half_width(p, mid, z) > CI_HALF_WIDTH:
            low = mid
        else:
            high = mid
    return high


# -- running calls -------------------------------------------------------------


@dataclasses.dataclass
class CallRecord:
    """One front-door call: its inputs, wall time and cells (None if it raised)."""

    inputs: Any
    wall: float
    cells: list | None
    error: str | None = None
    #: cells whose adaptive sampling hit the round cap
    unconverged: int = 0
    #: (wall, cells) of the warm resume, on the adaptive workload
    resume: tuple | None = None


def timed_call(case, inputs, cells_of) -> CallRecord:
    case.preload(inputs)
    start = time.perf_counter()
    try:
        estimates = case.call(inputs)
    except Exception:  # a failing call is a failed cell, not a crash
        return CallRecord(inputs, time.perf_counter() - start, None,
                          traceback.format_exc())
    wall = time.perf_counter() - start
    unconverged = sum(
        e.adaptive is not None and not e.adaptive.converged for e in estimates
    )
    record = CallRecord(inputs, wall, cells_of(estimates), None, unconverged)
    if case.resumes:
        start = time.perf_counter()
        try:
            again = case.call(inputs)
        except Exception:
            record.error = traceback.format_exc()
            return record
        record.resume = (time.perf_counter() - start, cells_of(again))
    return record


def probe_setup(args) -> int:
    """Child mode: get ready for the first call, then say so on stdout."""
    import cases

    case = cases.CASES[args.workload](args.seed, args.scale, args.probe)
    inputs = case.inputs(0)
    case.preload(inputs)
    case.warmup(inputs)
    print("ready", flush=True)
    return 0


def measure_setup(args, work_dir: str, count: int) -> list[float]:
    """Spawn-to-ready wall times of ``count`` fresh processes."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--probe", work_dir,
    ]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline().strip()
            ready = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(ready)
    return times


def warm_up(case) -> None:
    """First-call lazy init in this process, on inputs no timed call uses."""
    first = case.inputs(0)
    case.record(first)
    case.preload(first)
    case.warmup(first)
    if not case.resumes:
        spare = case.inputs(WARMUP_INDEX)
        case.record(spare)
        case.preload(spare)
        case.call(spare)


#: the call index of the full-size warm-up call; its seed block lies far
#: beyond any timed call's
WARMUP_INDEX = (1 << 19) - 1


# -- checking ------------------------------------------------------------------


def check(case, calls: list[CallRecord], expected, seed: int) -> tuple[int, int, list[str]]:
    """``(cells, failed cells, messages)`` of the output check."""
    failed: set[tuple[int, int]] = set()
    notes: list[str] = []
    per_call = case.cells_per_call
    for number, record in enumerate(calls):
        if record.cells is None or len(record.cells) != per_call:
            failed.update((number, i) for i in range(per_call))
            notes.append(f"call {number} raised or returned the wrong cells:\n"
                         f"{record.error or record.cells}")
            continue
        for i, ok in enumerate(case.check_call(record.inputs, record.cells)):
            if not ok:
                failed.add((number, i))
                notes.append(f"call {number} cell {record.cells[i]} fails the structural check")
        if record.error is not None:
            failed.update((number, i) for i in range(per_call))
            notes.append(f"call {number}: warm resume raised:\n{record.error}")
        elif record.resume is not None and record.resume[1] != record.cells:
            failed.update((number, i) for i in range(per_call))
            notes.append(f"call {number}: warm resume {record.resume[1]} != cold {record.cells}")
    if expected is not None:
        for number, want in enumerate(expected[: len(calls)]):
            got = calls[number].cells or []
            for i, cell in enumerate(want):
                if i >= len(got) or list(got[i]) != list(cell):
                    failed.add((number, i))
                    notes.append(f"call {number} cell {i}: expected {cell}, got "
                                 f"{got[i] if i < len(got) else None}")
    rng = random.Random(f"{case.name}:{seed}")
    usable = [n for n, record in enumerate(calls) if record.cells]
    for number in rng.sample(usable, min(REFERENCE_CALLS, len(usable))):
        record = calls[number]
        picks = rng.sample(range(per_call), min(REFERENCE_CELLS, per_call))
        for i in sorted(picks):
            want = case.reference(record.inputs, record.cells[i])
            if tuple(want) != tuple(record.cells[i]):
                failed.add((number, i))
                notes.append(f"call {number} cell {record.cells[i]} != "
                             f"re-simulated {want}")
    return len(calls) * per_call, len(failed), notes


def load_expected(path: str, scale: str, name: str, seed: int):
    if seed != 0:
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(scale, {}).get(name)


# -- the two modes ---------------------------------------------------------------


def run_timed(args, case, work_dir: str, cells_of) -> tuple[dict, list[CallRecord]]:
    case.record(case.inputs(0))  # probes parse the first call's input
    probes = measure_setup(args, work_dir, 2 if args.scale == "tiny" else 5)
    warm_up(case)
    calls: list[CallRecord] = []
    spent = 0.0
    while len(calls) < case.prefix_calls or spent < args.seconds:
        inputs = case.inputs(len(calls))
        case.record(inputs)
        record = timed_call(case, inputs, cells_of)
        calls.append(record)
        spent += record.wall
        if record.cells is None:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    good = [record for record in calls if record.cells is not None]
    walls = [record.wall for record in good or calls]
    attempts = sum(cell[1] for record in good for cell in record.cells)
    attempts_per_s = attempts / sum(walls)
    tail_value, tail_pct = tail(walls)
    prefix = good[: case.prefix_calls]
    if case.resumes:
        events_to_ci = sum(cell[1] for cell in prefix[0].cells) if prefix else 0
        time_to_ci_s = statistics.median(walls)
    else:
        columns = case.cells_per_call
        needed = 0
        for column in range(columns):
            tried = sum(record.cells[column][1] for record in prefix)
            blocked = sum(record.cells[column][2] for record in prefix)
            needed = max(needed, attempts_for_ci(blocked / tried if tried else 0.0))
        events_to_ci = needed * columns
        time_to_ci_s = events_to_ci / attempts_per_s
    metrics = {
        "setup_s": statistics.median(probes),
        "attempts_per_s": attempts_per_s,
        "call_p50_s": statistics.median(walls),
        "call_tail_s": tail_value,
        "time_to_ci_s": time_to_ci_s,
        "events_to_ci": events_to_ci,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"setup probes: {len(probes)}, s: {' '.join(f'{t:.4f}' for t in probes)}")
    print(f"calls: {len(calls)}, timed wall {spent:.3f} s, attempts {attempts}")
    print(f"call_tail_s is the p{tail_pct:.1f} of {len(walls)} calls")
    if case.resumes:
        resumes = [r.resume[0] for r in good if r.resume is not None]
        if resumes:
            print(f"warm resume: median {statistics.median(resumes):.6f} s "
                  f"over {len(resumes)} resumes")
    return metrics, calls


def run_traced(args, case, work_dir: str, cells_of) -> tuple[dict, list[CallRecord]]:
    from repro import obs
    from repro.perf.cache import ResultCache

    from spans import WORKLOAD_NEXT, SpanRecorder

    warm_up(case)
    inputs = [case.inputs(i) for i in range(case.traced_calls)]
    for item in inputs:
        case.record(item)

    def one_pass(tag: str) -> list[CallRecord]:
        records = []
        for item in inputs:
            if item.cache_dir:
                item = dataclasses.replace(item, cache_dir=f"{item.cache_dir}-{tag}")
            records.append(timed_call(case, item, cells_of))
        return records

    plain = one_pass("plain")
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = one_pass("traced")
    finally:
        recorder.uninstall()
    with obs.capture() as captured:
        observed = one_pass("obs")
    counters = captured.metrics.snapshot()["counters"]

    notes = []
    for tag, records in (("traced", traced), ("obs", observed)):
        if [r.cells for r in records] != [r.cells for r in plain]:
            notes.append(f"the {tag} pass changed the result cells")
    plain_wall = sum(r.wall for r in plain)
    good = [r for r in plain if r.cells is not None]
    attempts = sum(cell[1] for r in good for cell in r.cells)
    blocked = sum(cell[2] for r in good for cell in r.cells)

    rec = recorder
    root_wall = rec.total_s("api.blocking") + rec.total_s("api.sweep")
    root_self = rec.self_s("api.blocking") + rec.self_s("api.sweep")

    def share(seconds: float) -> float:
        return seconds / root_wall if root_wall else 0.0

    events = rec.counts["workloads.events"]
    busy = rec.total_s(WORKLOAD_NEXT)
    connect_s = rec.self_s("multistage.network.connect")
    connects = rec.calls("multistage.network.connect")
    network_s = (rec.self_s("multistage.network.build") + connect_s
                 + rec.self_s("multistage.network.disconnect"))
    replay_s = rec.self_s("perf.batch.replay")
    replay_attempts = rec.counts["perf.batch.replay.attempts"]
    first = good[0] if good else None
    adaptive_cells = first.cells if first is not None and case.resumes else []
    rounds = sum(cell[3] for cell in adaptive_cells)
    per_round = case.precision.replications_per_round() if case.resumes else 0
    resumes = [r.resume[0] for r in plain if r.resume is not None]
    cache_bytes = sum(
        ResultCache(r.inputs.cache_dir).total_bytes()
        for r in traced if r.inputs.cache_dir
    )
    unknown = sorted(
        name for name in counters
        if name.startswith("net.block.cause.")
        and name[len("net.block.cause."):] not in BLOCK_KINDS
    )
    if unknown:
        print(f"warning: block causes outside the metric list: {unknown}",
              file=sys.stderr)
    metrics = {
        "api.self_s": root_self + rec.self_s("api.cell"),
        "perf.sweeper.units": rec.counts["perf.sweeper.units"],
        "perf.sweeper.self_s": rec.self_s("perf.sweeper.run")
        + rec.self_s("perf.sweeper.run_adaptive"),
        "workloads.events": events,
        "workloads.busy_s": busy,
        "workloads.events_per_s": events / busy if busy else 0.0,
        "workloads.share": share(busy),
        "perf.batch.compile.calls": rec.calls("perf.batch.compile"),
        "perf.batch.compile.self_s": rec.self_s("perf.batch.compile"),
        "perf.batch.lower.self_s": rec.self_s("perf.batch.lower"),
        "perf.batch.replay.self_s": replay_s,
        "perf.batch.replay.attempts_per_s": replay_attempts / replay_s if replay_s else 0.0,
        "engine.state.build_s": rec.total_s("engine.state.build"),
        "multistage.network.build_s": rec.total_s("multistage.network.build"),
        "multistage.network.connect.calls": connects,
        "multistage.network.connect.self_s": connect_s,
        "multistage.network.disconnect.self_s": rec.self_s("multistage.network.disconnect"),
        "multistage.network.attempts_per_s": connects / connect_s if connect_s else 0.0,
        "admission.attempts": attempts,
        "admission.blocked": blocked,
        "admission.admit_ratio": (attempts - blocked) / attempts if attempts else 0.0,
        "admission.share": share(network_s + replay_s),
        **{
            f"obs.block_cause.{kind}": counters.get(f"net.block.cause.{kind}", 0)
            for kind in BLOCK_KINDS
        },
        "perf.cache.lookups": rec.calls("perf.cache.lookup"),
        "perf.cache.hits": rec.counts["perf.cache.hits"],
        "perf.cache.puts": rec.calls("perf.cache.put"),
        "perf.cache.bytes_written": cache_bytes,
        "perf.cache.busy_s": rec.total_s("perf.cache.lookup") + rec.total_s("perf.cache.put"),
        "perf.cache.resume_s": statistics.median(resumes) if resumes else 0.0,
        # rounds and replications summed over the cells of one sweep
        "perf.adaptive.rounds": rounds,
        "perf.adaptive.replications": rounds * per_round,
        "perf.adaptive.unconverged_cells": first.unconverged if first else 0,
        "obs.on_overhead_share": sum(r.wall for r in observed) / plain_wall - 1.0,
        "trace.coverage": 1.0 - root_self / root_wall if root_wall else 0.0,
        "trace.overhead_share": sum(r.wall for r in traced) / plain_wall - 1.0,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{case.name}-seed{args.seed}.jsonl")
    rec.write_jsonl(spans_path)
    print_layer_table(rec, root_wall, metrics["trace.coverage"])
    print(f"spans: {len(rec.spans)} kept, written to {os.path.relpath(spans_path, ROOT)}")
    if rec.missing:
        print(f"entry points not found (zero calls): {', '.join(rec.missing)}")
    for note in notes:
        print(f"CHECK: {note}", file=sys.stderr)
    if notes:
        for record in plain:
            record.cells = None
    return metrics, plain


def print_layer_table(rec, root_wall: float, coverage: float) -> None:
    """Self seconds, events per self second and share of wall, per layer."""
    from spans import WORKLOAD_NEXT

    rows = [
        ("repro.api + montecarlo glue", ("api.blocking", "api.sweep", "api.cell"), 0),
        ("repro.perf.adaptive", ("perf.adaptive.sweep",), 0),
        ("repro.perf.sweeper", ("perf.sweeper.run", "perf.sweeper.run_adaptive"), 0),
        ("repro.workloads", (WORKLOAD_NEXT,), rec.counts["workloads.events"]),
        ("repro.perf.batch compile", ("perf.batch.compile",), 0),
        ("repro.perf.batch lower", ("perf.batch.lower",), 0),
        ("repro.perf.batch replay", ("perf.batch.replay",),
         rec.counts["perf.batch.replay.attempts"]),
        ("repro.engine state", ("engine.state.build",), 0),
        ("repro.multistage network",
         ("multistage.network.build", "multistage.network.connect",
          "multistage.network.disconnect"),
         rec.calls("multistage.network.connect")),
        ("repro.perf.cache", ("perf.cache.lookup", "perf.cache.put"), 0),
    ]
    print(f"{'layer':30} {'calls':>9} {'self s':>10} {'events/s':>12} {'share':>7}")
    for label, names, events in rows:
        calls = sum(rec.calls(name) for name in names)
        seconds = sum(rec.self_s(name) for name in names)
        rate = f"{events / seconds:12.1f}" if events and seconds else f"{'-':>12}"
        fraction = seconds / root_wall if root_wall else 0.0
        print(f"{label:30} {calls:9d} {seconds:10.4f} {rate} {fraction:7.1%}")
    print(f"front-door wall {root_wall:.4f} s, trace.coverage {coverage:.4f}")


# -- entry point -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("point_uniform_dense", "curve_trace_maw", "adaptive_hotspot"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-test")
    parser.add_argument("--expected", default=EXPECTED,
                        help="committed cells of seed 0 (default: expected.json)")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite this workload's entry of --expected from seed 0")
    parser.add_argument("--probe", metavar="WORK_DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def record_expected(args, case, cells_of) -> int:
    if args.seed != 0:
        sys.exit("blockbench: expected cells are recorded from seed 0")
    rows = []
    for index in range(EXPECTED_CALLS[case.name]):
        inputs = case.inputs(index)
        case.record(inputs)
        case.preload(inputs)
        rows.append([list(cell) for cell in cells_of(case.call(inputs))])
    try:
        with open(args.expected, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        data = {}
    data.setdefault(args.scale, {})[case.name] = rows
    # One call a line, so a changed count shows as a one-line diff.
    blocks = []
    for scale in sorted(data):
        names = []
        for name in sorted(data[scale]):
            calls = ",\n".join(f"   {json.dumps(row)}" for row in data[scale][name])
            names.append(f'  "{name}": [\n{calls}\n  ]')
        blocks.append(f'"{scale}": {{\n' + ",\n".join(names) + "\n }")
    with open(args.expected, "w", encoding="utf-8") as handle:
        handle.write("{\n " + ",\n ".join(blocks) + "\n}\n")
    print(f"recorded {len(rows)} calls of {case.name} ({args.scale})")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import cases

    if args.probe:
        return probe_setup(args)
    work_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        case = cases.CASES[args.workload](args.seed, args.scale, work_dir)
        if args.record_expected:
            return record_expected(args, case, cases.cells_of)
        expected = load_expected(args.expected, args.scale, case.name, args.seed)
        runner = run_traced if args.trace else run_timed
        metrics, calls = runner(args, case, work_dir, cases.cells_of)
        cells, failed, notes = check(case, calls, expected, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for note in notes:
        print(f"CHECK: {note}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"error_rate = {failed / cells if cells else 1.0:.6f} failed/cells "
          f"({failed} of {cells} cells)")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    result = {
        "correct": failed == 0 and cells > 0,
        "attempted": max(cells, 1),
        "failed": failed if cells else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
