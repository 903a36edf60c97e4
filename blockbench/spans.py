"""Spans around the calls into each layer, recorded from outside ``src/``.

:class:`SpanRecorder` installs wrappers at the names the callers
resolve -- a module global for functions, a class attribute for
methods, the ``events`` method of every registered workload config --
and removes them again on :meth:`SpanRecorder.uninstall`.  An entry
point that no longer exists is skipped and listed in
:attr:`SpanRecorder.missing`: its layer then reports zero calls, and
the time it spent lands in its caller, which lowers the coverage.

Each span keeps ``(id, name, start_ns, end_ns, parent, call id)`` in
memory.  A span's self time is its duration minus the durations of its
direct children.  Per-event spans (one workload draw, one admission
attempt, one release, one cache access) are too many to keep one by
one, so they are folded into a ``[count, ns]`` aggregate on their
parent span; they still take part in the self-time arithmetic.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter_ns

#: (span name, "module" or "module:Class", attribute, kind) where kind is
#: "root" (a front-door call), "span" or "hot" (folded per parent).
ENTRY_POINTS = (
    ("api.blocking", "repro.api", "blocking", "root"),
    ("api.sweep", "repro.api", "sweep", "root"),
    ("api.cell", "repro.analysis.montecarlo", "_traffic_cell", "span"),
    ("api.cell", "repro.perf.adaptive", "_traffic_cell", "span"),
    ("perf.adaptive.sweep", "repro.api", "adaptive_sweep", "span"),
    ("perf.sweeper.run", "repro.perf.sweeper:ParallelSweeper", "run", "span"),
    (
        "perf.sweeper.run_adaptive",
        "repro.perf.sweeper:ParallelSweeper",
        "run_adaptive",
        "span",
    ),
    ("perf.batch.compile", "repro.perf.batch", "compile_stream", "span"),
    ("perf.batch.lower", "repro.perf.batch", "lower_stream", "span"),
    ("perf.batch.replay", "repro.analysis.montecarlo", "simulate_batch", "span"),
    ("perf.batch.replay", "repro.perf.adaptive", "simulate_batch", "span"),
    ("perf.batch.replay", "repro.perf.batch", "simulate_batch", "span"),
    ("engine.state.build", "repro.perf.batch", "make_state", "span"),
    (
        "multistage.network.build",
        "repro.multistage.network:ThreeStageNetwork",
        "__init__",
        "span",
    ),
    (
        "multistage.network.connect",
        "repro.multistage.network:ThreeStageNetwork",
        "try_connect",
        "hot",
    ),
    (
        "multistage.network.disconnect",
        "repro.multistage.network:ThreeStageNetwork",
        "disconnect",
        "hot",
    ),
    ("perf.cache.lookup", "repro.perf.cache:ResultCache", "lookup", "hot"),
    ("perf.cache.put", "repro.perf.cache:ResultCache", "put", "hot"),
)

WORKLOAD_NEXT = "workloads.next"


class _Frame:
    __slots__ = ("id", "name", "start", "child_ns", "parent", "hot")

    def __init__(self, span_id: int, name: str, start: int, parent: int | None):
        self.id = span_id
        self.name = name
        self.start = start
        self.child_ns = 0
        self.parent = parent
        self.hot: dict[str, list[int]] = {}


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        #: counts read from arguments and results at the boundaries
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._call_id = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str, root: bool) -> None:
        if root and not self._stack:
            self._call_id += 1
        parent = self._stack[-1].id if self._stack else None
        self._next_id += 1
        self._stack.append(_Frame(self._next_id, name, _clock(), parent))

    def _exit(self, hot: bool) -> None:
        end = _clock()
        frame = self._stack.pop()
        duration = end - frame.start
        self_ns = duration - frame.child_ns
        total = self.totals[frame.name]
        total[0] += 1
        total[1] += duration
        total[2] += self_ns
        if self._stack:
            parent = self._stack[-1]
            parent.child_ns += duration
            if hot:
                agg = parent.hot.get(frame.name)
                if agg is None:
                    parent.hot[frame.name] = [1, duration]
                else:
                    agg[0] += 1
                    agg[1] += duration
                return
        self.spans.append(
            (frame.id, frame.name, frame.start, end, frame.parent,
             self._call_id, self_ns, frame.hot)
        )

    def _wrap(
        self,
        name: str,
        fn: Callable,
        kind: str,
        after: Callable[[tuple, Any], None] | None,
    ) -> Callable:
        enter, exit_ = self._enter, self._exit
        root, hot = kind == "root", kind == "hot"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(hot)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point that exists; list the ones that do not."""
        hooks = self._after_hooks()
        for name, target, attr, kind in ENTRY_POINTS:
            module_name, _, class_name = target.partition(":")
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{target}.{attr}")
                continue
            self._patch(owner, attr, self._wrap(name, original, kind, hooks.get(name)))
        self._install_workloads()

    def _install_workloads(self) -> None:
        from repro.workloads import workload_class, workload_names

        recorder = self
        for tag in workload_names():
            cls = workload_class(tag)
            original = vars(cls).get("events")
            if original is None:
                self.missing.append(f"{cls.__qualname__}.events")
                continue

            def events(config, *args, _original=original, **kwargs):
                return _TimedEvents(_original(config, *args, **kwargs), recorder)

            self._patch(cls, "events", functools.wraps(original)(events))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _after_hooks(self) -> dict[str, Callable[[tuple, Any], None]]:
        counts = self.counts

        def sweeper_units(args: tuple, _result: Any) -> None:
            plan = getattr(args[0], "last_plan", None)
            if plan is not None:
                counts["perf.sweeper.units"] += plan.units

        def replay_attempts(_args: tuple, result: Any) -> None:
            counts["perf.batch.replay.attempts"] += sum(
                value[0] for _, value in result
            )

        def cache_hit(_args: tuple, result: Any) -> None:
            counts["perf.cache.hits"] += bool(result[0])

        return {
            "perf.sweeper.run": sweeper_units,
            "perf.batch.replay": replay_attempts,
            "perf.cache.lookup": cache_hit,
        }

    # -- reporting ----------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """All kept spans, one JSON object a line, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, call_id, self_ns, hot in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "call_id": call_id,
                            "self_ns": self_ns,
                            "folded": hot,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] / 1e9 if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] / 1e9 if name in self.totals else 0.0


class _TimedEvents:
    """An events iterator whose every ``next()`` is a folded span."""

    __slots__ = ("_events", "_recorder")

    def __init__(self, events: Any, recorder: SpanRecorder):
        self._events = iter(events)
        self._recorder = recorder

    def __iter__(self) -> "_TimedEvents":
        return self

    def __next__(self) -> Any:
        recorder = self._recorder
        recorder._enter(WORKLOAD_NEXT, False)
        try:
            event = next(self._events)
        finally:
            recorder._exit(True)
        recorder.counts["workloads.events"] += 1
        return event
