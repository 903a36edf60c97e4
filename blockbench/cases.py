"""The benchmark's three workloads, their inputs and their reference check.

Every workload is a sequence of independent front-door calls
(``repro.api.blocking`` / ``repro.api.sweep``) with the execution choice
left at its default: no kernel, backend or batch knob, and ``jobs=1``.
Call ``i`` of a run gets inputs derived from the benchmark seed and ``i``
only, so the same seed gives the same calls, and no two calls share
inputs.

A *cell* is one ``(m, attempts, blocked, rounds)`` row of a call's
result (``rounds`` is 0 for fixed-budget calls).  The output check
compares cells with an independent re-simulation that drives
``ThreeStageNetwork.try_connect``/``disconnect`` directly over the
workload's event stream, bypassing the sweeper, the pooling, the
adaptive round loop and the result cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro import api
from repro.core.models import Construction, MulticastModel
from repro.multistage.network import ThreeStageNetwork
from repro.perf.adaptive import round_specs, stream_key
from repro.workloads import (
    HotspotConfig,
    TraceConfig,
    UniformConfig,
    generate_trace,
    load_trace,
    stream_rng,
)

Cell = tuple[int, int, int, int]

#: seed blocks of different runs never overlap for fewer than 2**20 calls
_SEED_STRIDE = 1 << 20


def cells_of(estimates: list[Any]) -> list[Cell]:
    """The ``(m, attempts, blocked, rounds)`` rows of one call's result."""
    return [
        (
            e.m,
            e.attempts,
            e.blocked,
            e.adaptive.rounds if e.adaptive is not None else 0,
        )
        for e in estimates
    ]


def reference_cell(
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    workload: Any,
    steps: int,
    seed: int,
    antithetic: bool = False,
) -> tuple[int, int]:
    """``(attempts, blocked)`` of one replication, simulated directly.

    Blocked setups are dropped and their later teardowns skipped, the
    loss-mode semantics of the Monte-Carlo estimators.
    """
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x
    )
    attempts = blocked = 0
    live: dict[int, int] = {}
    events = workload.events(
        model, n * r, k, steps=steps, rng=stream_rng(seed, antithetic),
        max_fanout=None,
    )
    for event in events:
        if event.kind == "setup":
            attempts += 1
            connection_id = net.try_connect(event.connection)
            if connection_id is None:
                blocked += 1
            else:
                live[event.connection_id] = connection_id
        elif event.connection_id in live:
            net.disconnect(live.pop(event.connection_id))
    return attempts, blocked


@dataclass
class Inputs:
    """What one call needs, made before the call is timed."""

    index: int
    seeds: tuple[int, ...] = ()
    trace_path: str = ""
    cache_dir: str = ""


class Case:
    """One workload: its inputs, its front-door call and its check."""

    name = ""
    #: calls whose pooled counts fix ``events_to_ci`` (always run)
    prefix_calls = 8
    #: calls per pass of a traced run (fixed, so its counts repeat)
    traced_calls = 12

    #: the warm resume that follows each call (adaptive only)
    resumes = False

    def __init__(self, seed: int, scale: str, work_dir: str):
        self.seed = seed
        self.tiny = scale == "tiny"
        self.work_dir = work_dir

    @property
    def cells_per_call(self) -> int:
        return len(self.m_values)

    def inputs(self, index: int) -> Inputs:
        """The inputs of call ``index``: a pure function of seed and index."""
        raise NotImplementedError

    def record(self, inputs: Inputs) -> None:
        """Write the call's input files (the benchmark's own work)."""

    def preload(self, inputs: Inputs) -> None:
        """Parse the call's input files (set-up work of the program)."""

    def call(self, inputs: Inputs) -> list[Any]:
        """The timed front-door call; returns its estimates."""
        raise NotImplementedError

    def warmup(self, inputs: Inputs) -> None:
        """A small call that pays imports and first-call lazy init."""
        raise NotImplementedError

    def reference(self, inputs: Inputs, cell: Cell) -> Cell:
        """Re-simulate one cell of a call without the front door."""
        raise NotImplementedError

    def check_call(self, inputs: Inputs, cells: list[Cell]) -> list[bool]:
        """Cheap structural check of every cell; True means it passes."""
        return [0 <= b <= a and a > 0 for _, a, b, _ in cells]


class PointUniformDense(Case):
    """``api.blocking(8, 8, 40, 8)``, uniform MSW, a fresh seed block per call."""

    name = "point_uniform_dense"
    block = 2
    traced_calls = 20

    def __init__(self, seed: int, scale: str, work_dir: str):
        super().__init__(seed, scale, work_dir)
        self.n, self.r, self.m, self.k = (3, 3, 4, 2) if self.tiny else (8, 8, 40, 8)
        self.m_values = [self.m]
        self.steps = 100 if self.tiny else 2000

    def inputs(self, index: int) -> Inputs:
        base = self.seed * _SEED_STRIDE + index * self.block
        return Inputs(index, seeds=tuple(range(base, base + self.block)))

    def _traffic(self, inputs: Inputs, steps: int) -> UniformConfig:
        return UniformConfig(steps=steps, seeds=inputs.seeds)

    def call(self, inputs: Inputs) -> list[Any]:
        return [
            api.blocking(
                self.n, self.r, self.m, self.k,
                traffic=self._traffic(inputs, self.steps),
            )
        ]

    def warmup(self, inputs: Inputs) -> None:
        api.blocking(
            self.n, self.r, self.m, self.k, traffic=self._traffic(inputs, 50)
        )

    def reference(self, inputs: Inputs, cell: Cell) -> Cell:
        attempts = blocked = 0
        for seed in inputs.seeds:
            a, b = reference_cell(
                self.n, self.r, cell[0], self.k, Construction.MSW_DOMINANT,
                MulticastModel.MSW, 1, UniformConfig(), self.steps, seed,
            )
            attempts += a
            blocked += b
        return (cell[0], attempts, blocked, 0)

    def check_call(self, inputs: Inputs, cells: list[Cell]) -> list[bool]:
        cap = self.steps * self.block
        return [
            ok and m == self.m and a <= cap
            for ok, (m, a, _, _) in zip(super().check_call(inputs, cells), cells)
        ]


class CurveTraceMaw(Case):
    """``api.sweep(3, 3, 2, m=1..16)``, MAW, one recorded trace per call."""

    name = "curve_trace_maw"
    construction = Construction.MAW_DOMINANT
    model = MulticastModel.MAW
    x = 2

    def __init__(self, seed: int, scale: str, work_dir: str):
        super().__init__(seed, scale, work_dir)
        self.n, self.r, self.k = 3, 3, 2
        self.m_values = list(range(1, 5 if self.tiny else 17))
        self.steps = 100 if self.tiny else 2000

    def inputs(self, index: int) -> Inputs:
        return Inputs(
            index,
            seeds=(self.seed * _SEED_STRIDE + index,),
            trace_path=os.path.join(self.work_dir, f"trace-{index}.jsonl"),
        )

    def record(self, inputs: Inputs) -> None:
        if os.path.exists(inputs.trace_path):
            return
        generate_trace(
            UniformConfig(), inputs.trace_path, self.model,
            self.n * self.r, self.k, steps=self.steps, seed=inputs.seeds[0],
        )

    def preload(self, inputs: Inputs) -> None:
        load_trace(inputs.trace_path)

    def _sweep(self, inputs: Inputs, m_values: list[int], steps: int | None):
        return api.sweep(
            self.n, self.r, self.k, m_values,
            construction=self.construction, model=self.model, x=self.x,
            traffic=TraceConfig(path=inputs.trace_path, steps=steps),
        )

    def call(self, inputs: Inputs) -> list[Any]:
        return self._sweep(inputs, self.m_values, None)

    def warmup(self, inputs: Inputs) -> None:
        self._sweep(inputs, self.m_values, 50)

    def reference(self, inputs: Inputs, cell: Cell) -> Cell:
        a, b = reference_cell(
            self.n, self.r, cell[0], self.k, self.construction, self.model,
            self.x, TraceConfig(path=inputs.trace_path), self.steps, 0,
        )
        return (cell[0], a, b, 0)

    def check_call(self, inputs: Inputs, cells: list[Cell]) -> list[bool]:
        # Every m replays the same recording, so every cell sees exactly
        # the trace's setups.
        setups = sum(
            1 for event in load_trace(inputs.trace_path) if event.kind == "setup"
        )
        return [
            ok and m == want and a == setups
            for ok, (m, a, _, _), want in zip(
                super().check_call(inputs, cells), cells, self.m_values
            )
        ]


class AdaptiveHotspot(Case):
    """A precision-targeted hotspot sweep, then a warm resume of it.

    The round schedule derives its seeds from the configuration
    (``repro.perf.adaptive.round_specs``), so the benchmark seed does
    not reach this workload: every call is the same work.
    """

    name = "adaptive_hotspot"
    prefix_calls = 1
    traced_calls = 2
    resumes = True

    def __init__(self, seed: int, scale: str, work_dir: str):
        super().__init__(seed, scale, work_dir)
        self.n, self.r, self.k = 3, 4, 2
        self.m_values = list(range(2, 4 if self.tiny else 9))
        self.traffic = HotspotConfig(
            zipf_s=1.5, steps=100 if self.tiny else None
        )
        self.steps = self.traffic.resolved_steps(1500)
        self.precision = api.PrecisionConfig(
            half_width=0.05 if self.tiny else 0.01
        )

    def inputs(self, index: int) -> Inputs:
        return Inputs(
            index, cache_dir=os.path.join(self.work_dir, f"cache-{index}")
        )

    def _sweep(self, m_values, traffic, precision, cache_dir):
        return api.sweep(
            self.n, self.r, self.k, m_values,
            traffic=traffic,
            execution=api.ExecConfig(precision=precision, cache_dir=cache_dir),
        )

    def call(self, inputs: Inputs) -> list[Any]:
        return self._sweep(
            self.m_values, self.traffic, self.precision, inputs.cache_dir
        )

    def warmup(self, inputs: Inputs) -> None:
        self._sweep(
            self.m_values[:1],
            HotspotConfig(zipf_s=1.5, steps=50),
            api.PrecisionConfig(half_width=0.5, min_rounds=1, max_rounds=1),
            f"{inputs.cache_dir}-warmup-{os.getpid()}",
        )

    def reference(self, inputs: Inputs, cell: Cell) -> Cell:
        m, _, _, rounds = cell
        key = stream_key(
            self.n, self.r, self.k, Construction.MSW_DOMINANT,
            MulticastModel.MSW, 1, self.steps, None, self.traffic,
        )
        attempts = blocked = 0
        for round_index in range(rounds):
            for spec in round_specs(key, round_index, self.precision):
                a, b = reference_cell(
                    self.n, self.r, m, self.k, Construction.MSW_DOMINANT,
                    MulticastModel.MSW, 1, self.traffic, self.steps,
                    spec.seed, spec.antithetic,
                )
                attempts += a
                blocked += b
        return (m, attempts, blocked, rounds)

    def check_call(self, inputs: Inputs, cells: list[Cell]) -> list[bool]:
        return [
            ok and m == want and rounds >= self.precision.min_rounds
            for ok, (m, _, _, rounds), want in zip(
                super().check_call(inputs, cells), cells, self.m_values
            )
        ]


CASES = {case.name: case for case in (PointUniformDense, CurveTraceMaw, AdaptiveHotspot)}
