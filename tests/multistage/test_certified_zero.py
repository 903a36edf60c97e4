"""The property that licenses the engine's certified-zero columns.

The lockstep engine skips the replay of every Clos column whose ``m``
meets the corrected Theorem 1/2 bound at the cell's own ``x``
(:meth:`repro.engine.fabrics.FabricSpec.certifies`) and records zero
blocked events for it.  That skip is only as good as the theorem, so
this file executes the theorem on the serial network, independently of
the engine: for every registered workload (a recorded uniform trace
included), construction, model and legal ``x`` on the fuzz topologies,
random traffic blocks nothing at the bound and one above it, with the
per-event invariant scans on; and the randomized adversary, which
hunts for blocking states directly, finds no witness at the bound.
"""

from __future__ import annotations

import pytest

from repro.analysis.montecarlo import _traffic_cell
from repro.core.corrected import min_middle_switches_corrected
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import valid_x_range
from repro.engine.fabrics import CLOS
from repro.engine.geometry import FabricGeometry
from repro.multistage.adversary import search_blocking_state
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    TraceConfig,
    UniformConfig,
    generate_trace,
)
from tests.conftest import FUZZ_TOPOLOGIES

STEPS = 120

GENERATIVE = {
    "uniform": UniformConfig(),
    "hotspot": HotspotConfig(zipf_s=1.5),
    "heavytail_fanout": HeavyTailFanoutConfig(alpha=0.9),
    "poisson_erlang": PoissonErlangConfig(offered_erlangs=6.0),
}


def shapes(n, r, k):
    """Every ``(construction, model, x, bound)`` of one topology."""
    for construction in Construction:
        for model in MulticastModel:
            for x in valid_x_range(n, r):
                bound = min_middle_switches_corrected(
                    n, r, k, construction, model, x
                )
                yield construction, model, x, bound


def workload_for(name, n, r, k, model, tmp_path):
    """``(workload, steps)``; the trace is a recorded uniform stream."""
    if name != "trace":
        return GENERATIVE[name], STEPS
    path = str(tmp_path / f"uniform-{model.value}.jsonl")
    count = generate_trace(
        UniformConfig(), path, model, n * r, k, steps=STEPS, seed=5
    )
    return TraceConfig(path=path), count


@pytest.mark.parametrize("name", [*GENERATIVE, "trace"])
@pytest.mark.parametrize("n,r,k", FUZZ_TOPOLOGIES)
def test_serial_network_never_blocks_at_the_bound(name, n, r, k, tmp_path):
    """Zero blocked at ``m = bound`` and ``bound + 1``, invariants on."""
    streams = {
        model: workload_for(name, n, r, k, model, tmp_path)
        for model in MulticastModel
    }
    for construction, model, x, bound in shapes(n, r, k):
        workload, steps = streams[model]
        for m in (bound, bound + 1):
            geometry = FabricGeometry(
                n=n, r=r, k=k, m=m, construction=construction,
                model=model, x=x,
            )
            assert CLOS.certifies(geometry)
            attempts, blocked = _traffic_cell(
                n, r, m, k, construction, model, x, steps, 0, None,
                True, False, workload,
            )
            assert attempts > 0
            assert blocked == 0, (
                f"{name}: v({n},{r},{m},{k}) {construction.value} "
                f"{model.value} x={x} blocked {blocked} of {attempts} "
                f"at corrected bound m>={bound}"
            )


def test_the_certificate_starts_exactly_at_the_bound():
    for n, r, k in FUZZ_TOPOLOGIES:
        for construction, model, x, bound in shapes(n, r, k):
            for m in range(1, bound + 2):
                geometry = FabricGeometry(
                    n=n, r=r, k=k, m=m, construction=construction,
                    model=model, x=x,
                )
                assert CLOS.certifies(geometry) == (m >= bound)
                assert CLOS.certified_bound(geometry) == bound


@pytest.mark.parametrize("n,r,k", FUZZ_TOPOLOGIES)
def test_adversary_finds_no_witness_at_the_bound(n, r, k):
    """The randomized worst-case hunter cannot crack a certified ``m``."""
    for construction, model, x, bound in shapes(n, r, k):
        for seed in (0, 1):
            witness = search_blocking_state(
                n, r, bound, k, construction=construction, model=model,
                x=x, seed=seed, max_events=300,
            )
            assert witness is None, (
                f"adversary blocked v({n},{r},{bound},{k}) "
                f"{construction.value} {model.value} x={x} (seed {seed})"
            )
