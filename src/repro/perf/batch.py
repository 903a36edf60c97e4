"""Lockstep structure-of-arrays Monte-Carlo engine (the estimators' route).

:func:`repro.analysis.montecarlo._traffic_cell` replays one traffic
stream against one :class:`~repro.multistage.network.ThreeStageNetwork`;
a sweep over ``m x seeds`` cells on it pays the full per-event
Python overhead (object construction, admission validation, cache
bookkeeping) once per cell.  This module removes that multiplier two
ways, and is therefore the one route of the Monte-Carlo estimators
(``_traffic_cell`` stays as the serial oracle):

* **common random numbers** -- the traffic stream depends only on
  ``(model, n*r, k, steps, seed, max_fanout)``, never on ``m``, so
  :func:`compile_stream` pre-generates each seed's stream *once* as a
  flat list of integer ops and every ``m`` value replays the same
  stream (which also shrinks the cross-``m`` variance of the curve);
* **lockstep replay** -- :func:`simulate_batch` advances all B
  replications of a seed through each event together, holding the
  fabric state as packed integer bitplanes (middle-switch occupancy,
  per-fiber wavelength masks, converter pools), so the per-event work
  is a handful of mask operations per replication instead of a network
  object call stack.

The replay reproduces the serial simulator *bit for bit* because both
run the same code: one backend-parameterized event loop
(:func:`_replay`) drives the shared admission kernels of
:mod:`repro.engine` (``probe_cover`` for routing, ``block_cause`` for
``explain_block``-identical causes) against a
:class:`~repro.engine.state.FabricState` -- the traffic generator's RNG
stream, first-fit wavelength assignment and ascending-middle allocation
order are all properties of those kernels, and the property tests plus
``bench_perf.py`` assert per-replication equality of ``(attempts,
blocked)`` and causes against the bitmask kernel.

The state backends (``python`` int bitplanes and the fused ``numba``
backend, which packs masks wider than
:data:`~repro.engine.planes.WORD_BITS` bits into multi-word planes per
:class:`~repro.engine.planes.PlaneLayout`) live in
:mod:`repro.engine.state` / :mod:`repro.engine.fused` behind the
:mod:`repro.engine.backends` registry; ``auto`` prefers ``numba`` when
importable (at any plane width), else ``python``, and
``WDM_REPRO_BATCH_BACKEND`` overrides.  For the fused backend the
per-event loop is bypassed entirely: :func:`lower_stream` flattens the
compiled stream to int64 arrays (dest masks become ``[events, W]``
word columns) and :meth:`~repro.engine.fused.FusedState.replay_ops`
executes the whole replay in one ``@njit`` kernel -- same decisions,
bit-identical counts and causes.
:func:`repro.api.blocking` and :func:`repro.api.sweep` (fixed budget
and precision-targeted alike) dispatch whole seed-batches here, on the
backend ``resolve_backend("auto")`` picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs as _obs
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import check_middle_count, valid_x_range
from repro.engine.backends import (
    BACKEND_ENV,
    BACKENDS,
    available_backends,
    make_state,
    resolve_backend,
)
from repro.engine.fabrics import get_fabric
from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import block_cause, classify_kind, probe_cover
from repro.engine.planes import pack_masks
from repro.engine.state import FabricState, StreamState
from repro.switching.generators import dynamic_traffic, stream_rng

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.workloads.base import WorkloadConfig

try:  # NumPy is optional; only the fused lowering needs it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "CellOutcome",
    "LoweredStream",
    "available_backends",
    "compile_stream",
    "lower_stream",
    "replay_cell",
    "resolve_backend",
    "simulate_batch",
]

_SETUP = 1
_TEARDOWN = 0


def compile_stream(
    model: MulticastModel,
    n: int,
    r: int,
    k: int,
    steps: int,
    seed: int,
    max_fanout: int | None = None,
    antithetic: bool = False,
    workload: "WorkloadConfig | None" = None,
) -> list[tuple[int, int, int, int, int]]:
    """Pre-generate one seed's traffic stream as flat replay ops.

    The generator's own endpoint bookkeeping is independent of the
    fabric (blocked setups keep their endpoints busy until teardown),
    so the stream -- and hence this compilation -- depends only on
    ``(model, n*r, k, steps, seed, max_fanout, antithetic)``: one
    compile serves every ``m`` of a sweep.  With ``antithetic=True``
    the stream is generated from the seed's antithetic mirror
    (:func:`repro.switching.generators.stream_rng`) -- because the
    variance-reduction seam sits here, in the stream compiler, every
    kernel and backend that replays compiled streams gets antithetic
    sampling for free.  Each op is
    ``(tag, connection_id, input_module, source_wavelength, dest_mask)``
    with ``tag`` 1 for setup and 0 for teardown (``dest_mask`` is a
    bitmask over output modules; teardown ops carry the setup's module
    and wavelength so releases need no lookup).  Every setup is a
    *guaranteed-legal* addition for the same reason, so the replay can
    skip admission validation entirely.

    ``workload`` swaps in a registered traffic model from
    :mod:`repro.workloads` (None keeps the uniform generator, the
    historical behaviour): because this compiler is the one producer of
    replay ops, a workload plugged in here automatically reaches every
    kernel and backend -- the stream contract, not the generator, is
    the interface.  Callers must mix ``workload.token()`` into any key
    derived from the stream.
    """
    rng = stream_rng(seed, antithetic)
    if workload is None:
        events = dynamic_traffic(
            model, n * r, k, steps=steps, seed=rng, max_fanout=max_fanout
        )
    else:
        events = workload.events(
            model, n * r, k, steps=steps, rng=rng, max_fanout=max_fanout
        )
    ops: list[tuple[int, int, int, int, int]] = []
    for event in events:
        source = event.connection.source
        g = source.port // n
        if event.kind == "setup":
            dest_mask = 0
            for destination in event.connection.destinations:
                dest_mask |= 1 << (destination.port // n)
            ops.append(
                (_SETUP, event.connection_id, g, source.wavelength, dest_mask)
            )
        else:
            ops.append(
                (_TEARDOWN, event.connection_id, g, source.wavelength, 0)
            )
    return ops


@dataclass(frozen=True)
class LoweredStream:
    """One compiled stream lowered to flat int64 arrays (fused form).

    The array program every model (MSW/MSDW/MAW) and both constructions
    compile to: per-event ``tag``/``g``/``sw``/``dest`` columns plus
    ``slot``, the dense connection index (one slot per connection id,
    shared by its setup and teardown ops) that lets the fused kernel
    store live branches in fixed-shape arrays instead of dicts.
    ``dest`` holds ``[events, r_words]`` little-endian word columns
    (one column when the output-module family fits one word).
    Satisfies :class:`repro.engine.fused.LoweredOps`.
    """

    tag: object
    slot: object
    g: object
    sw: object
    dest: object
    n_slots: int
    n_setups: int
    r_words: int = 1


def lower_stream(
    ops: list[tuple[int, int, int, int, int]],
    r_words: int = 1,
) -> LoweredStream:
    """Lower :func:`compile_stream` ops to the fused kernel's arrays.

    ``r_words`` is the output-module mask family's plane width
    (:attr:`~repro.engine.planes.PlaneLayout.r_words`): each dest mask
    is split into ``r_words`` little-endian int64 words, so ``dest`` is
    ``[events, r_words]``.
    """
    if _np is None:  # pragma: no cover - fused backend gates first
        raise ValueError("lower_stream requires numpy")
    n = len(ops)
    tag = _np.zeros(n, dtype=_np.int64)
    slot = _np.zeros(n, dtype=_np.int64)
    g = _np.zeros(n, dtype=_np.int64)
    sw = _np.zeros(n, dtype=_np.int64)
    slots: dict[int, int] = {}
    n_setups = 0
    for i, (op_tag, cid, op_g, op_sw, op_dest) in enumerate(ops):
        if op_tag == _SETUP:
            n_setups += 1
        tag[i] = op_tag
        cid_slot = slots.get(cid)
        if cid_slot is None:
            cid_slot = len(slots)
            slots[cid] = cid_slot
        slot[i] = cid_slot
        g[i] = op_g
        sw[i] = op_sw
    dest = pack_masks([op[4] for op in ops], r_words)
    return LoweredStream(
        tag=tag, slot=slot, g=g, sw=sw, dest=dest,
        n_slots=len(slots), n_setups=n_setups, r_words=r_words,
    )


@dataclass(frozen=True)
class CellOutcome:
    """One replication's result, with optional blocking causes."""

    m: int
    attempts: int
    blocked: int
    #: per blocked request (in stream order) the ``explain_block``-shaped
    #: cause dict; empty unless ``record_causes=True``.
    causes: tuple[dict, ...] = ()


class _Replication:
    """Mutable per-replication accumulator for one lockstep replay."""

    __slots__ = ("blocked", "releases", "kind_counts", "causes")

    def __init__(self) -> None:
        self.blocked = 0
        self.releases = 0
        self.kind_counts: dict[str, int] = {}
        self.causes: list[dict] = []


def _record_block(
    rep: _Replication,
    cid: int,
    dropped: set[int],
    want_kinds: bool,
    want_causes: bool,
    x: int,
    g: int,
    sw: int,
    blocked_mask: int,
    avail: int,
    coverable: dict[int, int],
    dest_mask: int,
    msw_dominant: bool,
    fabric: str | None = None,
    static_unreachable: int = 0,
) -> None:
    rep.blocked += 1
    dropped.add(cid)
    if want_kinds:
        if want_causes:
            cause = block_cause(
                x=x,
                input_module=g,
                source_wavelength=sw,
                blocked_mask=blocked_mask,
                available=avail,
                coverable=coverable,
                dest_mask=dest_mask,
                msw_dominant=msw_dominant,
                fabric=fabric,
                static_unreachable=static_unreachable,
            )
            rep.causes.append(cause)
            kind = cause["kind"]
        else:
            kind = classify_kind(
                avail, coverable, dest_mask, msw_dominant, static_unreachable
            )
        rep.kind_counts[kind] = rep.kind_counts.get(kind, 0) + 1


def _replay(
    ops: list[tuple[int, int, int, int, int]],
    state: FabricState | StreamState,
    want_kinds: bool,
    want_causes: bool,
) -> tuple[int, list[_Replication]]:
    """The single lockstep event loop, parameterized by the state backend.

    Every setup op drives one :func:`repro.engine.kernel.probe_cover`
    per replication against the backend's ``setup_views`` -- the same
    kernel the serial network and the exhaustive checker route through
    -- so this loop owns no admission semantics of its own: MSW- vs
    MAW-dominance, endpoint models and wavelength picks all live in the
    engine.

    A whole-stream state (:class:`~repro.engine.state.StreamState`,
    e.g. the fused ``numba`` backend) takes the entire loop instead:
    the stream is lowered to flat arrays once and every per-event
    decision above runs inside the one compiled kernel, bit-identically.
    """
    if isinstance(state, StreamState):
        replay = state.replay_ops(
            lower_stream(ops, state.plane_layout.r_words),
            want_kinds,
            want_causes,
        )
        replications = []
        for b in range(state.batch):
            rep = _Replication()
            rep.blocked = replay.blocked[b]
            rep.releases = replay.releases[b]
            rep.kind_counts = replay.kind_counts[b]
            rep.causes = replay.causes[b]
            replications.append(rep)
        return replay.attempts, replications
    batch = state.batch
    x = state.x
    msw_dominant = state.msw_dominant
    all_masks = state.all_masks
    # The fabric model's static reach constraint (one family per batch,
    # enforced by the state's _check_family): None on the Clos, so the
    # legacy path stays untouched.
    su = getattr(state, "static_unreach_masks", None)
    fabric_name = state.geometries[0].fabric
    fab_token = None if fabric_name == "clos" else fabric_name
    replications = [_Replication() for _ in range(batch)]
    live: list[dict[int, tuple]] = [{} for _ in range(batch)]
    dropped: list[set[int]] = [set() for _ in range(batch)]
    attempts = 0
    indices = range(batch)
    views = state.setup_views
    allocate = state.allocate
    free = state.free
    probe = probe_cover
    for op in ops:
        tag, cid, g, sw, dest_mask = op
        if tag:
            attempts += 1
            blocked_row, blocker_rows = views(g, sw)
            for b in indices:
                blocked = blocked_row[b]
                avail = all_masks[b] & ~blocked
                cover, coverable = probe(avail, dest_mask, x, blocker_rows[b])
                if cover is None:
                    _record_block(
                        replications[b], cid, dropped[b], want_kinds,
                        want_causes, x, g, sw, blocked, avail, coverable,
                        dest_mask, msw_dominant, fab_token,
                        0 if su is None else su[b][sw],
                    )
                else:
                    live[b][cid] = allocate(b, g, sw, cover)
        else:
            for b in indices:
                gone = dropped[b]
                if cid in gone:
                    gone.remove(cid)
                    continue
                free(b, g, sw, live[b].pop(cid))
                replications[b].releases += 1
    return attempts, replications


def _simulate(
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    seed: int,
    m_values: list[int],
    backend: str,
    record_causes: bool,
    antithetic: bool = False,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> tuple[int, list[_Replication]]:
    """Compile seed ``seed`` once and replay it against every ``m``."""
    legal_x = valid_x_range(n, r)
    if x not in legal_x:
        raise ValueError(
            f"x={x} outside the legal range "
            f"[{legal_x[0]}, {legal_x[-1]}] for n={n}, r={r}"
        )
    if not m_values:
        return 0, []
    for m in m_values:
        check_middle_count(m)
    spec = get_fabric(fabric)
    geometries = [
        FabricGeometry(
            n=n, r=r, k=k, m=m,
            construction=construction, model=model, x=x, fabric=fabric,
        )
        for m in m_values
    ]
    want_kinds = record_causes or _obs.enabled()
    ops = compile_stream(
        model, n, r, k, steps, seed, max_fanout, antithetic, workload
    )
    if spec.nonblocking:
        # Single-stage nonblocking fabric: every compiled setup is a
        # legal request and the fabric admits it by construction, so
        # there is no middle-stage state to replay -- attempts are the
        # stream's setup count, blocked is exactly zero (the live
        # oracle property), and every teardown releases.  The backend
        # is still resolved so unknown-backend errors stay uniform.
        resolve_backend(backend, m_max=max(m_values), r=r, k=k)
        attempts = sum(1 for op in ops if op[0] == _SETUP)
        teardowns = len(ops) - attempts
        replications = []
        for _ in m_values:
            rep = _Replication()
            rep.releases = teardowns
            replications.append(rep)
    else:
        state = make_state(geometries, backend)
        attempts, replications = _replay(
            ops, state, want_kinds, record_causes
        )
    if _obs.enabled():
        # Aggregate increments, guarded on nonzero so the counter *set*
        # (not just the totals) matches a serial run's -- serial counters
        # only exist once incremented.
        for rep in replications:
            _obs.inc("mc.cells")
            if attempts:
                _obs.inc("net.admit.attempts", attempts)
            admitted = attempts - rep.blocked
            if admitted:
                _obs.inc("net.admit.admitted", admitted)
            if rep.blocked:
                _obs.inc("net.admit.blocked", rep.blocked)
            for kind in sorted(rep.kind_counts):
                _obs.inc(f"net.block.cause.{kind}", rep.kind_counts[kind])
            if rep.releases:
                _obs.inc("net.release", rep.releases)
    return attempts, replications


def simulate_batch(
    n: int,
    r: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
    x: int,
    steps: int,
    max_fanout: int | None,
    seed: int,
    m_values: tuple[int, ...] | list[int],
    backend: str = "auto",
    antithetic: bool = False,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> list[tuple[int, tuple[int, int]]]:
    """All of one seed's ``(m, (attempts, blocked))`` cells, in lockstep.

    This is the work-unit function the Monte-Carlo estimators hand to
    :class:`repro.perf.ParallelSweeper` (batch-per-process instead of
    cell-per-process): module-level and
    picklable, and every returned cell is bit-identical to
    ``_traffic_cell`` run serially with the same arguments (including
    ``antithetic``, which swaps in the seed's mirrored stream, and
    ``workload``, which swaps in a registered traffic model).
    ``fabric`` selects the registered fabric model the stream replays
    through (:mod:`repro.engine.fabrics`); the default Clos path is
    bit-identical to the pre-seam engine.
    """
    attempts, replications = _simulate(
        n, r, k, construction, model, x, steps, max_fanout, seed,
        list(m_values), backend, record_causes=False, antithetic=antithetic,
        workload=workload, fabric=fabric,
    )
    return [
        (m, (attempts, rep.blocked))
        for m, rep in zip(m_values, replications)
    ]


def replay_cell(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    steps: int,
    seed: int,
    max_fanout: int | None = None,
    backend: str = "auto",
    record_causes: bool = False,
    workload: "WorkloadConfig | None" = None,
    fabric: str = "clos",
) -> CellOutcome:
    """One ``(m, seed)`` replication through the batch engine.

    With ``record_causes=True`` the outcome carries, for each blocked
    setup in stream order, the same cause dict
    :meth:`~repro.multistage.network.ThreeStageNetwork.explain_block`
    would produce at that event -- the hook the equivalence property
    tests compare against the serial simulator.
    """
    attempts, replications = _simulate(
        n, r, k, construction, model, x, steps, max_fanout, seed, [m],
        backend, record_causes=record_causes, workload=workload,
        fabric=fabric,
    )
    rep = replications[0]
    return CellOutcome(
        m=m,
        attempts=attempts,
        blocked=rep.blocked,
        causes=tuple(rep.causes),
    )
