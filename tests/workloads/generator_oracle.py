"""The reference traffic generator: frozen sorted-set draws.

This module is the differential oracle for :mod:`repro.switching.generators`
and the generative workloads built on it.  Its ``draw_connection`` /
``dynamic_traffic`` and the Poisson/Erlang loop are verbatim copies of
the set-based generator that the free-endpoint index replaced: every
draw re-sorts the free endpoint sets, every teardown re-sorts the
active ids.  Slow on purpose and never to be optimised -- its only job
is to say which events the production generator must emit.

The hotspot and heavy-tail hooks are frozen here too (the hotspot one
with its original ``sorted(port_options)``), so a tidy-up of a
production hook is checked against the draws it used to make.

:data:`PINNED_STREAMS` pins a few stream hashes as literals, so this
oracle and the production generator cannot drift *together*.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import random
from collections.abc import Callable, Iterable, Iterator

from repro.core.models import MulticastModel
from repro.switching.generators import TrafficEvent
from repro.switching.requests import Endpoint, MulticastConnection
from repro.workloads import (
    HeavyTailFanoutConfig,
    HotspotConfig,
    PoissonErlangConfig,
    UniformConfig,
)
from repro.workloads.base import WorkloadConfig

FanoutPicker = Callable[[random.Random, int], int]
PortPicker = Callable[[random.Random, dict[int, list[int]], int], list[int]]


def draw_connection(
    rng: random.Random,
    model: MulticastModel,
    k: int,
    cap: int,
    free_inputs: set[int],
    free_outputs: set[int],
    pick_fanout: FanoutPicker | None = None,
    pick_ports: PortPicker | None = None,
) -> MulticastConnection | None:
    if not free_inputs:
        return None
    source_code = rng.choice(sorted(free_inputs))
    source = Endpoint(*divmod(source_code, k))
    if model is MulticastModel.MSW:
        allowed: int | None = source.wavelength
    elif model is MulticastModel.MSDW:
        allowed = rng.randrange(k)
    else:
        allowed = None  # MAW: every wavelength admissible
    # Ports that offer a free endpoint on an allowed wavelength; codes
    # iterate in sorted order so per-port wavelength lists ascend.
    port_options: dict[int, list[int]] = {}
    for code in sorted(free_outputs):
        port, wavelength = divmod(code, k)
        if allowed is None or wavelength == allowed:
            port_options.setdefault(port, []).append(wavelength)
    if not port_options:
        return None
    fanout_cap = min(cap, len(port_options))
    if pick_fanout is None:
        fanout = rng.randint(1, fanout_cap)
    else:
        fanout = max(1, min(fanout_cap, pick_fanout(rng, fanout_cap)))
    if pick_ports is None:
        ports = rng.sample(sorted(port_options), fanout)
    else:
        ports = pick_ports(rng, port_options, fanout)
    destinations = [
        Endpoint(port, rng.choice(port_options[port])) for port in ports
    ]
    return MulticastConnection(source, destinations)


def dynamic_traffic(
    model: MulticastModel,
    n_ports: int,
    k: int,
    *,
    steps: int,
    seed: int | random.Random,
    max_fanout: int | None = None,
    teardown_probability: float = 0.35,
    pick_fanout: FanoutPicker | None = None,
    pick_ports: PortPicker | None = None,
) -> Iterator[TrafficEvent]:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cap = n_ports if max_fanout is None else min(max_fanout, n_ports)
    if cap < 1:
        raise ValueError(f"max_fanout must allow at least one destination, got {cap}")

    free_inputs: set[int] = {
        port * k + wavelength
        for port in range(n_ports)
        for wavelength in range(k)
    }
    free_outputs: set[int] = set(free_inputs)
    active: dict[int, MulticastConnection] = {}
    next_id = 0

    def try_setup() -> MulticastConnection | None:
        return draw_connection(
            rng, model, k, cap, free_inputs, free_outputs,
            pick_fanout, pick_ports,
        )

    def release(connection: MulticastConnection) -> None:
        free_inputs.add(connection.source.port * k + connection.source.wavelength)
        free_outputs.update(
            d.port * k + d.wavelength for d in connection.destinations
        )

    for _ in range(steps):
        do_teardown = active and (
            rng.random() < teardown_probability or not free_inputs
        )
        if do_teardown:
            connection_id = rng.choice(sorted(active))
            connection = active.pop(connection_id)
            release(connection)
            yield TrafficEvent("teardown", connection, connection_id)
            continue
        connection = try_setup()
        if connection is None:
            if not active:
                return  # nothing to do in either direction
            connection_id = rng.choice(sorted(active))
            connection = active.pop(connection_id)
            release(connection)
            yield TrafficEvent("teardown", connection, connection_id)
            continue
        free_inputs.discard(
            connection.source.port * k + connection.source.wavelength
        )
        free_outputs.difference_update(
            d.port * k + d.wavelength for d in connection.destinations
        )
        active[next_id] = connection
        yield TrafficEvent("setup", connection, next_id)
        next_id += 1


def poisson_erlang_events(
    config: PoissonErlangConfig,
    model: MulticastModel,
    n_ports: int,
    k: int,
    *,
    steps: int,
    rng: random.Random,
    max_fanout: int | None,
) -> Iterator[TrafficEvent]:
    cap = n_ports if max_fanout is None else min(max_fanout, n_ports)
    if cap < 1:
        raise ValueError(
            f"max_fanout must allow at least one destination, got {cap}"
        )
    arrival_rate = config.offered_erlangs / config.mean_holding
    departure_rate = 1.0 / config.mean_holding

    free_inputs: set[int] = {
        port * k + wavelength
        for port in range(n_ports)
        for wavelength in range(k)
    }
    free_outputs: set[int] = set(free_inputs)
    active: dict[int, "TrafficEvent"] = {}
    departures: list[tuple[float, int]] = []
    now = 0.0
    emitted = 0
    next_id = 0

    while emitted < steps:
        now += rng.expovariate(arrival_rate)
        # Scheduled departures before this arrival leave first.
        while departures and departures[0][0] <= now and emitted < steps:
            _, connection_id = heapq.heappop(departures)
            event = active.pop(connection_id)
            connection = event.connection
            free_inputs.add(
                connection.source.port * k + connection.source.wavelength
            )
            free_outputs.update(
                d.port * k + d.wavelength for d in connection.destinations
            )
            emitted += 1
            yield TrafficEvent("teardown", connection, connection_id)
        if emitted >= steps:
            return
        connection = draw_connection(
            rng, model, k, cap, free_inputs, free_outputs
        )
        if connection is None:
            if not active:
                return  # degenerate fabric: nothing can ever connect
            continue  # all sources busy: the offered call is lost
        free_inputs.discard(
            connection.source.port * k + connection.source.wavelength
        )
        free_outputs.difference_update(
            d.port * k + d.wavelength for d in connection.destinations
        )
        holding = rng.expovariate(departure_rate)
        heapq.heappush(departures, (now + holding, next_id))
        event = TrafficEvent("setup", connection, next_id)
        active[next_id] = event
        next_id += 1
        emitted += 1
        yield event


def hotspot_pick_ports(config: HotspotConfig, n_ports: int) -> PortPicker:
    hot = max(1, round(config.hot_fraction * n_ports))
    tail = (hot + 1.0) ** -config.zipf_s
    weight_of = [
        (port + 1.0) ** -config.zipf_s if port < hot else tail
        for port in range(n_ports)
    ]

    def pick_ports(
        pick_rng: random.Random,
        port_options: dict[int, list[int]],
        fanout: int,
    ) -> list[int]:
        ports = sorted(port_options)
        weights = [weight_of[port] for port in ports]
        chosen: list[int] = []
        for _ in range(fanout):
            total = sum(weights)
            threshold = pick_rng.random() * total
            acc = 0.0
            index = len(ports) - 1
            for i, weight in enumerate(weights):
                acc += weight
                if threshold < acc:
                    index = i
                    break
            chosen.append(ports.pop(index))
            weights.pop(index)
        return chosen

    return pick_ports


def heavytail_pick_fanout(config: HeavyTailFanoutConfig) -> FanoutPicker:
    inverse_alpha = 1.0 / config.alpha

    def pick_fanout(pick_rng: random.Random, cap: int) -> int:
        survival = 1.0 - pick_rng.random()
        return min(cap, int(survival ** -inverse_alpha))

    return pick_fanout


def oracle_events(
    config: WorkloadConfig,
    model: MulticastModel,
    n_ports: int,
    k: int,
    *,
    steps: int,
    rng: random.Random,
    max_fanout: int | None,
) -> Iterator[TrafficEvent]:
    """The reference stream of a generative workload's ``events``."""
    if isinstance(config, PoissonErlangConfig):
        return poisson_erlang_events(
            config, model, n_ports, k,
            steps=steps, rng=rng, max_fanout=max_fanout,
        )
    hooks: dict[str, object] = {}
    if isinstance(config, HotspotConfig):
        hooks["pick_ports"] = hotspot_pick_ports(config, n_ports)
    elif isinstance(config, HeavyTailFanoutConfig):
        hooks["pick_fanout"] = heavytail_pick_fanout(config)
    elif not isinstance(config, UniformConfig):
        raise TypeError(f"no reference generator for {config.workload!r}")
    return dynamic_traffic(
        model, n_ports, k,
        steps=steps, seed=rng, max_fanout=max_fanout, **hooks,
    )


def reference_events(config: WorkloadConfig) -> Callable[..., Iterator[TrafficEvent]]:
    """``config.events`` with the reference generator behind it."""
    return functools.partial(oracle_events, config)


def event_record(event: TrafficEvent) -> tuple:
    """An event as plain data: kind, id, source and sorted destinations."""
    connection = event.connection
    return (
        event.kind,
        event.connection_id,
        (connection.source.port, connection.source.wavelength),
        tuple(sorted((d.port, d.wavelength) for d in connection.destinations)),
    )


def stream_digest(events: Iterable[TrafficEvent]) -> str:
    """sha256 over every event's :func:`event_record`, one line each."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event_record(event)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


#: pinned streams: (workload, model, n_ports, k, seed, antithetic,
#: max_fanout, steps, sha256 of the stream's event records)
PINNED_STREAMS = (
    (UniformConfig(), MulticastModel.MSW, 64, 8, 1, False, None, 400,
     "843fa7d0ecb55768d79d28d33781f911881cc697eeb04e1514ff65d0857a8b3a"),
    (UniformConfig(), MulticastModel.MAW, 9, 2, 7, True, 2, 400,
     "286751d3bf679498999fdc5a12a08b874279171b78d01de6a31dbe0710c8ade6"),
    (HotspotConfig(zipf_s=1.5), MulticastModel.MSDW, 12, 3, 0, False, None, 400,
     "b7b1516c2ad4ced6e623f1aab29fce80b5787fbe97c82f6995cccb4a926fa574"),
    (HeavyTailFanoutConfig(alpha=0.9), MulticastModel.MAW, 16, 2, 3, True, None, 400,
     "73be6b18965091d10219fc8d5a09da4549d62003d072f5b859959063ef5071d6"),
    (PoissonErlangConfig(offered_erlangs=6.0), MulticastModel.MSW, 9, 2, 12345, False, 3, 400,
     "618f70bc10c98762c8083f1673d296bc2ee9947fa0351995f40019c043edf8a0"),
)
