"""Seeded random assignment and dynamic-traffic generators.

Two kinds of randomness are needed by the reproduction:

* **static assignments** -- random legal multicast assignments of a
  crossbar network, used to exercise the fabric simulator
  (:mod:`repro.fabric`) on inputs it has never seen;
* **dynamic traffic** -- randomized sequences of connection setups and
  teardowns, used to fuzz the three-stage simulator: Theorems 1-2 claim
  the network never blocks under *any* such sequence once ``m`` meets
  the bound, which is exactly the property the fuzz tests assert.

All randomness flows through :class:`random.Random` instances seeded by
the caller, so every test and benchmark is reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Literal

from repro.core.models import MulticastModel
from repro.switching.enumeration import _compatible
from repro.switching.requests import Endpoint, MulticastAssignment, MulticastConnection

__all__ = [
    "AntitheticRandom",
    "AssignmentGenerator",
    "FreeEndpoints",
    "TrafficEvent",
    "draw_connection",
    "dynamic_traffic",
    "stream_rng",
]

#: workload hook: ``(rng, fanout_cap) -> fanout`` (clamped to [1, cap])
FanoutPicker = Callable[[random.Random, int], int]
#: workload hook: ``(rng, port_options, fanout) -> ports`` where
#: ``port_options`` maps each eligible output port to its admissible
#: wavelengths (ascending); its keys arrive in ascending port order.
#: Must return ``fanout`` distinct keys
PortPicker = Callable[[random.Random, dict[int, list[int]], int], list[int]]


class AntitheticRandom(random.Random):
    """The antithetic mirror of a seeded :class:`random.Random` stream.

    Every primitive draw is complemented -- ``random()`` returns
    ``1 - u`` and ``getrandbits(k)`` returns the bitwise complement --
    so all derived draws (``randrange``, ``choice``, ``sample``, ...)
    come from the mirrored stream.  The marginal distribution of each
    draw is unchanged (``1 - U`` is uniform, the complement of uniform
    ``k``-bit words is uniform, and rejection sampling accepts both
    streams identically in distribution), so an antithetic replication
    is as unbiased as its twin; but the two streams' draws are
    negatively coupled, which is what makes averaging a
    ``(seed, antithetic-seed)`` pair a variance-reduction device for
    the adaptive sweep driver (:mod:`repro.perf.adaptive`).
    """

    def random(self) -> float:
        value = 1.0 - super().random()
        # super().random() is in [0, 1), so the mirror is in (0, 1];
        # fold the measure-zero endpoint back to keep the contract.
        return value if value < 1.0 else 0.0

    def getrandbits(self, k: int) -> int:
        return (1 << k) - 1 - super().getrandbits(k)


def stream_rng(seed: int, antithetic: bool = False) -> random.Random:
    """The RNG stream of one replication: ``seed``'s stream or its mirror.

    The single constructor every traffic path (serial cell, stream
    compiler) uses, so a ``(seed, antithetic)`` pair names the same
    stream everywhere -- the bit-identity contract of the adaptive
    rounds.
    """
    return AntitheticRandom(seed) if antithetic else random.Random(seed)


class AssignmentGenerator:
    """Generates random legal assignments of an ``N x N`` ``k``-wavelength net.

    Sampling walks the output endpoints in random order and picks a
    compatible input endpoint (or idle) uniformly at each step.  The
    distribution is *not* uniform over assignments -- it doesn't need to
    be; it just needs to cover the legal space and be reproducible.
    """

    def __init__(
        self,
        model: MulticastModel,
        n_ports: int,
        k: int,
        rng: random.Random | int | None = None,
    ):
        if n_ports < 1 or k < 1:
            raise ValueError(f"need N >= 1 and k >= 1, got N={n_ports}, k={k}")
        self.model = model
        self.n_ports = n_ports
        self.k = k
        if isinstance(rng, random.Random):
            self._rng = rng
        else:
            self._rng = random.Random(rng)

    def random_mapping(self, idle_probability: float = 0.3) -> dict[Endpoint, Endpoint]:
        """One random output->input endpoint mapping.

        Args:
            idle_probability: chance each output endpoint stays idle
                (0.0 forces an attempt at a full assignment; an output
                may still idle if no compatible input remains, which for
                these models cannot actually happen -- there is always a
                same-wavelength input free -- so 0.0 yields full
                assignments).
        """
        outputs = [
            Endpoint(port, wavelength)
            for port in range(self.n_ports)
            for wavelength in range(self.k)
        ]
        inputs = list(outputs)
        self._rng.shuffle(outputs)
        chosen: dict[Endpoint, Endpoint] = {}
        for output_endpoint in outputs:
            if idle_probability and self._rng.random() < idle_probability:
                continue
            candidates = [
                input_endpoint
                for input_endpoint in inputs
                if _compatible(self.model, output_endpoint, input_endpoint, chosen)
            ]
            if not candidates:
                continue
            chosen[output_endpoint] = self._rng.choice(candidates)
        return chosen

    def random_assignment(self, idle_probability: float = 0.3) -> MulticastAssignment:
        """One random legal :class:`MulticastAssignment`."""
        return MulticastAssignment.from_mapping(
            self.random_mapping(idle_probability)
        )

    def random_full_assignment(self) -> MulticastAssignment:
        """One random legal *full* assignment (every output endpoint used)."""
        return MulticastAssignment.from_mapping(self.random_mapping(0.0))


@dataclass(frozen=True)
class TrafficEvent:
    """One step of a dynamic traffic sequence."""

    kind: Literal["setup", "teardown"]
    connection: MulticastConnection
    connection_id: int


class FreeEndpoints:
    """The free endpoints of one traffic stream, kept sorted as it runs.

    :func:`draw_connection` draws from sorted sequences; this index keeps
    them sorted incrementally (``bisect``) instead of re-sorting the free
    sets on every draw.  Endpoint codes are ``port * k + wavelength``,
    whose numeric order equals :class:`Endpoint` order.  Input and output
    endpoints are separate spaces:

    * ``inputs`` -- free input codes, ascending;
    * ``ports_on[w]`` -- output ports with wavelength ``w`` free;
    * ``wavelengths_at[p]`` -- free wavelengths of output port ``p``;
    * ``ports`` -- output ports with any wavelength free;
    * ``endpoint[code]`` -- the interned :class:`Endpoint` of a code.

    :meth:`take` and :meth:`give` must be handed connections drawn from
    this index (``take`` while their endpoints are free, ``give`` once
    taken); the index does not re-check that.
    """

    __slots__ = ("k", "endpoint", "inputs", "ports_on", "wavelengths_at", "ports")

    def __init__(self, n_ports: int, k: int):
        codes = range(n_ports * k)
        self.k = k
        self.endpoint = [Endpoint(*divmod(code, k)) for code in codes]
        self.inputs = list(codes)
        self.ports_on = [list(range(n_ports)) for _ in range(k)]
        self.wavelengths_at = [list(range(k)) for _ in range(n_ports)]
        self.ports = list(range(n_ports)) if k else []

    def take(self, connection: MulticastConnection) -> None:
        """Mark a freshly drawn connection's endpoints busy."""
        source = connection.source
        inputs = self.inputs
        del inputs[bisect_left(inputs, source.port * self.k + source.wavelength)]
        ports_on = self.ports_on
        wavelengths_at = self.wavelengths_at
        for destination in connection.destinations:
            port = destination.port
            wavelength = destination.wavelength
            on = ports_on[wavelength]
            del on[bisect_left(on, port)]
            at = wavelengths_at[port]
            del at[bisect_left(at, wavelength)]
            if not at:
                ports = self.ports
                del ports[bisect_left(ports, port)]

    def give(self, connection: MulticastConnection) -> None:
        """Free a taken connection's endpoints again."""
        source = connection.source
        insort(self.inputs, source.port * self.k + source.wavelength)
        ports_on = self.ports_on
        wavelengths_at = self.wavelengths_at
        for destination in connection.destinations:
            port = destination.port
            wavelength = destination.wavelength
            insort(ports_on[wavelength], port)
            at = wavelengths_at[port]
            if not at:
                insort(self.ports, port)
            insort(at, wavelength)


def draw_connection(
    rng: random.Random,
    model: MulticastModel,
    cap: int,
    free: FreeEndpoints,
    pick_fanout: FanoutPicker | None = None,
    pick_ports: PortPicker | None = None,
) -> MulticastConnection | None:
    """One feasible random connection over the free endpoints.

    The single draw sequence every traffic model shares (source
    endpoint, admissible wavelength, fanout, destination ports,
    per-port wavelength); :func:`dynamic_traffic` and the
    continuous-time Poisson/Erlang workload both route through it, so
    endpoint feasibility is stated once.  The caller takes the drawn
    connection out of ``free`` (:meth:`FreeEndpoints.take`).

    Every draw picks from an ascending sequence -- free input codes,
    eligible ports, a port's free wavelengths -- so the stream is the
    one a re-sort of the free sets on every draw would give.  The
    per-destination wavelength draw runs even when a port offers a
    single wavelength (MSW/MSDW): ``choice`` of one element still
    consumes random bits.

    The two hooks are the workload seam: ``pick_fanout`` replaces the
    uniform fanout draw (heavy-tail group sizes), ``pick_ports`` the
    uniform destination-port sample (hotspot skew).  With both ``None``
    the draws -- and hence every stream compiled from them -- are
    bit-identical to the historical generator, which is the uniform
    workload's compatibility contract.

    Returns None when no feasible connection exists (no free input, or
    no output port offers an admissible wavelength).
    """
    inputs = free.inputs
    if not inputs:
        return None
    k = free.k
    endpoint = free.endpoint
    source = endpoint[rng.choice(inputs)]
    if model is MulticastModel.MAW:
        ports = free.ports
        options: list[list[int]] | dict[int, list[int]] | None = (
            free.wavelengths_at
        )
    else:
        wavelength = (
            source.wavelength if model is MulticastModel.MSW
            else rng.randrange(k)
        )
        ports = free.ports_on[wavelength]
        options = None  # every eligible port offers just `wavelength`
    if not ports:
        return None
    fanout_cap = min(cap, len(ports))
    if pick_fanout is None:
        fanout = rng.randint(1, fanout_cap)
    else:
        fanout = max(1, min(fanout_cap, pick_fanout(rng, fanout_cap)))
    if pick_ports is None:
        chosen = rng.sample(ports, fanout)
    else:
        options = {
            port: [wavelength] if options is None else list(options[port])
            for port in ports
        }
        chosen = pick_ports(rng, options, fanout)
    if options is None:
        only = [wavelength]
        destinations = [
            endpoint[port * k + rng.choice(only)] for port in chosen
        ]
    else:
        destinations = [
            endpoint[port * k + rng.choice(options[port])] for port in chosen
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
    """Yield a random feasible sequence of connection setups/teardowns.

    Every prefix of the generated sequence keeps the set of active
    connections a legal multicast assignment under ``model``; a
    nonblocking network must therefore accept every setup event.

    Free endpoints live in a :class:`FreeEndpoints` index that each
    setup and teardown updates in place, so no event re-sorts the free
    sets -- the generator sits on the hot path of every Monte-Carlo
    sweep.

    Args:
        model: multicast model the connections must obey.
        n_ports: network size ``N``.
        k: wavelengths per fiber.
        steps: number of events to generate (fewer if the traffic space
            is exhausted, which only happens for degenerate sizes).
        seed: RNG seed; identical seeds give identical sequences.  A
            ``random.Random`` instance is used directly, letting a caller
            thread one stream per replication end-to-end.
        max_fanout: cap on destinations per connection (default ``N``).
        teardown_probability: chance a step tears down an active
            connection instead of setting up a new one.
        pick_fanout, pick_ports: the :func:`draw_connection` workload
            hooks (None keeps the bit-identical uniform draws).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cap = n_ports if max_fanout is None else min(max_fanout, n_ports)
    if cap < 1:
        raise ValueError(f"max_fanout must allow at least one destination, got {cap}")

    free = FreeEndpoints(n_ports, k)
    active: dict[int, MulticastConnection] = {}
    next_id = 0

    for _ in range(steps):
        tear_down = active and (
            rng.random() < teardown_probability or not free.inputs
        )
        connection = None if tear_down else draw_connection(
            rng, model, cap, free, pick_fanout, pick_ports
        )
        if connection is None:
            if not active:
                return  # nothing to do in either direction
            # Ids enter `active` in ascending order and a dict keeps
            # insertion order, so list(active) == sorted(active).
            connection_id = rng.choice(list(active))
            connection = active.pop(connection_id)
            free.give(connection)
            yield TrafficEvent("teardown", connection, connection_id)
            continue
        free.take(connection)
        active[next_id] = connection
        yield TrafficEvent("setup", connection, next_id)
        next_id += 1
