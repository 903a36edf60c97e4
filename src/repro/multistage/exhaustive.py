"""Exhaustive reachability analysis: the *exact* minimal nonblocking m.

Theorems 1-2 (and the corrected bounds) are sufficient conditions; the
paper cites [16] for matching necessary values "under several commonly
used routing strategies".  For tiny networks we can settle the question
outright by model checking:

* A network is **strictly nonblocking** (for the <= x routing strategy,
  against an adversary who may also choose how earlier connections were
  routed) iff *no reachable state* admits a legal request with no
  <= x-middle cover.

* Reachable states are exactly the resource-disjoint sets of routed
  connections: given any such set, connecting its members one by one
  (any order) with their final routes is always feasible, because the
  resources each route needs are held by nobody else.  So reachability
  reduces to enumerating consistent routed configurations -- no
  sequence search is needed.

:func:`is_blockable` performs a depth-first enumeration of routed
configurations (deduplicated by resource signature) and reports the
first blocking witness; :func:`_exact_minimal_m_impl` (reached
through :func:`repro.api.exact_m`) scans ``m`` upward to find the true
threshold, which the benchmarks compare against the
sufficient bounds.  Exponential, of course -- intended for ``N k <= 8``
and small ``m``.

Symmetry canonicalization (the default, ``canonicalize=True``) attacks
the exponent on two fronts, neither of which can change the verdict:

* the DFS transposition table keys on
  :meth:`~repro.multistage.network.ThreeStageNetwork.canonical_signature`
  -- states identical up to a middle-switch permutation (and, for the
  MSW model, a global wavelength relabeling) share one entry, because
  such permutations map reachable states to reachable states and
  blocked requests to blocked requests.  The symmetry factor is up to
  ``m! * k!`` per state.
* the per-state victim probe exploits the coverability bound's
  monotonicity: for a fixed source endpoint and wavelength choice, a
  cover of a destination-module set restricts to a cover of any subset,
  so probing the *maximal* legal request per source decides every
  request at once (per-module singleton probes decide the unicast
  case).  The reference probe enumerates all ``O(2^ports)`` requests.

``canonicalize=False`` keeps the uncanonicalized reference search,
which the property tests compare verdicts against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import TYPE_CHECKING

from repro import obs as _obs
from repro.core.models import Construction, MulticastModel

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.perf.cache import ResultCache
from repro.multistage.network import ThreeStageNetwork
from repro.multistage.routing import get_routing_kernel, mask_of
from repro.perf.sweeper import ParallelSweeper, WorkUnit
from repro.switching.requests import Endpoint, MulticastConnection

__all__ = ["BlockableResult", "ExactMinimal", "is_blockable"]


@dataclass(frozen=True)
class BlockableResult:
    """Outcome of one blockability check.

    ``blockable`` is None when the state budget ran out before the
    search completed (the answer is then unknown).
    """

    n: int
    r: int
    m: int
    k: int
    construction: Construction
    model: MulticastModel
    x: int
    blockable: bool | None
    states_explored: int
    witness_state: tuple[MulticastConnection, ...] | None = None
    witness_request: MulticastConnection | None = None
    #: the adversarial route of each witness connection:
    #: one ``(middle, (modules...))`` tuple set per connection
    witness_routes: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] | None = None

    def replay(self) -> ThreeStageNetwork:
        """Re-enact a blocking witness (exact adversarial routes included).

        Returns the network in the blocking state; raises AssertionError
        if the witness no longer blocks.
        """
        if not self.blockable:
            raise ValueError("no witness to replay")
        assert self.witness_state is not None and self.witness_routes is not None
        net = ThreeStageNetwork(
            self.n, self.r, self.m, self.k,
            construction=self.construction, model=self.model, x=self.x,
        )
        for connection, route in zip(self.witness_state, self.witness_routes):
            net.connect(
                connection,
                force_middles={j: list(ps) for j, ps in route},
            )
        assert self.witness_request is not None
        if net.try_connect(self.witness_request) is not None:
            raise AssertionError("witness no longer blocks")
        return net


@dataclass(frozen=True)
class ExactMinimal:
    """The exact minimal nonblocking ``m`` for a tiny configuration."""

    n: int
    r: int
    k: int
    construction: Construction
    model: MulticastModel
    x: int
    m_exact: int | None  # None if the scan was inconclusive (budget)
    per_m: tuple[BlockableResult, ...]


def _legal_requests(
    net: ThreeStageNetwork,
    *,
    unicast_only: bool = False,
) -> list[MulticastConnection]:
    """Every legal request in the network's current state, largest fanout
    first (supersets block at least as easily, so big ones find
    witnesses sooner).  With ``unicast_only``, only fanout-1 requests
    (the classical Clos setting)."""
    topo = net.topology
    n_ports, k = topo.n_ports, topo.k
    free_inputs = [
        Endpoint(p, w)
        for p in range(n_ports)
        for w in range(k)
        if not net._input_used[p, w]
    ]
    free_outputs = [
        Endpoint(p, w)
        for p in range(n_ports)
        for w in range(k)
        if not net._output_used[p, w]
    ]
    requests: list[MulticastConnection] = []
    for source in free_inputs:
        if net.model is MulticastModel.MSW:
            wavelength_choices = [[source.wavelength]]
        elif net.model is MulticastModel.MSDW:
            wavelength_choices = [[w] for w in range(k)]
        else:
            wavelength_choices = [list(range(k))]
        for allowed in wavelength_choices:
            per_port: dict[int, list[Endpoint]] = {}
            for endpoint in free_outputs:
                if endpoint.wavelength in allowed:
                    per_port.setdefault(endpoint.port, []).append(endpoint)
            ports = sorted(per_port)
            max_size = 1 if unicast_only else len(ports)
            for size in range(max_size, 0, -1):
                for chosen_ports in combinations(ports, size):
                    for picks in product(
                        *(per_port[port] for port in chosen_ports)
                    ):
                        requests.append(MulticastConnection(source, picks))
    requests.sort(key=lambda c: -c.fanout)
    return requests


def _all_covers(
    net: ThreeStageNetwork, request: MulticastConnection
) -> list[dict[int, list[int]]]:
    """Every distinct <= x-middle split the adversary could have used."""
    g = net.topology.input_module_of(request.source.port)
    module_destinations = net._module_destinations(request)
    destinations = sorted(module_destinations)
    required = net._required_out_wavelength(module_destinations)
    if get_routing_kernel() == "reference":
        coverable: dict[int, frozenset[int]] = net._coverable_sets(
            g, request.source.wavelength, frozenset(destinations), required
        )
        options = []
        for p in destinations:
            admissible = [j for j, reach in coverable.items() if p in reach]
            if not admissible:
                return []
            options.append(admissible)
    else:
        coverable_bits = net._coverable_bits(
            g, request.source.wavelength, mask_of(destinations)
        )
        options = []
        for p in destinations:
            bit = 1 << p
            admissible = [j for j, reach in coverable_bits.items() if reach & bit]
            if not admissible:
                return []
            options.append(admissible)
    covers: set[tuple[tuple[int, tuple[int, ...]], ...]] = set()
    results = []
    for assignment in product(*options):
        groups: dict[int, list[int]] = {}
        for p, j in zip(destinations, assignment):
            groups.setdefault(j, []).append(p)
        if len(groups) > net.x:
            continue
        key = tuple(sorted((j, tuple(ps)) for j, ps in groups.items()))
        if key in covers:
            continue
        covers.add(key)
        results.append(groups)
    return results


def _signature(net: ThreeStageNetwork) -> bytes:
    return net.state_signature()


def _first_blocked_request(
    net: ThreeStageNetwork, *, unicast_only: bool = False
) -> MulticastConnection | None:
    """A blocked legal request in the current state, or None.

    The fast victim probe: coverability depends only on the
    destination-module set (plus source endpoint and, for the MSW
    model, the shared wavelength), and a cover of a module set
    restricts to a cover of any subset.  So per (source endpoint,
    wavelength choice) it suffices to probe the *maximal* legal request
    -- it is blocked iff any request from that source is.  In unicast
    mode a singleton is blocked iff its module is coverable by no
    middle, so one probe per module decides all ports in it.
    """
    topo = net.topology
    n_ports, k, n = topo.n_ports, topo.k, topo.n
    input_used = net._input_used
    output_used = net._output_used
    for port in range(n_ports):
        for w in range(k):
            if input_used[port, w]:
                continue
            source = Endpoint(port, w)
            if net.model is MulticastModel.MSW:
                wavelength_choices = [[w]]
            elif net.model is MulticastModel.MSDW:
                wavelength_choices = [[v] for v in range(k)]
            else:
                wavelength_choices = [list(range(k))]
            for allowed in wavelength_choices:
                per_port: dict[int, Endpoint] = {}
                for dest_port in range(n_ports):
                    for v in allowed:
                        if not output_used[dest_port, v]:
                            per_port[dest_port] = Endpoint(dest_port, v)
                            break
                if not per_port:
                    continue
                if unicast_only:
                    probed_modules: set[int] = set()
                    for dest_port in sorted(per_port):
                        module = dest_port // n
                        if module in probed_modules:
                            continue
                        probed_modules.add(module)
                        request = MulticastConnection(
                            source, (per_port[dest_port],)
                        )
                        if net.probe_cover(request) is None:
                            return request
                else:
                    request = MulticastConnection(
                        source,
                        tuple(per_port[p] for p in sorted(per_port)),
                    )
                    if net.probe_cover(request) is None:
                        return request
    return None


def is_blockable(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    state_budget: int = 100_000,
    unicast_only: bool = False,
    canonicalize: bool = True,
) -> BlockableResult:
    """Decide by exhaustive search whether any reachable state blocks.

    Args:
        n, r, m, k: topology under test (keep ``N k <= 8``!).
        construction, model, x: network configuration.
        state_budget: abort (result ``blockable=None``) after exploring
            this many distinct states.
        unicast_only: restrict both the adversary's connections and the
            probed requests to fanout 1 (the classical Clos setting).
        canonicalize: dedup states by canonical signature under
            middle-switch permutation (plus wavelength permutation for
            the MSW model) and use the monotone fast victim probe; the
            verdict is identical to ``canonicalize=False`` (the
            uncanonicalized reference search), but ``states_explored``
            counts symmetry classes instead of raw states and the
            witness may differ.

    Returns:
        The decision, with a witness when blockable.
    """
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x
    )
    wavelength_symmetry = canonicalize and model is MulticastModel.MSW
    seen: set[bytes] = set()
    explored = 0
    Route = tuple[tuple[int, tuple[int, ...]], ...]
    live: list[tuple[int, MulticastConnection, Route]] = []

    def blocked_request() -> MulticastConnection | None:
        if canonicalize:
            return _first_blocked_request(net, unicast_only=unicast_only)
        for request in _legal_requests(net, unicast_only=unicast_only):
            if net.probe_cover(request) is None:
                return request
        return None

    def dfs() -> (
        tuple[
            tuple[MulticastConnection, ...],
            tuple[Route, ...],
            MulticastConnection,
        ]
        | None
    ):
        nonlocal explored
        if canonicalize:
            signature = net.canonical_signature(
                wavelength_symmetry=wavelength_symmetry
            )
        else:
            signature = _signature(net)
        if signature in seen:
            return None
        seen.add(signature)
        explored += 1
        _obs.inc("exhaustive.states")
        if explored > state_budget:
            raise _BudgetExceeded
        victim = blocked_request()
        if victim is not None:
            return (
                tuple(connection for _, connection, _ in live),
                tuple(route for _, _, route in live),
                victim,
            )
        # Expand small-fanout requests first: blocking states are built
        # from unicast "blockers", so this ordering finds witnesses far
        # sooner (the full space is still explored when none exists).
        expansion = _legal_requests(net, unicast_only=unicast_only)
        for request in sorted(expansion, key=lambda c: c.fanout):
            for cover in _all_covers(net, request):
                cid = net.connect(request, force_middles=cover)
                route: Route = tuple(
                    sorted((j, tuple(ps)) for j, ps in cover.items())
                )
                live.append((cid, request, route))
                result = dfs()
                live.pop()
                net.disconnect(cid)
                if result is not None:
                    return result
        return None

    try:
        witness = dfs()
    except _BudgetExceeded:
        return BlockableResult(
            n=n, r=r, m=m, k=k,
            construction=construction, model=model, x=x,
            blockable=None, states_explored=explored,
        )
    if witness is None:
        return BlockableResult(
            n=n, r=r, m=m, k=k,
            construction=construction, model=model, x=x,
            blockable=False, states_explored=explored,
        )
    state, routes, request = witness
    return BlockableResult(
        n=n, r=r, m=m, k=k,
        construction=construction, model=model, x=x,
        blockable=True, states_explored=explored,
        witness_state=state, witness_request=request,
        witness_routes=routes,
    )


class _BudgetExceeded(Exception):
    pass


def _exact_minimal_m_impl(
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
    canonicalize: bool = True,
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
) -> ExactMinimal:
    """Scan ``m`` upward for the true nonblocking threshold.

    Returns the smallest ``m`` whose reachable-state space contains no
    blocking state (``m_exact``), along with the per-``m`` results.  If
    any check hits the budget before a nonblocking ``m`` is found, the
    scan is inconclusive and ``m_exact`` is None.

    With ``jobs > 1`` (or ``"auto"``) every ``m`` candidate is
    model-checked as an independent work unit; the merge walks the
    candidates in ascending order and truncates exactly where the
    serial scan would have stopped, so the result is bit-identical to
    ``jobs=1`` (the parallel scan trades some redundant work above the
    threshold for wall time).

    With a :class:`repro.perf.cache.ResultCache`, each ``m`` cell is
    looked up before being model-checked and stored afterwards, making
    repeated and interrupted scans incremental.
    """
    if m_max is None:
        from repro.core.corrected import min_middle_switches_corrected

        m_max = min_middle_switches_corrected(n, r, k, construction, model, x=x)
    candidates = list(range(1, m_max + 1))
    cell_kwargs = dict(
        construction=construction, model=model, x=x,
        state_budget=state_budget, unicast_only=unicast_only,
        canonicalize=canonicalize,
    )

    def cell_key(m: int) -> str | None:
        if cache is None:
            return None
        return cache.key(
            "is_blockable", dict(n=n, r=r, m=m, k=k, **cell_kwargs)
        )

    if jobs == 1:
        per_m = []
        for m in candidates:
            key = cell_key(m)
            result = cache.get(key) if key is not None else None
            if result is None:
                result = is_blockable(n, r, m, k, **cell_kwargs)
                if key is not None:
                    cache.put(key, result)
            per_m.append(result)
            if result.blockable is not True:
                break
    else:
        sweeper = ParallelSweeper(jobs, chunk_size=1)
        try:
            keyed = sweeper.run_keyed(
                (
                    WorkUnit(
                        unit_id=m,
                        fn=is_blockable,
                        args=(n, r, m, k),
                        kwargs=cell_kwargs,
                        cache_key=cell_key(m),
                    )
                    for m in candidates
                ),
                cache=cache,
            )
        finally:
            sweeper.close()
        per_m = []
        for m in candidates:
            result = keyed[m].value
            per_m.append(result)
            if result.blockable is not True:
                break
    results = []
    for result in per_m:
        results.append(result)
        if result.blockable is False:
            return ExactMinimal(
                n=n, r=r, k=k,
                construction=construction, model=model, x=x,
                m_exact=result.m, per_m=tuple(results),
            )
        if result.blockable is None:
            break
    return ExactMinimal(
        n=n, r=r, k=k,
        construction=construction, model=model, x=x,
        m_exact=None, per_m=tuple(results),
    )

