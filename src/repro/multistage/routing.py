"""The x-middle-switch routing strategy -- Lemma 4 made executable.

The paper (following [14]) routes each multicast connection through at
most ``x`` middle switches.  Lemma 4 (and its multiset generalization)
says a request with destination set ``D`` can be realized through
middle switches ``j_1..j_x`` iff the intersection of their destination
(multi)sets, restricted to ``D``, is null -- equivalently, iff every
``p`` in ``D`` is *coverable* by at least one chosen middle switch.

So routing is a set-cover problem with a cardinality cap.  We solve it
exactly:

1. **greedy first** -- pick the candidate covering the most uncovered
   destinations; this finds a cover quickly in the common case;
2. **exact fallback** -- depth-first search over candidate subsets of
   size <= ``x`` (with standard dominance pruning).  Only if the exact
   search fails is the request declared blocked, which is what makes
   the simulator a faithful test of the theorems: they promise a cover
   *exists*, not that greedy finds it.

Two interchangeable kernels implement the search:

* the **bitmask kernel** (:func:`find_cover_bits`, the default) encodes
  destination sets as int bitmasks (``1 << p`` per output module) and
  runs set algebra as single-word ``&``/``|``/``bit_count`` operations;
* the **frozenset reference** (:func:`find_cover_reference`) is the
  original pure-``frozenset`` implementation, kept verbatim as the
  correctness oracle for the kernel-equivalence tests and the
  ``bench_perf`` baseline.

Both kernels produce *bit-identical* covers: candidate ordering, greedy
tie-breaking, DFS expansion order and the final destination->switch
assignment are defined identically.  :func:`set_routing_kernel` /
:func:`routing_kernel` switch the active kernel process-wide (used by
benchmarks; tests pin one explicitly).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager

from repro.engine.cover import (
    CoverSearch,
    find_cover_bits,
    iter_bits,
    mask_of,
)

__all__ = [
    "CoverSearch",
    "find_cover",
    "find_cover_bits",
    "find_cover_reference",
    "get_routing_kernel",
    "iter_bits",
    "mask_of",
    "routing_kernel",
    "set_routing_kernel",
]

#: the process-wide active kernel: ``"bitmask"`` or ``"reference"``.
#: It steers the serial routes (the network, the exhaustive checker,
#: the adversary) and tags cache keys; the Monte-Carlo estimators
#: always replay in lockstep through :mod:`repro.perf.batch`.
_ACTIVE_KERNEL = "bitmask"
_KERNELS = ("bitmask", "reference")


def get_routing_kernel() -> str:
    """Name of the active cover-search kernel."""
    return _ACTIVE_KERNEL


def set_routing_kernel(name: str) -> None:
    """Select the cover-search kernel (one of ``_KERNELS``)."""
    global _ACTIVE_KERNEL
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {_KERNELS}")
    _ACTIVE_KERNEL = name


@contextmanager
def routing_kernel(name: str) -> Iterator[None]:
    """Context manager pinning the cover-search kernel."""
    previous = _ACTIVE_KERNEL
    set_routing_kernel(name)
    try:
        yield
    finally:
        set_routing_kernel(previous)


# The bitmask kernel (mask_of, iter_bits, CoverSearch, find_cover_bits)
# lives in repro.engine.cover -- the engine is the layer below this one
# -- and is re-exported here unchanged for every existing caller.

# -- frozenset reference kernel ---------------------------------------------


def _greedy(
    destinations: frozenset,
    coverable: Mapping[int, frozenset],
    candidates: Sequence[int],
    max_switches: int,
) -> dict[int, list] | None:
    """Max-coverage greedy; ties broken by position in ``candidates``.

    The caller controls the candidate order, which is how the selection
    strategies (first-fit, least-loaded, packing, random) plug in
    without touching the correctness-critical search.
    """
    uncovered = set(destinations)
    chosen: dict[int, list] = {}
    while uncovered and len(chosen) < max_switches:
        best = None
        best_gain: frozenset = frozenset()
        for j in candidates:
            if j in chosen:
                continue
            gain = coverable[j] & uncovered
            if len(gain) > len(best_gain):
                best, best_gain = j, frozenset(gain)
        if best is None or not best_gain:
            return None
        chosen[best] = sorted(best_gain)
        uncovered -= best_gain
    return chosen if not uncovered else None


def _exact(
    destinations: frozenset,
    coverable: Mapping[int, frozenset],
    candidates: Sequence[int],
    max_switches: int,
    stats: CoverSearch,
) -> dict[int, list] | None:
    # Keep only useful candidates, largest coverage first (helps pruning).
    useful = [j for j in candidates if coverable[j] & destinations]
    useful.sort(key=lambda j: -len(coverable[j] & destinations))

    def recurse(
        uncovered: frozenset, start: int, picked: list[int]
    ) -> list[int] | None:
        stats.exact_nodes += 1
        if not uncovered:
            return picked
        if len(picked) == max_switches:
            return None
        remaining_slots = max_switches - len(picked)
        # Bound: even taking the largest remaining coverages can't finish.
        best_possible = sum(
            sorted(
                (len(coverable[j] & uncovered) for j in useful[start:]),
                reverse=True,
            )[:remaining_slots]
        )
        if best_possible < len(uncovered):
            return None
        for index in range(start, len(useful)):
            j = useful[index]
            gain = coverable[j] & uncovered
            if not gain:
                continue
            result = recurse(uncovered - gain, index + 1, [*picked, j])
            if result is not None:
                return result
        return None

    picked = recurse(destinations, 0, [])
    if picked is None:
        return None
    # Assign each destination to the first picked switch that covers it.
    cover: dict[int, list] = {j: [] for j in picked}
    for p in sorted(destinations):
        for j in picked:
            if p in coverable[j]:
                cover[j].append(p)
                break
    return {j: ps for j, ps in cover.items() if ps}


def find_cover_reference(
    destinations: frozenset | set,
    coverable: Mapping[int, frozenset],
    max_switches: int,
    *,
    stats: CoverSearch | None = None,
    preference: Sequence[int] | None = None,
) -> dict[int, list] | None:
    """The original frozenset cover search (correctness oracle).

    Same contract as :func:`find_cover`; kept as an independent
    reference implementation that the bitmask kernel is tested against
    and that ``benchmarks/bench_perf.py`` uses as its baseline.
    """
    destinations = frozenset(destinations)
    if not destinations:
        return {}
    if max_switches < 1:
        raise ValueError(f"max_switches must be >= 1, got {max_switches}")
    stats = stats if stats is not None else CoverSearch()
    candidates = sorted(coverable)
    if preference is not None:
        in_preference = [j for j in preference if j in coverable]
        rest = [j for j in candidates if j not in set(in_preference)]
        candidates = in_preference + rest
    greedy = _greedy(destinations, coverable, candidates, max_switches)
    if greedy is not None:
        stats.greedy_hit = True
        stats.cover = greedy
        return greedy
    exact = _exact(destinations, coverable, sorted(coverable), max_switches, stats)
    stats.cover = exact
    return exact


# -- public entry point ------------------------------------------------------


def find_cover(
    destinations: frozenset | set,
    coverable: Mapping[int, frozenset],
    max_switches: int,
    *,
    stats: CoverSearch | None = None,
    preference: Sequence[int] | None = None,
) -> dict[int, list] | None:
    """Find <= ``max_switches`` middle switches covering ``destinations``.

    Args:
        destinations: output modules the request must reach (any sortable
            hashable labels).
        coverable: for each *available* middle switch, the set of output
            modules reachable through it right now (``D``-restricted or
            not -- extra elements are ignored).
        max_switches: the routing parameter ``x``.
        stats: optional search-statistics accumulator.
        preference: candidate order used for greedy tie-breaking (the
            selection strategy); defaults to ascending index.  Middles
            missing from ``preference`` are appended in index order; the
            exact fallback ignores preference (correctness first).

    Returns:
        ``{middle_switch: [assigned destinations]}`` or None if no cover
        of size <= ``max_switches`` exists (the request is blocked).

    Dispatches to the active kernel (bitmask by default); both kernels
    return bit-identical covers.
    """
    if _ACTIVE_KERNEL == "reference":
        return find_cover_reference(
            destinations,
            coverable,
            max_switches,
            stats=stats,
            preference=preference,
        )
    destinations = frozenset(destinations)
    if not destinations:
        return {}
    # Map labels to bits in sorted order, so ascending-bit iteration in
    # the kernel equals sorted-label iteration in the reference.
    labels = sorted(destinations)
    index = {label: i for i, label in enumerate(labels)}
    dest_mask = (1 << len(labels)) - 1
    coverable_bits = {
        j: mask_of(index[p] for p in reach if p in index)
        for j, reach in coverable.items()
    }
    stats = stats if stats is not None else CoverSearch()
    cover_bits = find_cover_bits(
        dest_mask,
        coverable_bits,
        max_switches,
        stats=stats,
        preference=preference,
    )
    if cover_bits is None:
        stats.cover = None
        return None
    cover = {
        j: [labels[i] for i in iter_bits(bits)] for j, bits in cover_bits.items()
    }
    stats.cover = cover
    return cover
