"""Nonblocking conditions and cost of three-stage WDM networks (Section 3).

A three-stage network ``v(n, r, m, k)`` has ``r`` input modules of size
``n x m``, ``m`` middle modules of size ``r x r`` and ``r`` output
modules of size ``m x n``, with ``N = n r`` and one ``k``-wavelength
fiber between every pair of modules in adjacent stages (Fig. 8).

Routing follows the strategy of [14] (made executable in
:mod:`repro.multistage.routing`): every multicast connection may use at
most ``x`` middle switches, where ``x`` is a free design parameter.
The paper's sufficient nonblocking conditions are:

* **Theorem 1 (MSW-dominant construction)**::

      m > (n - 1) * (x + r**(1/x))        for some 1 <= x <= min(n-1, r)

* **Theorem 2 (MAW-dominant construction)**::

      m > floor((n*k - 1) * x / k) + (n - 1) * r**(1/x)

  (At ``k = 1`` Theorem 2 reduces exactly to Theorem 1, as the paper's
  narrative requires.)

The supplied paper text OCR-mangles both right-hand sides; DESIGN.md
records the reconstruction.  Both conditions are implemented as *exact
integer predicates*: ``m - U > (n-1) r^{1/x}`` is evaluated as
``(m - U)**x > r * (n-1)**x``, so no floating-point root ever enters a
nonblocking decision.

This module also computes the exact crosspoint/converter cost of any
three-stage configuration (Section 3.4 / Table 2) and searches the
``(n, r, x)`` design space for the cheapest nonblocking network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.combinatorics.integers import min_base_exceeding, power_exceeds
from repro.core.models import Construction, MulticastModel

__all__ = [
    "MultistageDesign",
    "NonblockingBound",
    "check_middle_count",
    "is_nonblocking",
    "is_nonblocking_maw_dominant",
    "is_nonblocking_msw_dominant",
    "max_available_needed",
    "min_middle_switches",
    "min_middle_switches_maw_dominant",
    "min_middle_switches_msw_dominant",
    "module_converters",
    "module_crosspoints",
    "multistage_cost",
    "optimal_design",
    "unavailable_middle_bound",
    "valid_x_range",
    "yang_masson_m",
    "yang_masson_x",
]


def _check_topology(n: int, r: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"module input size n must be >= 1, got {n}")
    if r < 1:
        raise ValueError(f"module count r must be >= 1, got {r}")
    if k < 1:
        raise ValueError(f"wavelength count k must be >= 1, got {k}")


def check_middle_count(m: int) -> None:
    """Reject a middle-stage count below 1 with the one shared message.

    The serial simulator's topology, the engine geometry and the batch
    engine all validate ``m`` through here, so every kernel words a bad
    ``m`` the same way.
    """
    if m < 1:
        raise ValueError(f"middle count m must be >= 1, got {m}")


def valid_x_range(n: int, r: int) -> range:
    """Legal values of the routing parameter ``x``: ``1..min(n-1, r)``.

    The paper's range is ``1 <= x <= min(n-1, r)``; for the degenerate
    ``n = 1`` case (no competing inputs, any ``m >= 1`` works) we keep
    ``x = 1`` available so downstream code needs no special-casing.
    """
    upper = min(n - 1, r)
    return range(1, max(1, upper) + 1)


# ---------------------------------------------------------------------
# Lemma 5 / worst-case counting pieces
# ---------------------------------------------------------------------


def max_available_needed(n: int, r: int, x: int) -> int:
    """Lemma 5's bound ``(n-1) * r**(1/x)``, rounded up to the next integer.

    If strictly more than this many middle switches are *available* to a
    request, some ``x`` of them can always realize it (Corollary 1).
    The returned value is the smallest integer ``B`` such that
    ``B > (n-1) r^{1/x}`` implies the guarantee, i.e. the exact integer
    ceiling of the bound: ``B = min{ s : s**x > r (n-1)**x } - 1``... we
    return the bound itself as the smallest safe integer count:
    ``available > returned value`` guarantees routability.
    """
    _check_topology(n, r, 1)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if n == 1:
        return 0
    # smallest integer s with s**x > r*(n-1)**x  ==>  s - 1 is the largest
    # integer <= (n-1) r^{1/x}; "more than (n-1) r^{1/x} available" is
    # therefore "available >= s", i.e. "available > s - 1".
    return min_base_exceeding(r * (n - 1) ** x, x) - 1


def unavailable_middle_bound(
    n: int, k: int, x: int, construction: Construction
) -> int:
    """Worst-case number of middle switches made unavailable by other inputs.

    MSW-dominant (Theorem 1): only the ``n - 1`` other inputs carrying
    the *same wavelength* interfere, each using up to ``x`` middles:
    ``(n-1) x``.

    MAW-dominant (Theorem 2): all ``n k - 1`` other input wavelengths
    interfere, but a middle switch only becomes unavailable when all
    ``k`` wavelengths of its input link are busy: ``floor((n k - 1) x / k)``.
    """
    if construction is Construction.MSW_DOMINANT:
        return (n - 1) * x
    return ((n * k - 1) * x) // k


# ---------------------------------------------------------------------
# Theorems 1 and 2 -- exact predicates
# ---------------------------------------------------------------------


def _is_nonblocking_with_x(
    m: int, n: int, r: int, k: int, x: int, construction: Construction
) -> bool:
    """Exact check of ``m > unavailable + (n-1) r^{1/x}`` for one ``x``."""
    headroom = m - unavailable_middle_bound(n, k, x, construction)
    if headroom <= 0:
        return False
    if n == 1:
        return True  # bound reduces to m > 0
    return power_exceeds(headroom, x, r * (n - 1) ** x)


def is_nonblocking_msw_dominant(
    m: int, n: int, r: int, k: int = 1, x: int | None = None
) -> bool:
    """Theorem 1: sufficiency of ``m`` for the MSW-dominant construction.

    Args:
        m: number of middle-stage switches.
        n: inputs per input module.
        r: number of input (and output) modules.
        k: wavelengths per fiber (the bound is independent of ``k`` for
            this construction, kept for interface symmetry).
        x: routing parameter; if None, the condition is checked for every
            legal ``x`` and the best is taken (the paper's ``min`` over x).
    """
    _check_topology(n, r, k)
    xs = [x] if x is not None else list(valid_x_range(n, r))
    return any(
        _is_nonblocking_with_x(m, n, r, k, xi, Construction.MSW_DOMINANT)
        for xi in xs
    )


def is_nonblocking_maw_dominant(
    m: int, n: int, r: int, k: int, x: int | None = None
) -> bool:
    """Theorem 2: sufficiency of ``m`` for the MAW-dominant construction."""
    _check_topology(n, r, k)
    xs = [x] if x is not None else list(valid_x_range(n, r))
    return any(
        _is_nonblocking_with_x(m, n, r, k, xi, Construction.MAW_DOMINANT)
        for xi in xs
    )


def is_nonblocking(
    m: int,
    n: int,
    r: int,
    k: int,
    construction: Construction,
    x: int | None = None,
) -> bool:
    """Dispatch to the appropriate theorem for ``construction``."""
    if construction is Construction.MSW_DOMINANT:
        return is_nonblocking_msw_dominant(m, n, r, k, x)
    return is_nonblocking_maw_dominant(m, n, r, k, x)


# ---------------------------------------------------------------------
# Minimal middle-stage sizes
# ---------------------------------------------------------------------


def _min_m_with_x(n: int, r: int, k: int, x: int, construction: Construction) -> int:
    """Smallest ``m`` passing the theorem's bound for a fixed ``x``."""
    unavailable = unavailable_middle_bound(n, k, x, construction)
    if n == 1:
        return unavailable + 1
    return unavailable + min_base_exceeding(r * (n - 1) ** x, x)


def min_middle_switches_msw_dominant(
    n: int, r: int, k: int = 1, x: int | None = None
) -> int:
    """Smallest ``m`` satisfying Theorem 1 (optionally for a fixed ``x``)."""
    _check_topology(n, r, k)
    xs = [x] if x is not None else list(valid_x_range(n, r))
    return min(_min_m_with_x(n, r, k, xi, Construction.MSW_DOMINANT) for xi in xs)


def min_middle_switches_maw_dominant(
    n: int, r: int, k: int, x: int | None = None
) -> int:
    """Smallest ``m`` satisfying Theorem 2 (optionally for a fixed ``x``)."""
    _check_topology(n, r, k)
    xs = [x] if x is not None else list(valid_x_range(n, r))
    return min(_min_m_with_x(n, r, k, xi, Construction.MAW_DOMINANT) for xi in xs)


def min_middle_switches(
    n: int,
    r: int,
    k: int,
    construction: Construction = Construction.MSW_DOMINANT,
    x: int | None = None,
) -> int:
    """Smallest nonblocking ``m`` for either construction."""
    if construction is Construction.MSW_DOMINANT:
        return min_middle_switches_msw_dominant(n, r, k, x)
    return min_middle_switches_maw_dominant(n, r, k, x)


@dataclass(frozen=True)
class NonblockingBound:
    """The full ``m(x)`` profile of a theorem for one topology."""

    n: int
    r: int
    k: int
    construction: Construction
    per_x: tuple[tuple[int, int], ...]  # (x, minimal m)
    best_x: int
    m_min: int

    @classmethod
    def compute(
        cls, n: int, r: int, k: int, construction: Construction
    ) -> NonblockingBound:
        """Evaluate the theorem for every legal ``x``."""
        _check_topology(n, r, k)
        profile = [
            (x, _min_m_with_x(n, r, k, x, construction))
            for x in valid_x_range(n, r)
        ]
        best_x, m_min = min(profile, key=lambda pair: (pair[1], pair[0]))
        return cls(
            n=n,
            r=r,
            k=k,
            construction=construction,
            per_x=tuple(profile),
            best_x=best_x,
            m_min=m_min,
        )


# ---------------------------------------------------------------------
# The closed-form heuristic of Section 3.4
# ---------------------------------------------------------------------


def yang_masson_x(r: int) -> float:
    """The paper's analytic choice ``x = 2 log r / log log r``.

    Only meaningful for ``r > e`` (so that ``log log r > 0``); we require
    ``r >= 16`` to keep the value in the regime where the closed form is
    a sensible approximation, matching the original analysis in [14].
    """
    if r < 16:
        raise ValueError(
            f"the closed-form x is only meaningful for r >= 16, got {r}"
        )
    return 2.0 * math.log(r) / math.log(math.log(r))


def yang_masson_m(n: int, r: int) -> float:
    """The paper's closed-form sufficient size ``m ~ 3(n-1) log r / log log r``.

    The discrete optimum :func:`min_middle_switches_msw_dominant` is never
    larger than (a ceiling of) this; the benchmark
    ``benchmarks/bench_bounds.py`` regenerates the comparison.
    """
    if r < 16:
        raise ValueError(
            f"the closed-form m is only meaningful for r >= 16, got {r}"
        )
    return 3.0 * (n - 1) * math.log(r) / math.log(math.log(r))


# ---------------------------------------------------------------------
# Section 3.4 -- exact cost of a three-stage configuration
# ---------------------------------------------------------------------


def module_crosspoints(model: MulticastModel, inputs: int, outputs: int, k: int) -> int:
    """Crosspoints of one ``inputs x outputs`` ``k``-wavelength module.

    The crossbar analysis of Section 2.3.1 generalizes from ``N x N`` to
    rectangular modules: MSW needs ``k`` parallel space planes
    (``k * inputs * outputs``), MSDW/MAW need full wavelength reach
    (``k**2 * inputs * outputs``).
    """
    base = inputs * outputs
    if model is MulticastModel.MSW:
        return k * base
    return k**2 * base


def module_converters(model: MulticastModel, inputs: int, outputs: int, k: int) -> int:
    """Wavelength converters of one rectangular module.

    MSDW converts once per *input* wavelength (``inputs * k``); MAW once
    per *output* wavelength (``outputs * k``); MSW none.
    """
    if model is MulticastModel.MSW:
        return 0
    if model is MulticastModel.MSDW:
        return inputs * k
    return outputs * k


@dataclass(frozen=True)
class StageCost:
    """Cost contribution of one stage of a three-stage network."""

    modules: int
    model: MulticastModel
    crosspoints: int
    converters: int


@dataclass(frozen=True)
class MultistageCost:
    """Exact cost of a three-stage configuration, with per-stage breakdown."""

    n: int
    r: int
    m: int
    k: int
    construction: Construction
    output_model: MulticastModel
    input_stage: StageCost
    middle_stage: StageCost
    output_stage: StageCost

    @property
    def crosspoints(self) -> int:
        """Total crosspoints over the three stages."""
        return (
            self.input_stage.crosspoints
            + self.middle_stage.crosspoints
            + self.output_stage.crosspoints
        )

    @property
    def converters(self) -> int:
        """Total wavelength converters over the three stages."""
        return (
            self.input_stage.converters
            + self.middle_stage.converters
            + self.output_stage.converters
        )

    @property
    def n_ports(self) -> int:
        """Overall network size ``N = n r``."""
        return self.n * self.r


def multistage_cost(
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction = Construction.MSW_DOMINANT,
    output_model: MulticastModel = MulticastModel.MSW,
    *,
    msdw_internal_placement: bool = False,
) -> MultistageCost:
    """Exact crosspoint/converter cost of a ``v(n, r, m, k)`` network.

    With the MSW-dominant construction and ``output_model``:

    * MSW:  ``r k n m + m k r**2 + r k m n = k m r (2n + r)``, 0 converters;
    * MSDW: ``k m r ((k+1) n + r)``, ``r m k`` converters (placed on the
      ``m``-link side of each output module, as the paper assumes);
    * MAW:  ``k m r ((k+1) n + r)``, ``r n k = k N`` converters.

    Section 3.4 notes that MSDW's converter count can be reduced "by
    placing the wavelength converters in the middle of the m x n
    switching module", landing at the same ``r n k`` as MAW;
    ``msdw_internal_placement=True`` models that optimized placement.

    The MAW-dominant construction upgrades the first two stages to MAW
    modules (more crosspoints, plus their own converters), which is
    exactly why Section 3.4 concludes MSW-dominant is the better choice
    -- a conclusion the corrected bounds of :mod:`repro.core.corrected`
    qualify for MSDW/MAW-model networks.
    """
    _check_topology(n, r, k)
    if m < 1:
        raise ValueError(f"middle-stage size m must be >= 1, got {m}")
    inner = construction.inner_model
    input_stage = StageCost(
        modules=r,
        model=inner,
        crosspoints=r * module_crosspoints(inner, n, m, k),
        converters=r * module_converters(inner, n, m, k),
    )
    middle_stage = StageCost(
        modules=m,
        model=inner,
        crosspoints=m * module_crosspoints(inner, r, r, k),
        converters=m * module_converters(inner, r, r, k),
    )
    output_converters = r * module_converters(output_model, m, n, k)
    if output_model is MulticastModel.MSDW and msdw_internal_placement:
        output_converters = r * n * k  # mid-module placement, as for MAW
    output_stage = StageCost(
        modules=r,
        model=output_model,
        crosspoints=r * module_crosspoints(output_model, m, n, k),
        converters=output_converters,
    )
    return MultistageCost(
        n=n,
        r=r,
        m=m,
        k=k,
        construction=construction,
        output_model=output_model,
        input_stage=input_stage,
        middle_stage=middle_stage,
        output_stage=output_stage,
    )


# ---------------------------------------------------------------------
# Design-space search
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class MultistageDesign:
    """A fully specified nonblocking three-stage design."""

    n: int
    r: int
    m: int
    x: int
    k: int
    construction: Construction
    output_model: MulticastModel
    cost: MultistageCost = field(compare=False)

    @property
    def n_ports(self) -> int:
        """Overall network size ``N = n r``."""
        return self.n * self.r


def _divisor_pairs(n_ports: int) -> list[tuple[int, int]]:
    """All ``(n, r)`` with ``n * r == n_ports`` and ``n, r >= 2`` when possible."""
    pairs = []
    for n in range(1, n_ports + 1):
        if n_ports % n == 0:
            pairs.append((n, n_ports // n))
    return pairs


def optimal_design(
    n_ports: int,
    k: int,
    output_model: MulticastModel = MulticastModel.MSW,
    construction: Construction = Construction.MSW_DOMINANT,
    *,
    require_proper: bool = True,
    use_paper_bound: bool = False,
) -> MultistageDesign:
    """Cheapest nonblocking three-stage design for an ``N x N`` network.

    Sweeps every factorization ``N = n r`` and every legal routing
    parameter ``x``, computes the minimal ``m`` from the applicable
    bound and the exact cost from Section 3.4, and returns the design
    with the fewest crosspoints (ties broken by converters, then by
    smaller ``m``).

    By default the **corrected model-aware bound** of
    :mod:`repro.core.corrected` sizes the middle stage, so the returned
    design is actually nonblocking for the requested model (the paper's
    Theorem 1 is insufficient for MSDW/MAW models with ``k > 1`` -- see
    that module).  Pass ``use_paper_bound=True`` to reproduce the
    paper's Table 2 numbers as printed.

    Args:
        n_ports: overall network size ``N``.
        k: wavelengths per fiber.
        output_model: model of the output stage (= model of the network).
        construction: MSW-dominant or MAW-dominant.
        require_proper: if True, skip the degenerate factorizations
            ``n = 1`` and ``r = 1`` (which are not real three-stage
            networks) unless ``N`` is prime.
        use_paper_bound: size ``m`` with the paper's theorem as printed
            instead of the corrected bound.
    """
    if n_ports < 2:
        raise ValueError(f"need N >= 2 for a three-stage network, got {n_ports}")
    from repro.core.corrected import _min_m_with_x as _corrected_min_m_with_x

    pairs = _divisor_pairs(n_ports)
    proper = [(n, r) for n, r in pairs if n > 1 and r > 1]
    if require_proper and proper:
        pairs = proper

    best: MultistageDesign | None = None
    for n, r in pairs:
        for x in valid_x_range(n, r):
            if use_paper_bound:
                m = _min_m_with_x(n, r, k, x, construction)
            else:
                m = _corrected_min_m_with_x(
                    n, r, k, x, construction, output_model
                )
            cost = multistage_cost(n, r, m, k, construction, output_model)
            candidate = MultistageDesign(
                n=n,
                r=r,
                m=m,
                x=x,
                k=k,
                construction=construction,
                output_model=output_model,
                cost=cost,
            )
            if best is None or (
                (candidate.cost.crosspoints, candidate.cost.converters, candidate.m)
                < (best.cost.crosspoints, best.cost.converters, best.m)
            ):
                best = candidate
    assert best is not None  # pairs is never empty
    return best
