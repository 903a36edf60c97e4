"""Word-boundary suite: multi-word planes at and across 62 bits.

The plane layout switches from one int64 word per mask to ``W =
ceil(bits / 62)`` words exactly past 62, so this file pins the
backends to each other *at* the boundary (61, 62), just across it (63,
64) and well past it (100):

* three-way agreement -- the python per-event replay and the fused
  kernel replay the same compiled stream and must agree on counts,
  ``explain_block`` cause dicts *and* the end-state occupancy bitplanes
  (extracted backend-agnostically as Python ints); the serial
  :class:`~repro.multistage.network.ThreeStageNetwork` is the third
  leg for counts and causes;
* high-bit round-trips -- covers committed on the python backend at
  middle/module/wavelength indices on both sides of the word seam,
  asserting the views after every allocate and fresh-state planes
  after the frees;
* ``W == 1`` byte-identity -- the fused backend's single-word arrays
  keep the single-word layout bit for bit and *byte for byte* (same
  shapes, same dtype, no trailing word axis) for a golden replay.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.models import Construction, MulticastModel
from repro.engine.backends import make_state
from repro.engine.fused import FUSED_ENV, FusedState
from repro.engine.geometry import FabricGeometry
from repro.engine.planes import WORD_BITS
from repro.core.multistage import valid_x_range
from repro.perf.batch import _replay, compile_stream
from tests.engine.canonical import canonical_planes
from tests.perf.test_batch import serial_cell_with_causes

BOUNDARY = (61, 62, 63, 64, 100)
BACKENDS = ("python", "numba")
STEPS = 50


@contextmanager
def fused_interpreted():
    """Force the fused backend's interpreted mode for a block.

    Plain ``os.environ`` juggling instead of monkeypatch because
    hypothesis forbids function-scoped fixtures under ``@given``.
    """
    previous = os.environ.get(FUSED_ENV)
    os.environ[FUSED_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[FUSED_ENV]
        else:
            os.environ[FUSED_ENV] = previous


def replay_all_backends(n, r, k, x, m_values, seed, construction, model):
    """One stream through every backend: counts, causes, end planes."""
    ops = compile_stream(model, n, r, k, STEPS, seed, None, False, None)
    geos = tuple(
        FabricGeometry(
            n=n, r=r, k=k, m=m, construction=construction, model=model, x=x
        )
        for m in m_values
    )
    results = {}
    with fused_interpreted():
        for backend in BACKENDS:
            state = make_state(geos, backend)
            attempts, replications = _replay(ops, state, True, True)
            results[backend] = (
                attempts,
                [
                    (
                        rep.blocked,
                        rep.releases,
                        rep.kind_counts,
                        [repr(cause) for cause in rep.causes],
                    )
                    for rep in replications
                ],
                canonical_planes(state),
            )
    return results


class TestBoundaryAgreement:
    """python/fused/serial three-way identity across the word seam."""

    @pytest.mark.parametrize("wide", BOUNDARY)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_three_way_agreement(self, wide, data):
        family = data.draw(st.sampled_from(("m", "r", "k")), label="family")
        n = data.draw(st.integers(2, 3), label="n")
        r = wide if family == "r" else data.draw(st.integers(2, 4), label="r")
        k = wide if family == "k" else data.draw(st.integers(1, 3), label="k")
        m = wide if family == "m" else data.draw(st.integers(1, 5), label="m")
        x = data.draw(
            st.sampled_from(list(valid_x_range(n, r))[:3]), label="x"
        )
        seed = data.draw(st.integers(0, 10_000), label="seed")
        construction = data.draw(
            st.sampled_from(list(Construction)), label="construction"
        )
        model = data.draw(st.sampled_from(list(MulticastModel)), label="model")

        results = replay_all_backends(
            n, r, k, x, [m], seed, construction, model
        )
        assert results["python"] == results["numba"]
        attempts, [(blocked, _, _, causes)], _ = results["python"]
        serial = serial_cell_with_causes(
            n, r, m, k, construction, model, x, STEPS, seed
        )
        assert (attempts, blocked, causes) == (
            serial[0], serial[1], [repr(cause) for cause in serial[2]]
        )

    def test_mixed_batch_straddles_the_seam(self):
        """One lockstep batch whose m column spans every boundary value."""
        n, r, k, x, seed = 3, 63, 2, 2, 7
        for construction in Construction:
            for model in MulticastModel:
                results = replay_all_backends(
                    n, r, k, x, list(BOUNDARY), seed, construction, model
                )
                assert results["python"] == results["numba"]


class TestHighBitRoundTrip:
    """Per-event covers on both sides of the word seam, then undone.

    The python backend is the one per-event state; its planes are
    unbounded ints, so commits at bit 61/62/63 and beyond must land in
    exactly the bits the branch tuple names and vanish on release.
    """

    MIDDLES = (0, WORD_BITS - 1, WORD_BITS, WORD_BITS + 1, 99)
    DEST_BITS = (0, WORD_BITS - 1, WORD_BITS, 69)
    SW = 62

    def state(self, construction, model):
        geo = FabricGeometry(
            n=3, r=70, k=63, m=100,
            construction=construction, model=model, x=2,
        )
        return make_state((geo,), "python")

    def expected_branches(self, construction, model, j, dest):
        if construction is Construction.MSW_DOMINANT:
            return ((j, dest),)
        # First-fit picks wavelength 0 on every fresh fiber unless the
        # endpoint model pins delivery to the source wavelength.
        out_w = self.SW if model is MulticastModel.MSW else 0
        return ((j, 0, tuple((p, out_w) for p in self.DEST_BITS)),)

    @pytest.mark.parametrize("construction", list(Construction))
    @pytest.mark.parametrize("model", list(MulticastModel))
    def test_allocate_free_identical_planes(self, construction, model):
        dest = sum(1 << p for p in self.DEST_BITS)
        state = self.state(construction, model)
        fresh = canonical_planes(self.state(construction, model))
        # Which planes a commit shows up in: the MSW-dominant busy
        # planes, or the delivery-wavelength busy plane when the model
        # pins it; MAW-dominant full-fiber planes stay clear (k = 63).
        shows_busy = construction is Construction.MSW_DOMINANT
        shows_blocker = shows_busy or model is MulticastModel.MSW
        branches = []
        used = 0
        for j in self.MIDDLES:
            branch = state.allocate(0, 1, self.SW, {j: dest})
            assert branch == self.expected_branches(
                construction, model, j, dest
            )
            branches.append(branch)
            used |= 1 << j
            blocked, blockers = state.setup_views(1, self.SW)
            assert blocked[0] == (used if shows_busy else 0)
            assert blockers[0][j] == (dest if shows_blocker else 0)
        assert canonical_planes(state) != fresh
        for done in reversed(branches):
            state.free(0, 1, self.SW, done)
        planes = canonical_planes(state)
        assert planes == fresh

        def all_zero(node):
            if isinstance(node, list):
                return all(all_zero(item) for item in node)
            return node == 0

        for per_b in planes:
            for plane in per_b.values():
                assert all_zero(plane)


class TestSingleWordLayout:
    """``W == 1`` fused arrays keep the single-word layout, byte for byte."""

    GOLDEN_SEED = 2024

    def test_arrays_byte_identical_to_single_word_layout(self):
        n, r, k, x = 3, 3, 2, 1
        m_values = [1, 2, 3, 5, 8]
        m_max = max(m_values)
        batch = len(m_values)
        for construction in Construction:
            for model in MulticastModel:
                ops = compile_stream(
                    model, n, r, k, 400, self.GOLDEN_SEED, None, False, None
                )
                geos = tuple(
                    FabricGeometry(
                        n=n, r=r, k=k, m=m,
                        construction=construction, model=model, x=x,
                    )
                    for m in m_values
                )
                with fused_interpreted():
                    state = make_state(geos, "numba")
                    _replay(ops, state, False, False)
                reference = make_state(geos, "python")
                _replay(ops, reference, False, False)
                assert isinstance(state, FusedState)
                assert not state.plane_layout.multiword

                def expect(shape, fill):
                    arr = np.zeros(shape, dtype=np.int64)
                    fill(arr)
                    return arr

                def check(actual, expected):
                    assert actual.shape == expected.shape
                    assert actual.dtype == np.int64
                    assert actual.tobytes() == expected.tobytes()

                def fill_out_busy(arr):
                    for b in range(batch):
                        for j in range(m_values[b]):
                            for w in range(k):
                                arr[b, j, w] = reference._out_busy[w][b][j]

                check(
                    state._out_busy, expect((batch, m_max, k), fill_out_busy)
                )
                if state.msw_dominant:

                    def fill_in_busy(arr):
                        for b in range(batch):
                            for g in range(r):
                                for w in range(k):
                                    arr[b, g, w] = reference._in_busy[g][w][b]

                    check(
                        state._in_busy, expect((batch, r, k), fill_in_busy)
                    )
                    continue

                def fill_in_wave(arr):
                    for b in range(batch):
                        for g in range(r):
                            for j in range(m_values[b]):
                                arr[b, g, j] = reference._in_wave[g][b][j]

                def fill_in_full(arr):
                    for b in range(batch):
                        for g in range(r):
                            arr[b, g] = reference._in_full[g][b]

                def fill_out_wave(arr):
                    for b in range(batch):
                        for j in range(m_values[b]):
                            for p in range(r):
                                arr[b, j, p] = reference._out_wave[b][j][p]

                def fill_out_full(arr):
                    for b in range(batch):
                        for j in range(m_values[b]):
                            arr[b, j] = reference._out_full[b][j]

                check(state._in_wave, expect((batch, r, m_max), fill_in_wave))
                check(state._in_full, expect((batch, r), fill_in_full))
                check(
                    state._out_wave, expect((batch, m_max, r), fill_out_wave)
                )
                check(state._out_full, expect((batch, m_max), fill_out_full))
