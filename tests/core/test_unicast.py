"""Tests for the unicast (classical Clos) specialization."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.models import Construction, MulticastModel
from repro.core.unicast import clos_unicast_minimum, is_nonblocking_unicast
from repro.multistage.network import ThreeStageNetwork
from repro.switching.generators import dynamic_traffic


class TestClosFormula:
    @given(st.integers(1, 50))
    def test_classical_2n_minus_1(self, n):
        """k=1: Clos (1953)."""
        assert clos_unicast_minimum(n) == 2 * n - 1

    @given(st.integers(1, 20), st.integers(1, 8))
    def test_msw_model_k_independent(self, n, k):
        assert clos_unicast_minimum(n, k) == 2 * n - 1

    @given(st.integers(1, 20), st.integers(2, 8))
    def test_gap_reaches_unicast(self, n, k):
        """MSW-dominant + MAW model: output side pays nk-1 even for unicast."""
        assert clos_unicast_minimum(
            n, k, Construction.MSW_DOMINANT, MulticastModel.MAW
        ) == (n - 1) + (n * k - 1) + 1

    @given(st.integers(1, 20), st.integers(1, 8))
    def test_maw_dominant_always_classical(self, n, k):
        for model in MulticastModel:
            assert clos_unicast_minimum(
                n, k, Construction.MAW_DOMINANT, model
            ) == 2 * n - 1

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            clos_unicast_minimum(0)

    def test_predicate(self):
        assert is_nonblocking_unicast(3, 2)
        assert not is_nonblocking_unicast(2, 2)

    @given(st.integers(2, 10), st.integers(1, 4))
    def test_never_exceeds_multicast_bound(self, n, k):
        """Unicast is a special case: its threshold is <= the multicast one."""
        from repro.core.corrected import min_middle_switches_corrected

        for model in MulticastModel:
            unicast = clos_unicast_minimum(
                n, k, Construction.MSW_DOMINANT, model
            )
            multicast = min_middle_switches_corrected(
                n, max(n + 1, 2), k, Construction.MSW_DOMINANT, model, x=1
            )
            assert unicast <= multicast


class TestAgainstModelChecker:
    @pytest.mark.parametrize("n,r", [(2, 2), (2, 3)])
    def test_exact_unicast_threshold_matches_clos(self, n, r):
        """The model checker independently recovers 2n-1."""
        from repro import api

        result = api.exact_m(
            n, r, 1, x=1, m_max=6, state_budget=300_000, unicast_only=True
        )
        assert result.m_exact == clos_unicast_minimum(n)

    def test_blockable_at_2n_minus_2(self):
        from repro.multistage.exhaustive import is_blockable

        result = is_blockable(2, 2, 2, 1, x=1, unicast_only=True)
        assert result.blockable is True
        result.replay()


class TestAgainstSimulator:
    def test_unicast_fuzz_at_clos_bound(self):
        n, r, k = 3, 3, 2
        m = clos_unicast_minimum(n, k)
        net = ThreeStageNetwork(n, r, m, k, x=1)
        live = {}
        for event in dynamic_traffic(
            MulticastModel.MSW, n * r, k, steps=300, seed=5, max_fanout=1
        ):
            if event.kind == "setup":
                live[event.connection_id] = net.connect(event.connection)
            else:
                net.disconnect(live.pop(event.connection_id))
        assert net.blocks == 0
