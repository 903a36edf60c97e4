"""Golden-value regression tests.

Exact numbers computed by this reproduction and cross-checked by hand
or by independent code paths, pinned so any future change that shifts
them is caught immediately.  (Shape-level properties live in the other
test modules; these are the literal values.)
"""

from __future__ import annotations

import pytest

from repro.core.capacity import any_multicast_capacity, full_multicast_capacity
from repro.core.corrected import min_middle_switches_corrected
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import (
    min_middle_switches_maw_dominant,
    min_middle_switches_msw_dominant,
    multistage_cost,
    optimal_design,
)
from repro.core.unicast import clos_unicast_minimum

MSW = MulticastModel.MSW
MSDW = MulticastModel.MSDW
MAW = MulticastModel.MAW


class TestCapacityGolden:
    """Table 1 capacities for the worked sizes."""

    @pytest.mark.parametrize(
        "model,n_ports,k,full,any_",
        [
            (MSW, 2, 2, 16, 81),
            (MSDW, 2, 2, 84, 325),
            (MAW, 2, 2, 144, 441),
            (MSW, 4, 2, 65536, 390625),
            (MSDW, 4, 2, 2217320, 9264041),
            (MAW, 4, 2, 9834496, 28398241),
            (MSW, 3, 2, 729, 4096),
            (MAW, 3, 2, 27000, 79507),
        ],
    )
    def test_values(self, model, n_ports, k, full, any_):
        assert full_multicast_capacity(model, n_ports, k) == full
        assert any_multicast_capacity(model, n_ports, k) == any_

    def test_maw_8_4_exact(self):
        """P(32, 4)^8 = (32*31*30*29)^8."""
        assert full_multicast_capacity(MAW, 8, 4) == (32 * 31 * 30 * 29) ** 8


class TestBoundGolden:
    """Theorem 1/2 and corrected minima on a fixed grid."""

    @pytest.mark.parametrize(
        "n,r,x,expected",
        [
            (2, 2, 1, 4),
            (2, 3, 1, 5),
            (3, 3, 1, 9),
            (3, 3, 2, 8),
            (8, 8, 2, 34),
            (8, 8, 3, 36),
            (16, 16, 3, 83),
        ],
    )
    def test_theorem1(self, n, r, x, expected):
        assert min_middle_switches_msw_dominant(n, r, 1, x=x) == expected

    @pytest.mark.parametrize(
        "n,r,k,x,expected",
        [
            (3, 3, 2, 1, 9),
            (3, 3, 2, 2, 9),
            (16, 16, 4, 3, 85),
        ],
    )
    def test_theorem2(self, n, r, k, x, expected):
        assert min_middle_switches_maw_dominant(n, r, k, x=x) == expected

    @pytest.mark.parametrize(
        "n,r,k,x,expected",
        [
            (2, 3, 2, 1, 11),
            (2, 3, 3, 1, 17),
            (3, 4, 2, 1, 23),
            (8, 16, 4, 2, 139),
        ],
    )
    def test_corrected_maw_model(self, n, r, k, x, expected):
        assert min_middle_switches_corrected(
            n, r, k, Construction.MSW_DOMINANT, MAW, x=x
        ) == expected

    @pytest.mark.parametrize("n,expected", [(2, 3), (3, 5), (8, 15)])
    def test_clos_unicast(self, n, expected):
        assert clos_unicast_minimum(n) == expected


class TestCostGolden:
    def test_stage_sums(self):
        cost = multistage_cost(16, 16, 83, 4)
        assert cost.crosspoints == 4 * 83 * 16 * (2 * 16 + 16) == 254976

    def test_msw_design_256_4(self):
        design = optimal_design(256, 4)
        assert (design.n, design.r, design.m, design.x) == (16, 16, 83, 3)
        assert design.cost.crosspoints == 254976

    def test_maw_design_1024_4_corrected(self):
        design = optimal_design(1024, 4, MAW)
        assert (design.n, design.r, design.m, design.x) == (16, 64, 217, 6)
        assert design.cost.crosspoints == 7999488
        assert design.cost.converters == 4096

    def test_maw_design_1024_4_paper(self):
        design = optimal_design(1024, 4, MAW, use_paper_bound=True)
        assert (design.n, design.r, design.m, design.x) == (16, 64, 103, 4)
        assert design.cost.crosspoints == 3796992


class TestScenarioGolden:
    def test_gap_example(self):
        from repro.multistage.adversary import demonstrate_theorem1_gap

        result = demonstrate_theorem1_gap(2, 3, 2, MAW)
        assert (result.m_paper, result.m_corrected) == (5, 11)

    def test_exact_threshold_smallest(self):
        from repro import api

        assert api.exact_m(2, 2, 1, x=1, m_max=5).m_exact == 3

    def test_recursive_65536(self):
        from repro.multistage.recursive import best_recursive_design

        design = best_recursive_design(65536, 2)
        assert design.stages == 5
        assert design.crosspoints == 693231616
