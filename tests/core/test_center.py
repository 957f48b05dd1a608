"""Tests for region-centre estimators."""

import numpy as np
import pytest

from repro.core import CenterMethod, region_centers_batch
from repro.geometry import HalfSpace, Point, Polygon, intersect_halfspaces


BOUND = Polygon.rectangle(-20, -20, 20, 20)
NO_FALLBACK = np.array([np.nan, np.nan])


def box_hs(cx, cy, half):
    return [
        HalfSpace(1, 0, cx + half),
        HalfSpace(-1, 0, -(cx - half)),
        HalfSpace(0, 1, cy + half),
        HalfSpace(0, -1, -(cy - half)),
    ]


def center(hs, method=CenterMethod.CENTROID, fallback=NO_FALLBACK):
    """Clip ``hs`` against the bound and centre it, as the localizer does."""
    [c] = region_centers_batch(
        [intersect_halfspaces(hs, BOUND)], [fallback], method
    )
    return c


class TestFeasiblePolygon:
    def test_square(self):
        region = intersect_halfspaces(box_hs(3, 4, 2), BOUND)
        assert region is not None
        assert region.area() == pytest.approx(16.0)

    def test_empty(self):
        hs = [HalfSpace(1, 0, 0), HalfSpace(-1, 0, -1)]
        assert intersect_halfspaces(hs, BOUND) is None

    def test_no_constraints_returns_bound(self):
        region = intersect_halfspaces([], BOUND)
        assert region is not None
        assert region.area() == pytest.approx(BOUND.area())


class TestRegionCenter:
    @pytest.mark.parametrize(
        "method",
        [CenterMethod.CENTROID, CenterMethod.CHEBYSHEV, CenterMethod.ANALYTIC],
    )
    def test_square_center_all_methods(self, method):
        c = center(box_hs(3, -2, 1.5), method)
        assert c.almost_equals(Point(3, -2), tol=1e-4)

    def test_methods_differ_on_asymmetric_region(self):
        """A thin right triangle separates the three centre notions."""
        hs = [
            HalfSpace(0, -1, 0),  # y >= 0
            HalfSpace(-1, 0, 0),  # x >= 0
            HalfSpace(1, 8, 8),  # x + 8y <= 8
        ]
        centroid = center(hs, CenterMethod.CENTROID)
        cheb = center(hs, CenterMethod.CHEBYSHEV)
        assert not centroid.almost_equals(cheb, tol=1e-3)

    def test_all_methods_stay_inside(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            cx, cy = rng.uniform(-5, 5, 2)
            hs = box_hs(cx, cy, float(rng.uniform(0.5, 3.0)))
            # Add a random cut through the box.
            theta = rng.uniform(0, 2 * np.pi)
            hs.append(
                HalfSpace(
                    float(np.cos(theta)),
                    float(np.sin(theta)),
                    float(np.cos(theta) * cx + np.sin(theta) * cy + 0.3),
                )
            )
            region = intersect_halfspaces(hs, BOUND)
            assert region is not None
            for method in CenterMethod:
                c = center(hs, method)
                assert region.contains(c) or any(
                    c.distance_to(v) < 1e-5 for v in region.vertices
                )

    def test_empty_region_with_fallback(self):
        hs = [HalfSpace(1, 0, 0), HalfSpace(-1, 0, -1)]
        for method in CenterMethod:
            c = center(hs, method, fallback=np.array([0.5, 0.5]))
            assert c == Point(0.5, 0.5)

    def test_lanes_are_independent(self):
        """A batch centres each lane as it would alone, in input order."""
        cases = [
            (box_hs(3, -2, 1.5), np.array([0.0, 0.0])),
            ([HalfSpace(1, 0, 0), HalfSpace(-1, 0, -1)], np.array([0.5, 0.5])),
            (box_hs(-4, 1, 0.5), np.array([0.0, 0.0])),
        ]
        regions = [intersect_halfspaces(hs, BOUND) for hs, _ in cases]
        fallbacks = [fb for _, fb in cases]
        for method in CenterMethod:
            batched = region_centers_batch(regions, fallbacks, method)
            alone = [center(hs, method, fb) for hs, fb in cases]
            assert batched == alone
