"""Tests for halfspaces, bisectors, and polygon clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    HalfSpace,
    Point,
    Polygon,
    bisector_halfspace,
    clip_polygon,
    halfspaces_to_matrix,
    intersect_halfspaces,
)
from repro.geometry.halfspace import _intersect_rows

coords = st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestHalfSpace:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace(0, 0, 1)

    def test_contains(self):
        hs = HalfSpace(1, 0, 5)  # x <= 5
        assert hs.contains(Point(4, 100))
        assert hs.contains(Point(5, 0))
        assert not hs.contains(Point(6, 0))

    def test_evaluate_sign(self):
        hs = HalfSpace(0, 1, 2)  # y <= 2
        assert hs.evaluate(Point(0, 0)) == pytest.approx(2.0)
        assert hs.evaluate(Point(0, 3)) == pytest.approx(-1.0)

    def test_normalized_preserves_set(self):
        hs = HalfSpace(3, 4, 10)
        n = hs.normalized()
        assert np.hypot(n.ax, n.ay) == pytest.approx(1.0)
        for p in (Point(0, 0), Point(2, 1), Point(10, 10)):
            assert hs.contains(p) == n.contains(p)

    def test_relaxed(self):
        hs = HalfSpace(1, 0, 0)  # x <= 0
        assert not hs.contains(Point(1, 0))
        assert hs.relaxed(2.0).contains(Point(1, 0))
        with pytest.raises(ValueError):
            hs.relaxed(-1)

    def test_boundary_distance(self):
        hs = HalfSpace(2, 0, 4)  # x <= 2
        assert hs.boundary_distance(Point(5, 7)) == pytest.approx(3.0)

    def test_as_row(self):
        assert HalfSpace(1, 2, 3).as_row() == (1, 2, 3)


class TestBisector:
    def test_matches_eq7(self):
        near, far = Point(1, 2), Point(5, 6)
        hs = bisector_halfspace(near, far)
        assert hs.ax == pytest.approx(2 * (far.x - near.x))
        assert hs.ay == pytest.approx(2 * (far.y - near.y))
        assert hs.b == pytest.approx(far.x**2 + far.y**2 - near.x**2 - near.y**2)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            bisector_halfspace(Point(1, 1), Point(1, 1))

    @given(points, points, points)
    @settings(max_examples=100)
    def test_halfspace_iff_closer(self, near, far, q):
        if near.distance_to(far) < 1e-6:
            return
        hs = bisector_halfspace(near, far)
        d_near, d_far = q.distance_to(near), q.distance_to(far)
        # The halfspace slack scales with the squared-distance gap; skip
        # cases within the contains() tolerance of the boundary.
        if abs(d_near**2 - d_far**2) < 1e-6:
            return
        assert hs.contains(q) == (d_near < d_far)

    @given(points, points)
    @settings(max_examples=60)
    def test_midpoint_on_boundary(self, near, far):
        if near.distance_to(far) < 1e-6:
            return
        hs = bisector_halfspace(near, far)
        mid = Point((near.x + far.x) / 2, (near.y + far.y) / 2)
        assert abs(hs.evaluate(mid)) < 1e-6 * max(1.0, abs(hs.b))


class TestClipping:
    def test_clip_square_in_half(self):
        sq = Polygon.rectangle(0, 0, 2, 2)
        left = clip_polygon(sq, HalfSpace(1, 0, 1))  # x <= 1
        assert left is not None
        assert left.area() == pytest.approx(2.0)

    def test_clip_away_everything(self):
        sq = Polygon.rectangle(0, 0, 2, 2)
        assert clip_polygon(sq, HalfSpace(1, 0, -5)) is None

    def test_clip_no_effect(self):
        sq = Polygon.rectangle(0, 0, 2, 2)
        out = clip_polygon(sq, HalfSpace(1, 0, 100))
        assert out is not None
        assert out.area() == pytest.approx(4.0)

    def test_clip_none_propagates(self):
        assert clip_polygon(None, HalfSpace(1, 0, 0)) is None

    def test_intersect_halfspaces_box(self):
        bound = Polygon.rectangle(-10, -10, 10, 10)
        hs = [
            HalfSpace(1, 0, 1),
            HalfSpace(-1, 0, 1),
            HalfSpace(0, 1, 1),
            HalfSpace(0, -1, 1),
        ]
        region = intersect_halfspaces(hs, bound)
        assert region is not None
        assert region.area() == pytest.approx(4.0)
        assert region.centroid().almost_equals(Point(0, 0))

    def test_intersect_infeasible(self):
        bound = Polygon.rectangle(-10, -10, 10, 10)
        hs = [HalfSpace(1, 0, 0), HalfSpace(-1, 0, -1)]  # x <= 0 and x >= 1
        assert intersect_halfspaces(hs, bound) is None

    def test_halfspaces_to_matrix(self):
        a, b = halfspaces_to_matrix([HalfSpace(1, 2, 3), HalfSpace(4, 5, 6)])
        assert a.shape == (2, 2)
        assert b.tolist() == [3, 6]

    def test_halfspaces_to_matrix_empty(self):
        a, b = halfspaces_to_matrix([])
        assert a.shape == (0, 2)
        assert b.shape == (0,)

    @given(st.lists(st.tuples(points, points), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_clipped_region_satisfies_all_constraints(self, pairs):
        bound = Polygon.rectangle(-25, -25, 25, 25)
        halfspaces = []
        for near, far in pairs:
            if near.distance_to(far) < 1e-3:
                continue
            halfspaces.append(bisector_halfspace(near, far))
        region = intersect_halfspaces(halfspaces, bound)
        if region is None:
            return
        c = region.centroid()
        for hs in halfspaces:
            assert hs.contains(c, tol=1e-6)

    @given(st.lists(st.tuples(points, points), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_clipping_shrinks_area(self, pairs):
        bound = Polygon.rectangle(-25, -25, 25, 25)
        region = bound
        for near, far in pairs:
            if near.distance_to(far) < 1e-3:
                continue
            prev_area = region.area() if region else 0.0
            region = clip_polygon(region, bisector_halfspace(near, far))
            if region is None:
                break
            assert region.area() <= prev_area + 1e-6


class TestIntersectRows:
    """``_intersect_rows`` (the localizer's clipper) on ``(A, b)`` stacks.

    It promises the polygon of :func:`intersect_halfspaces` over the same
    rows as :class:`HalfSpace` objects, so comparisons are exact (``==``
    on vertex floats), never ``approx``.
    """

    BOUND = Polygon.rectangle(0.0, 0.0, 20.0, 14.0)

    @staticmethod
    def random_stack(rng, max_rows=8):
        m = int(rng.integers(0, max_rows + 1))
        a = rng.normal(size=(m, 2))
        # Offsets biased so many rows actually cut through the bound.
        b = a @ rng.uniform([2, 2], [18, 12]) + rng.normal(scale=4.0, size=m)
        return a, b

    def assert_matches_objects(self, a, b):
        halfspaces = [HalfSpace(a[j, 0], a[j, 1], b[j]) for j in range(len(b))]
        expected = intersect_halfspaces(halfspaces, self.BOUND)
        got = _intersect_rows(a, b, self.BOUND)
        if expected is None or got is None:
            assert expected is None and got is None
            return got
        assert [(p.x, p.y) for p in got.vertices] == [
            (p.x, p.y) for p in expected.vertices
        ]
        return got

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stacks_match_intersect_halfspaces(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(24):
            self.assert_matches_objects(*self.random_stack(rng))

    def test_empty_stack_returns_bound(self):
        region = self.assert_matches_objects(np.zeros((0, 2)), np.zeros(0))
        assert region.vertices == self.BOUND.vertices

    def test_single_row_stack(self):
        region = self.assert_matches_objects(
            np.array([[1.0, 0.0]]), np.array([7.0])
        )
        assert region.area() == pytest.approx(7.0 * 14.0)

    def test_infeasible_stack_is_none(self):
        # x <= -1 and x >= 1 cannot meet inside the bound.
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert self.assert_matches_objects(a, np.array([-1.0, -1.0])) is None
        # A row that excludes the whole bound is infeasible on its own.
        assert (
            self.assert_matches_objects(np.array([[1.0, 0.0]]), np.array([-5.0]))
            is None
        )

    def test_mixed_row_counts(self):
        rng = np.random.default_rng(7)
        for max_rows in (1, 12) * 12:
            self.assert_matches_objects(*self.random_stack(rng, max_rows))

    def test_degenerate_sliver_stacks(self):
        # Two parallel cuts leaving (almost) zero area: slivers collapse
        # to None exactly as the object path does.
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        for eps in (0.0, 1e-13, 1e-9, 1e-3):
            self.assert_matches_objects(a, np.array([5.0 + eps, -5.0]))
