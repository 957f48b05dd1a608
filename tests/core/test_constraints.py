"""Tests for the SP constraint builders."""

import numpy as np
import pytest

from repro.core import (
    BOUNDARY_WEIGHT,
    Anchor,
    ConstraintKind,
    ConstraintSystem,
    LocalizerConfig,
    NomLocLocalizer,
    WeightedConstraint,
    boundary_constraints,
    pairwise_constraints,
)
from repro.geometry import HalfSpace, Point, Polygon


def anchors_square(pdps, nomadic=(False, False, False, False)):
    """Four anchors at the unit-square-ish corners with given PDPs."""
    positions = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
    return [
        Anchor(f"A{i}", p, pdp, nomadic=n)
        for i, (p, pdp, n) in enumerate(zip(positions, pdps, nomadic))
    ]


class TestAnchor:
    def test_positive_pdp_required(self):
        with pytest.raises(ValueError):
            Anchor("X", Point(0, 0), 0.0)

    @pytest.mark.parametrize("pdp", [float("nan"), float("inf")])
    def test_finite_pdp_required(self, pdp):
        with pytest.raises(ValueError, match="finite"):
            Anchor("X", Point(0, 0), pdp)


class TestWeightedConstraint:
    def test_positive_weight_required(self):
        with pytest.raises(ValueError):
            WeightedConstraint(HalfSpace(1, 0, 0), 0.0, ConstraintKind.PAIRWISE)


class TestPairwiseConstraints:
    def test_full_pairwise_count(self):
        cs = pairwise_constraints(anchors_square([4, 3, 2, 1]))
        assert len(cs) == 6  # C(4,2), the paper's N = n(n-1)/2

    def test_orientation_follows_pdp(self):
        """The anchor with larger PDP is on the feasible side."""
        anchors = anchors_square([10.0, 1.0, 1.0, 1.0])
        cs = pairwise_constraints(anchors)
        # Points near A0 (the strong anchor) must satisfy all constraints
        # involving A0.
        near_a0 = Point(1, 1)
        for c in cs:
            if "A0" in c.label:
                assert c.label.startswith("A0<")
                assert c.halfspace.contains(near_a0)

    def test_confidence_weights(self):
        anchors = anchors_square([8.0, 8.0, 1.0, 1.0])
        cs = pairwise_constraints(anchors)
        by_label = {c.label: c for c in cs}
        # Equal PDPs -> coin-flip weight 1/2.
        assert by_label["A0<A1"].weight == pytest.approx(0.5)
        # Large disparity -> high weight.
        assert by_label["A0<A2"].weight > 0.9

    def test_nomadic_pairs_skipped_when_disabled(self):
        anchors = anchors_square([4, 3, 2, 1], nomadic=(True, True, False, False))
        cs = pairwise_constraints(anchors, include_nomadic_pairs=False)
        assert len(cs) == 5  # 6 minus the A0-A1 nomadic pair
        labels = {c.label for c in cs}
        assert not any("A0" in l and "A1" in l for l in labels)

    def test_nomadic_pairs_included_by_flag(self):
        anchors = anchors_square([4, 3, 2, 1], nomadic=(True, True, False, False))
        cs = pairwise_constraints(anchors, include_nomadic_pairs=True)
        assert len(cs) == 6

    def test_nomadic_involvement_tags_kind(self):
        anchors = anchors_square([4, 3, 2, 1], nomadic=(True, False, False, False))
        cs = pairwise_constraints(anchors)
        kinds = {c.label: c.kind for c in cs}
        assert kinds["A0<A1"] is ConstraintKind.NOMADIC
        assert kinds["A1<A2"] is ConstraintKind.PAIRWISE

    def test_paper_counting_s_times_n_minus_1(self):
        """3 static APs + S=4 nomadic sites, paper mode: 3 + 4*3 rows."""
        statics = [
            Anchor("AP2", Point(10, 0), 3.0),
            Anchor("AP3", Point(10, 10), 2.0),
            Anchor("AP4", Point(0, 10), 1.0),
        ]
        sites = [
            Anchor(f"AP1@s{i}", Point(2.0 + i, 5.0), 5.0 + i, nomadic=True)
            for i in range(4)
        ]
        cs = pairwise_constraints(statics + sites, include_nomadic_pairs=False)
        assert len(cs) == 3 + 4 * 3

    def test_coincident_anchors_skipped(self):
        a = [Anchor("A", Point(1, 1), 2.0), Anchor("B", Point(1, 1), 3.0)]
        assert pairwise_constraints(a) == []

    def test_normalization(self):
        anchors = anchors_square([4, 3, 2, 1])
        for c in pairwise_constraints(anchors, normalize=True):
            assert np.hypot(c.halfspace.ax, c.halfspace.ay) == pytest.approx(1.0)

    def test_unnormalized_matches_eq7(self):
        near, far = Point(0, 0), Point(10, 0)
        cs = pairwise_constraints(
            [Anchor("N", near, 5.0), Anchor("F", far, 1.0)], normalize=False
        )
        hs = cs[0].halfspace
        assert hs.ax == pytest.approx(2 * (far.x - near.x))
        assert hs.b == pytest.approx(far.x**2 - near.x**2)


class TestBoundaryConstraints:
    def test_rectangle(self):
        area = Polygon.rectangle(0, 0, 10, 8)
        cs = boundary_constraints(area)
        assert len(cs) == 4
        assert all(c.kind is ConstraintKind.BOUNDARY for c in cs)
        assert all(c.weight == BOUNDARY_WEIGHT for c in cs)
        inside, outside = Point(5, 4), Point(12, 4)
        assert all(c.halfspace.contains(inside) for c in cs)
        assert not all(c.halfspace.contains(outside) for c in cs)

    def test_non_convex_rejected(self):
        l_shape = Polygon.from_coords(
            [(0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10)]
        )
        with pytest.raises(ValueError):
            boundary_constraints(l_shape)

    def test_custom_weight(self):
        area = Polygon.rectangle(0, 0, 4, 4)
        cs = boundary_constraints(area, weight=7.0)
        assert all(c.weight == 7.0 for c in cs)

    def test_explicit_anchor(self):
        area = Polygon.rectangle(0, 0, 4, 4)
        cs = boundary_constraints(area, anchor_position=Point(1, 1))
        assert all(c.halfspace.contains(Point(2, 2)) for c in cs)


class TestConstraintSystem:
    def test_matrices_shape_and_order(self):
        anchors = anchors_square([4, 3, 2, 1])
        rows = pairwise_constraints(anchors)
        system = ConstraintSystem(tuple(rows))
        a, b, w = system.matrices()
        assert a.shape == (6, 2)
        assert b.shape == (6,)
        assert list(w) == [c.weight for c in rows]

    def test_empty_matrices(self):
        a, b, w = ConstraintSystem(()).matrices()
        assert a.shape == (0, 2)

    def test_of_kind_and_extended(self):
        area = Polygon.rectangle(0, 0, 10, 10)
        pw = pairwise_constraints(anchors_square([4, 3, 2, 1]))
        system = ConstraintSystem(tuple(pw)).extended(boundary_constraints(area))
        assert len(system) == 10
        assert len(system.of_kind(ConstraintKind.BOUNDARY)) == 4
        assert len(system.of_kind(ConstraintKind.PAIRWISE)) == 6


class TestPairwiseConstraintsBatch:
    """The localizer's batched assembly runs the scalar builder per query.

    ``build_shared_constraints_batch`` returns, per query, the rows of
    :func:`pairwise_constraints` plus their stacked ``(A, b, w)``, and
    validates queries in order.
    """

    AREA = Polygon.rectangle(0, 0, 20, 20)

    def _queries(self, nq=6, seed=11):
        rng = np.random.default_rng(seed)
        queries = []
        for q in range(nq):
            n = int(rng.integers(2, 7))
            anchors = []
            for i in range(n):
                anchors.append(
                    Anchor(
                        f"A{q}_{i}",
                        Point(
                            float(rng.uniform(0, 20)), float(rng.uniform(0, 20))
                        ),
                        float(rng.uniform(0.05, 9.0)),
                        # Every query keeps at least one static anchor, so
                        # it always has a usable pair.
                        nomadic=bool(i > 0 and rng.random() < 0.3),
                    )
                )
            queries.append(tuple(anchors))
        return queries

    def _localizer(self, include_nomadic_pairs=True):
        return NomLocLocalizer(
            self.AREA,
            LocalizerConfig(include_nomadic_pairs=include_nomadic_pairs),
        )

    def assert_rows_identical(self, scalar_rows, batch_rows):
        assert len(scalar_rows) == len(batch_rows)
        for s, b in zip(scalar_rows, batch_rows):
            assert s.halfspace.ax == b.halfspace.ax
            assert s.halfspace.ay == b.halfspace.ay
            assert s.halfspace.b == b.halfspace.b
            assert s.weight == b.weight
            assert s.kind is b.kind
            assert s.label == b.label

    def test_rows_match_scalar(self):
        queries = self._queries()
        localizer = self._localizer()
        batched = localizer.build_shared_constraints_batch(queries)
        for anchors, (rows, _) in zip(queries, batched):
            self.assert_rows_identical(
                localizer.build_shared_constraints(anchors), rows
            )

    def test_matrices_match_listcomp_build(self):
        queries = self._queries(seed=12)
        batched = self._localizer().build_shared_constraints_batch(queries)
        for rows, (a, b, w) in batched:
            system = ConstraintSystem(tuple(rows))
            a2, b2, w2 = system.matrices()
            assert a.tobytes() == a2.tobytes()
            assert b.tobytes() == b2.tobytes()
            assert w.tobytes() == w2.tobytes()

    def test_nomadic_flag_and_normalization_parity(self):
        queries = self._queries(seed=13)
        for include in (False, True):
            localizer = self._localizer(include_nomadic_pairs=include)
            batched = localizer.build_shared_constraints_batch(queries)
            for anchors, (rows, (a, _b, _w)) in zip(queries, batched):
                self.assert_rows_identical(
                    pairwise_constraints(
                        anchors, include_nomadic_pairs=include, normalize=True
                    ),
                    rows,
                )
                # Unit normals: every row's slack is measured in metres.
                assert np.allclose(np.hypot(a[:, 0], a[:, 1]), 1.0)

    def test_quality_weights_parity_and_error(self):
        queries = self._queries(nq=3, seed=14)
        localizer = self._localizer()
        weights = [
            {a.name: 0.5 for a in anchors} for anchors in queries
        ]
        batched = localizer.build_shared_constraints_batch(
            queries, quality_weights=weights
        )
        for anchors, qw, (rows, _) in zip(queries, weights, batched):
            self.assert_rows_identical(
                localizer.build_shared_constraints(anchors, quality_weights=qw),
                rows,
            )
        bad = [dict(w) for w in weights]
        bad[1][queries[1][0].name] = 0.0
        with pytest.raises(ValueError, match="must be in \\(0, 1\\]"):
            localizer.build_shared_constraints_batch(
                queries, quality_weights=bad
            )
        with pytest.raises(ValueError, match="length must match"):
            localizer.build_shared_constraints_batch(
                queries, quality_weights=weights[:2]
            )

    def test_cache_lookups_match_scalar(self):
        from repro.serving.cache import BisectorCache

        queries = self._queries(seed=15)
        localizer = self._localizer()
        scalar_cache = BisectorCache()
        batch_cache = BisectorCache()
        for anchors in queries:
            localizer.build_shared_constraints(
                anchors, bisector_cache=scalar_cache
            )
        batched = localizer.build_shared_constraints_batch(
            queries, bisector_cache=batch_cache
        )
        # One lookup per row on both paths: the statistics agree too.
        assert batch_cache.stats() == scalar_cache.stats()
        for anchors, (rows, _) in zip(queries, batched):
            self.assert_rows_identical(
                localizer.build_shared_constraints(
                    anchors, bisector_cache=scalar_cache
                ),
                rows,
            )
        # A second batched pass hits the warm cache and still matches.
        rebatched = localizer.build_shared_constraints_batch(
            queries, bisector_cache=batch_cache
        )
        for (rows, _), (rows2, _) in zip(batched, rebatched):
            self.assert_rows_identical(rows, rows2)

    def test_coincident_and_short_queries(self):
        p = Point(5, 5)
        coincident = (
            Anchor("C0", p, 2.0),
            Anchor("C1", p, 1.0),
            Anchor("C2", Point(8, 1), 0.5),
        )
        all_coincident = (Anchor("D0", p, 2.0), Anchor("D1", p, 1.0))
        short = (Anchor("S0", Point(1, 1), 1.0),)
        localizer = self._localizer()
        [(rows, (a, b, w))] = localizer.build_shared_constraints_batch(
            [coincident]
        )
        self.assert_rows_identical(pairwise_constraints(coincident), rows)
        assert a.shape == (len(rows), 2)
        assert b.shape == (len(rows),) and w.shape == (len(rows),)
        # Validation runs in query order: the short query comes first.
        with pytest.raises(ValueError, match="at least two anchors"):
            localizer.build_shared_constraints_batch(
                [coincident, short, all_coincident]
            )
        with pytest.raises(ValueError, match="no usable anchor pairs"):
            localizer.build_shared_constraints_batch(
                [coincident, all_coincident, short]
            )


class TestConstraintSystemMatricesCache:
    def test_matrices_memoized(self):
        rows = pairwise_constraints(anchors_square([4, 3, 2, 1]))
        system = ConstraintSystem(tuple(rows))
        first = system.matrices()
        second = system.matrices()
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_with_matrices_preseed_bitwise(self):
        rows = tuple(pairwise_constraints(anchors_square([4, 3, 2, 1])))
        reference = ConstraintSystem(rows)
        a, b, w = reference.matrices()
        preseeded = ConstraintSystem.with_matrices(
            rows, a.copy(), b.copy(), w.copy()
        )
        a2, b2, w2 = preseeded.matrices()
        assert a2.tobytes() == a.tobytes()
        assert b2.tobytes() == b.tobytes()
        assert w2.tobytes() == w.tobytes()
        assert preseeded.constraints == reference.constraints
