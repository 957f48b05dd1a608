"""SP-based location estimation (Sec. IV-B): the NomLoc localizer.

Pipeline per location query:

1. build pairwise bisector constraints from the anchors' PDPs (Eq. 8 and,
   for nomadic measurement sites, Eq. 13);
2. for each convex piece of the area of interest, add the piece's
   boundary constraints (Eq. 9) and solve the weighted relaxation LP
   (Eq. 19);
3. clip the relaxed halfspaces into the exact feasible polygon and take
   its centre; pieces with (near-)co-optimal relaxation cost are merged
   by area-weighted centroid, following the paper's "merge the areas with
   feasible solutions".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..geometry import (
    Point,
    Polygon,
    decompose_convex,
    distance_point_to_segment,
)
from ..geometry.halfspace import _intersect_rows
from ..obs import span
from .center import CenterMethod, region_centers_batch
from .constraints import (
    BOUNDARY_WEIGHT,
    Anchor,
    ConstraintSystem,
    WeightedConstraint,
    boundary_constraints,
    pairwise_constraints,
)
from .relaxation import _SLACK_TOL, RelaxationResult, solve_relaxation_batch

__all__ = [
    "LocalizerConfig",
    "PieceSolution",
    "LocationEstimate",
    "NomLocLocalizer",
]


@dataclass(frozen=True)
class LocalizerConfig:
    """Tunable knobs of the SP localizer.

    Attributes
    ----------
    center_method:
        Region-centre estimator (ablated in ABL-CTR).
    boundary_weight:
        Relaxation weight of the area-boundary constraints.
    include_nomadic_pairs:
        Also compare nomadic measurement sites against each other.  The
        paper's Eq. 13 only compares them against static APs, but PDPs of
        the *same* device measured from different sites are the most
        directly comparable measurements in the system, and without the
        site-site rows one erroneous site-vs-static judgement can leave a
        feasible-but-wrong region that nothing contradicts.  Default on;
        ablated in ABL-PAIRS.
    cost_merge_tolerance:
        Pieces whose relaxation cost is within this of the best are
        merged into the final estimate.
    confidence_fn:
        Name of the confidence function weighting the pairwise rows (a
        key of :data:`repro.core.pdp.CONFIDENCE_FUNCTIONS`; the paper's
        Eq. 4 by default).
    """

    center_method: CenterMethod = CenterMethod.CENTROID
    boundary_weight: float = BOUNDARY_WEIGHT
    include_nomadic_pairs: bool = True
    cost_merge_tolerance: float = 1e-6
    confidence_fn: str = "paper"

    def __post_init__(self) -> None:
        if self.boundary_weight <= 0:
            raise ValueError("boundary weight must be positive")
        if self.cost_merge_tolerance < 0:
            raise ValueError("merge tolerance must be non-negative")
        from .pdp import CONFIDENCE_FUNCTIONS

        if self.confidence_fn not in CONFIDENCE_FUNCTIONS:
            raise ValueError(
                f"unknown confidence function {self.confidence_fn!r}; "
                f"available: {sorted(CONFIDENCE_FUNCTIONS)}"
            )
        # Resolve once at construction: the serving hot loop calls
        # resolve_confidence_fn per query, and the registry import +
        # dict lookup showed up in profiles.  Not a dataclass field, so
        # equality/repr/pickling of the config are unaffected.
        object.__setattr__(
            self, "_confidence_impl", CONFIDENCE_FUNCTIONS[self.confidence_fn]
        )

    def resolve_confidence_fn(self):
        """The callable behind :attr:`confidence_fn` (cached at init)."""
        return self._confidence_impl


@dataclass(frozen=True)
class PieceSolution:
    """Relaxation outcome on one convex piece of the area."""

    piece_index: int
    piece: Polygon
    relaxation: RelaxationResult
    region: Polygon | None
    center: Point

    @property
    def cost(self) -> float:
        return self.relaxation.cost


class _LazyPieceSolution(PieceSolution):
    """A piece solution whose geometry is computed on first access.

    A query's estimate only ever *uses* the region/centre of the
    co-optimal winner pieces (``estimate_from_solutions`` reads losing
    pieces' cost alone), so losing pieces skip the polygon clip and
    centring entirely.  Diagnostics stay available: ``region``/``center``
    are data descriptors that materialize on first read through the same
    winner-only geometry, as a one-piece group (which is always its own
    winner) — the identical code the eager pieces ran, so the values are
    bit-identical, just late.

    Pickling materializes into a plain eager :class:`PieceSolution`
    (process pools ship solutions across workers; a thunk would not
    survive the trip).
    """

    def __init__(
        self,
        piece_index: int,
        piece: Polygon,
        relaxation: RelaxationResult,
        localizer: "NomLocLocalizer",
    ) -> None:
        # The parent dataclass is frozen; bypass its __setattr__.
        object.__setattr__(self, "piece_index", piece_index)
        object.__setattr__(self, "piece", piece)
        object.__setattr__(self, "relaxation", relaxation)
        object.__setattr__(self, "_localizer", localizer)
        object.__setattr__(self, "_geometry", None)

    def _materialized(self) -> tuple[Polygon | None, Point]:
        geometry = self._geometry
        if geometry is None:
            [[eager]] = self._localizer._winner_lazy_solutions(
                [[(self.piece_index, self.relaxation)]]
            )
            geometry = (eager.region, eager.center)
            object.__setattr__(self, "_geometry", geometry)
        return geometry

    @property  # shadows the dataclass field: descriptors win over __dict__
    def region(self) -> Polygon | None:
        return self._materialized()[0]

    @property
    def center(self) -> Point:
        return self._materialized()[1]

    def __reduce__(self):
        return (
            PieceSolution,
            (
                self.piece_index,
                self.piece,
                self.relaxation,
                self.region,
                self.center,
            ),
        )


@dataclass(frozen=True)
class LocationEstimate:
    """Final output of one localization query.

    Attributes
    ----------
    position:
        The estimated object location.
    relaxation_cost:
        ``w . t`` of the winning piece (0 when fully feasible).
    region:
        Feasible polygon of the winning piece (None if degenerate).
    pieces:
        Per-piece diagnostics, winning piece(s) first is NOT guaranteed;
        order follows the convex decomposition.
    num_constraints:
        Rows in the winning piece's LP.
    confidence:
        Measurement-layer confidence in ``(0, 1]``: 1.0 when every link
        passed gating at full quality, lower when the guard layer
        down-weighted or dropped degraded links (see
        :mod:`repro.guard`).  Estimates from the ungated path always
        report 1.0.
    degradation_reasons:
        Why the confidence is below 1.0 — the sorted, deduplicated
        union of per-link gating reasons (``"nan-burst"``,
        ``"ap-outage"``, ...).  Empty for clean queries.
    """

    position: Point
    relaxation_cost: float
    region: Polygon | None
    pieces: tuple[PieceSolution, ...]
    num_constraints: int
    confidence: float = 1.0
    degradation_reasons: tuple[str, ...] = ()

    @property
    def was_feasible(self) -> bool:
        return self.relaxation_cost <= 1e-6

    @property
    def confidence_radius_m(self) -> float:
        """Radius of a disk with the feasible region's area.

        A self-reported uncertainty: the SP estimate cannot be pinned
        down more precisely than its cell, so the equivalent-disk radius
        is an honest error bar an application can act on (e.g. "the
        suspect is within ~r of here").  Infinity when the region is
        degenerate/unknown.
        """
        if self.region is None:
            return float("inf")
        return math.sqrt(self.region.area() / math.pi)

    def error_to(self, truth: Point) -> float:
        """Euclidean localization error against a ground-truth position."""
        return self.position.distance_to(truth)


class NomLocLocalizer:
    """Calibration-free SP localizer over a (possibly non-convex) area.

    Parameters
    ----------
    area:
        The area of interest; decomposed into convex pieces once.
    config:
        Behavioural knobs; defaults reproduce the paper.
    """

    def __init__(self, area: Polygon, config: LocalizerConfig | None = None) -> None:
        self.area = area
        self.config = config or LocalizerConfig()
        self.pieces: list[Polygon] = decompose_convex(area)
        # Clipping bound: the area's bounding box with head-room so mildly
        # relaxed boundary constraints still produce a region.
        xmin, ymin, xmax, ymax = area.bounding_box()
        margin = 0.25 * max(xmax - xmin, ymax - ymin) + 1.0
        self._bound = Polygon.rectangle(
            xmin - margin, ymin - margin, xmax + margin, ymax + margin
        )
        # Per-piece boundary rows (virtual-AP mirrors, Eq. 9-11) depend
        # only on the topology, never on a query's PDPs — build each once
        # and reuse it for every subsequent locate().
        self._boundary_rows: list[tuple[WeightedConstraint, ...] | None] = [
            None
        ] * len(self.pieces)
        # Matching (A, b, w) stacks per piece, for preseeding assembled
        # systems' matrices caches in the batched path.
        self._boundary_mats: list[
            tuple[np.ndarray, np.ndarray, np.ndarray] | None
        ] = [None] * len(self.pieces)

    # ------------------------------------------------------------------
    # Constraint assembly, factored so a serving layer can cache the
    # topology-dependent prefix and rebuild only the PDP-dependent rows.
    # ------------------------------------------------------------------
    def build_shared_constraints(
        self,
        anchors: Sequence[Anchor],
        bisector_cache=None,
        quality_weights: Mapping[str, float] | None = None,
    ) -> tuple[WeightedConstraint, ...]:
        """The PDP-dependent pairwise/nomadic rows shared by every piece.

        ``bisector_cache`` optionally memoizes the geometric bisectors by
        anchor-position pair (see
        :func:`~repro.core.constraints.pairwise_constraints`);
        ``quality_weights`` optionally scales each row by the weaker
        anchor's link-quality score (the guard layer's degradation-aware
        hook — ``None`` keeps weights bit-identical to the ungated
        path).
        """
        with span("constraints.build_shared", anchors=len(anchors)) as sp:
            shared = self._shared_rows(anchors, bisector_cache, quality_weights)
            sp.incr("rows", len(shared))
            return shared

    def _shared_rows(
        self,
        anchors: Sequence[Anchor],
        bisector_cache,
        quality_weights: Mapping[str, float] | None,
    ) -> tuple[WeightedConstraint, ...]:
        """The one per-query assembly body behind both public builders."""
        if len(anchors) < 2:
            raise ValueError("need at least two anchors to partition space")
        shared = pairwise_constraints(
            anchors,
            include_nomadic_pairs=self.config.include_nomadic_pairs,
            confidence_fn=self.config.resolve_confidence_fn(),
            bisector_cache=bisector_cache,
            quality_weights=quality_weights,
        )
        if not shared:
            raise ValueError(
                "no usable anchor pairs (all anchors coincident or filtered)"
            )
        return tuple(shared)

    def piece_boundary_rows(self, index: int) -> tuple[WeightedConstraint, ...]:
        """The cached boundary rows of one convex piece."""
        rows = self._boundary_rows[index]
        if rows is None:
            rows = tuple(
                boundary_constraints(
                    self.pieces[index], weight=self.config.boundary_weight
                )
            )
            self._boundary_rows[index] = rows
        return rows

    def warm(self) -> "NomLocLocalizer":
        """Precompute every piece's boundary rows (for cache priming)."""
        for index in range(len(self.pieces)):
            self.piece_boundary_rows(index)
        return self

    def _piece_boundary_matrices(
        self, index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(A, b, w)`` stack of one piece's boundary rows."""
        mats = self._boundary_mats[index]
        if mats is None:
            mats = ConstraintSystem(self.piece_boundary_rows(index)).matrices()
            self._boundary_mats[index] = mats
        return mats

    def assemble_piece_system(
        self,
        index: int,
        shared: Sequence[WeightedConstraint],
        shared_matrices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> ConstraintSystem:
        """Full LP stack of one piece: shared rows + cached boundary rows.

        ``shared_matrices`` optionally carries the precomputed ``(A, b,
        w)`` stack of the shared rows (the batched assembly already has
        it); the assembled system's matrices cache is then preseeded by
        concatenating it with the piece's cached boundary stack —
        bit-identical to rebuilding from the row objects, without
        iterating them again per piece per query.
        """
        rows = tuple(shared) + self.piece_boundary_rows(index)
        if shared_matrices is None:
            return ConstraintSystem(rows)
        a_sh, b_sh, w_sh = shared_matrices
        a_bd, b_bd, w_bd = self._piece_boundary_matrices(index)
        return ConstraintSystem.with_matrices(
            rows,
            np.concatenate([a_sh, a_bd]),
            np.concatenate([b_sh, b_bd]),
            np.concatenate([w_sh, w_bd]),
        )

    # ------------------------------------------------------------------
    def locate(
        self,
        anchors: Sequence[Anchor],
        quality_weights: Mapping[str, float] | None = None,
    ) -> LocationEstimate:
        """Estimate the object's position from anchor PDPs.

        Requires at least two anchors (one bisector); realistic use has
        four static APs plus the nomadic sites.  ``quality_weights``
        optionally down-weights rows touching degraded links (see
        :meth:`build_shared_constraints`).
        """
        shared = self.build_shared_constraints(
            anchors, quality_weights=quality_weights
        )
        solutions = [self.solve_piece(idx, shared) for idx in range(len(self.pieces))]
        return self.estimate_from_solutions(solutions)

    def build_shared_constraints_batch(
        self,
        queries: Sequence[Sequence[Anchor]],
        quality_weights: Sequence[Mapping[str, float] | None] | None = None,
        bisector_cache=None,
    ) -> list[
        tuple[
            tuple[WeightedConstraint, ...],
            tuple[np.ndarray, np.ndarray, np.ndarray],
        ]
    ]:
        """Shared pairwise rows for many queries, with their stacked matrices.

        Per query, the returned rows are exactly what
        :meth:`build_shared_constraints` returns (the same per-query body
        runs), and the accompanying ``(A, b, w)`` arrays are their
        :meth:`ConstraintSystem.matrices`, built once per query to preseed
        every piece system's matrices cache.  Queries are validated in
        order, so the first offending query raises the error the scalar
        per-query loop would have raised first.
        """
        if quality_weights is None:
            quality_weights = [None] * len(queries)
        if len(quality_weights) != len(queries):
            raise ValueError("quality_weights length must match queries")
        with span("constraints.build_batch", queries=len(queries)) as sp:
            assembled = []
            for anchors, weights in zip(queries, quality_weights):
                rows = self._shared_rows(anchors, bisector_cache, weights)
                assembled.append((rows, ConstraintSystem(rows).matrices()))
            sp.incr("rows", sum(len(rows) for rows, _mats in assembled))
            return assembled

    def locate_batch(
        self,
        queries: Sequence[Sequence[Anchor]],
        quality_weights: Sequence[Mapping[str, float] | None] | None = None,
        bisector_cache=None,
    ) -> list[LocationEstimate]:
        """Estimate positions for many queries with stacked relaxation LPs.

        Constraint assembly runs the scalar per-query builder through
        :meth:`build_shared_constraints_batch`, which also stacks each
        query's ``(A, b, w)`` once; every ``(query, piece)`` LP then
        solves through one :func:`solve_relaxation_batch` call, and region
        geometry runs winner-only — pieces within ``cost_merge_tolerance``
        of their query's best cost are clipped one by one
        (:meth:`_regions_batch`) and centred through
        :func:`~repro.core.center.region_centers_batch`, while losing
        pieces get lazy solutions whose region/centre materialize only if
        a diagnostic reads them.  Estimates are **bit-identical** to
        calling :meth:`locate` per query in order.
        """
        if not queries:
            return []
        shareds = self.build_shared_constraints_batch(
            queries,
            quality_weights=quality_weights,
            bisector_cache=bisector_cache,
        )
        npieces = len(self.pieces)
        solution_groups = self._solve_piece_groups(
            shareds,
            range(npieces),
            "lp.solve_batch",
            queries=len(queries),
            pieces=npieces,
        )
        return [
            self.estimate_from_solutions(solutions)
            for solutions in solution_groups
        ]

    def estimate_from_solutions(
        self, solutions: Sequence[PieceSolution]
    ) -> LocationEstimate:
        """Merge per-piece solutions into the final estimate."""
        if not solutions:
            raise ValueError(
                "estimate_from_solutions needs at least one piece solution; "
                "localize at least one topology piece before merging"
            )
        with span("merge", pieces=len(solutions)) as sp:
            best_cost = min(s.cost for s in solutions)
            winners = [
                s
                for s in solutions
                if s.cost <= best_cost + self.config.cost_merge_tolerance
            ]
            sp.incr("winners", len(winners))
            merged_position = self.project_into_area(_merge_centers(winners))
            winner = winners[0]
            return LocationEstimate(
                position=merged_position,
                relaxation_cost=best_cost,
                region=winner.region,
                pieces=tuple(solutions),
                num_constraints=len(winner.relaxation.system),
            )

    def project_into_area(self, p: Point) -> Point:
        """Guarantee in-venue estimates.

        Slightly relaxed boundary rows (the degeneracy fallback) can put a
        centre a few centimetres outside; project it to the nearest
        boundary point in that case.
        """
        if self.area.contains(p):
            return p
        best_edge = min(
            self.area.edges(), key=lambda e: distance_point_to_segment(p, e)
        )
        d = best_edge.b - best_edge.a
        denom = d.x * d.x + d.y * d.y
        if denom <= 0:
            return best_edge.a
        t = ((p.x - best_edge.a.x) * d.x + (p.y - best_edge.a.y) * d.y) / denom
        t = max(0.0, min(1.0, t))
        return best_edge.a + d * t

    # ------------------------------------------------------------------
    def solve_piece(
        self,
        index: int,
        shared: Sequence[WeightedConstraint],
    ) -> PieceSolution:
        """Solve one convex piece's relaxation LP and centre its region.

        Pieces are independent of each other, so a serving layer may call
        this concurrently for different indices (and different queries):
        it only reads immutable state after the first boundary-row build.
        """
        [[solution]] = self._solve_piece_groups(
            [(shared, None)], [index], "lp.solve", piece=index
        )
        return solution

    def solve_pieces_batch(
        self,
        indices: Sequence[int],
        shared: Sequence[WeightedConstraint],
    ) -> list[PieceSolution]:
        """Solve many pieces' relaxation LPs in one stacked pass.

        Same results as calling :meth:`solve_piece` per index — the
        batched relaxation is bit-identical to the sequential one — but
        the LPs are stacked by shape so N solves advance per NumPy call
        instead of per Python-level pivot loop, and geometry runs
        winner-only (losing pieces' region/centre materialize lazily on
        access, with identical values).

        Emits the ``lp.solve_pieces`` span: :meth:`locate_batch` owns the
        ``lp.solve_batch`` name, and the two carry different attribute
        sets, so sharing one name would corrupt per-stage aggregation.
        """
        [solutions] = self._solve_piece_groups(
            [(shared, None)], indices, "lp.solve_pieces", pieces=len(indices)
        )
        return solutions

    def _solve_piece_groups(
        self,
        shareds: Sequence[
            tuple[
                Sequence[WeightedConstraint],
                tuple[np.ndarray, np.ndarray, np.ndarray] | None,
            ]
        ],
        indices: Sequence[int],
        span_name: str,
        **span_attrs,
    ) -> list[list[PieceSolution]]:
        """The one piece-solve body: assemble, relax, winner-only geometry.

        ``shareds`` holds one ``(shared rows, optional (A, b, w) stack)``
        pair per query; every query is solved over the same piece
        ``indices``.  Each ``(query, piece)`` system goes through one
        :func:`solve_relaxation_batch` call (under the caller's span
        name), then :meth:`_winner_lazy_solutions` centres the winners.
        Returns one solution list per query, in piece order.

        The public entry points call this, never each other, so the
        per-method call counts a tracer takes stay one per call.
        """
        indices = list(indices)
        with span(span_name, **span_attrs) as sp:
            systems = [
                self.assemble_piece_system(index, shared, shared_matrices=mats)
                for shared, mats in shareds
                for index in indices
            ]
            sp.incr("rows", sum(len(s) for s in systems))
            relaxations = solve_relaxation_batch(systems)
        n = len(indices)
        groups = [
            list(zip(indices, relaxations[q * n : (q + 1) * n]))
            for q in range(len(shareds))
        ]
        return self._winner_lazy_solutions(groups)

    def _winner_lazy_solutions(
        self,
        groups: Sequence[Sequence[tuple[int, RelaxationResult]]],
    ) -> list[list[PieceSolution]]:
        """Winner-only geometry over many queries' piece relaxations.

        ``groups`` holds one ``(piece_index, relaxation)`` list per query.
        Pieces within ``cost_merge_tolerance`` of their query's best cost
        get eager regions/centres (clipped per lane, centred in one
        cross-query pass); the rest become :class:`_LazyPieceSolution`.  The
        winner predicate is exactly the one
        :meth:`estimate_from_solutions` applies, so every region/centre
        that method reads is eager and bit-identical to the scalar path.
        """
        with span(
            "geometry.batch", queries=len(groups)
        ) as sp:
            tol = self.config.cost_merge_tolerance
            solutions: list[list[PieceSolution | None]] = [
                [None] * len(group) for group in groups
            ]
            winner_slots: list[tuple[int, int]] = []
            winner_relaxations: list[RelaxationResult] = []
            for gi, group in enumerate(groups):
                best = min(r.cost for _, r in group)
                for si, (index, relaxation) in enumerate(group):
                    if relaxation.cost <= best + tol:
                        winner_slots.append((gi, si))
                        winner_relaxations.append(relaxation)
                    else:
                        solutions[gi][si] = _LazyPieceSolution(
                            index, self.pieces[index], relaxation, self
                        )
            regions = self._regions_batch(winner_relaxations)
            centers = region_centers_batch(
                regions,
                [r.feasible_point for r in winner_relaxations],
                self.config.center_method,
            )
            sp.incr("winners", len(winner_slots))
            sp.incr("lazy", sum(len(g) for g in groups) - len(winner_slots))
            for (gi, si), relaxation, region, center in zip(
                winner_slots, winner_relaxations, regions, centers
            ):
                index = groups[gi][si][0]
                solutions[gi][si] = PieceSolution(
                    index, self.pieces[index], relaxation, region, center
                )
        return solutions  # type: ignore[return-value]  # every slot filled

    def _regions_batch(
        self, relaxations: Sequence[RelaxationResult]
    ) -> list[Polygon | None]:
        """Each relaxation's feasible region, clipped lane by lane.

        The region is centred over the rows the relaxation kept: the
        minimally relaxed full stack is typically degenerate (directly
        conflicting rows relaxed just enough to touch leave a region of
        zero width), while the satisfied sub-system (``t_i = 0``) usually
        has proper interior.  A lane whose candidate clips empty moves to
        the next rung of :func:`_region_ladder` — satisfied rows,
        satisfied rows inflated by ε, every row loosened by its slack
        (``b + t``), then that inflated by ε — so opposing ties that pin a
        line still yield a thin but centreable region.  A lane empty on
        every rung gets ``None`` and is centred on its LP feasible point.
        Each rung is clipped against the area's padded bounding box by
        :func:`~repro.geometry.halfspace._intersect_rows`; a stacked
        clipper over many lanes measured no faster on the lanes this
        path produces (~23 rows, a few to ~70 lanes).
        """
        regions: list[Polygon | None] = []
        for relaxation in relaxations:
            region = None
            for a, b in _region_ladder(relaxation):
                region = _intersect_rows(a, b, self._bound)
                if region is not None:
                    break
            regions.append(region)
        return regions


def _region_ladder(relaxation: RelaxationResult):
    """Candidate ``(A, b)`` stacks of one relaxation's region, in order."""
    epsilon = 0.05  # metres (rows are unit-normalized)
    a, b, _w = relaxation.system.matrices()
    satisfied = relaxation.slacks <= _SLACK_TOL
    a_sat, b_sat = a[satisfied], b[satisfied]
    yield a_sat, b_sat
    yield a_sat, b_sat + epsilon
    relaxed = b + relaxation.slacks
    yield a, relaxed
    yield a, relaxed + epsilon


def _merge_centers(winners: Sequence[PieceSolution]) -> Point:
    """Area-weighted merge of co-optimal pieces' centres."""
    if len(winners) == 1:
        return winners[0].center
    total_area = 0.0
    sx = sy = 0.0
    for sol in winners:
        weight = sol.region.area() if sol.region is not None else 0.0
        if weight <= 0:
            weight = 1e-9
        total_area += weight
        sx += sol.center.x * weight
        sy += sol.center.y * weight
    return Point(sx / total_area, sy / total_area)
