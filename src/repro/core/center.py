"""Region-centre estimators for the final feasible region.

The paper "choose[s] the center point of the region as the approximation
result" and obtains it from CVX's interior-point solver ("the center of
the feasible region by using logarithmic barrier functions").  Three
estimators are provided and compared in the ABL-CTR ablation:

* **CENTROID** — exact area centroid of the clipped feasible polygon
  (exact in 2-D; the default);
* **CHEBYSHEV** — centre of the largest inscribed disk (LP);
* **ANALYTIC** — the log-barrier analytic centre (what CVX effectively
  returned to the authors).
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from ..geometry import Point, Polygon
from ..optimize import analytic_center, chebyshev_center_batch

__all__ = ["CenterMethod", "region_centers_batch"]


class CenterMethod(enum.Enum):
    """How to turn the feasible region into a point estimate."""

    CENTROID = "centroid"
    CHEBYSHEV = "chebyshev"
    ANALYTIC = "analytic"


def _region_rows(region: Polygon) -> tuple[np.ndarray, np.ndarray]:
    """The region's own halfspace description, one outward row per edge."""
    a = []
    b = []
    for edge in region.edges():
        normal = edge.normal()  # left of CCW direction = inward
        # inward normal n satisfies n . z >= n . p on the region, i.e.
        # (-n) . z <= -(n . p): outward halfspace row.
        p = edge.a
        a.append([-normal.x, -normal.y])
        b.append(-(normal.x * p.x + normal.y * p.y))
    return np.array(a), np.array(b)


def region_centers_batch(
    regions: Sequence[Polygon | None],
    fallbacks: Sequence[np.ndarray],
    method: CenterMethod = CenterMethod.CENTROID,
) -> list[Point]:
    """Centres of many already-clipped regions, LP methods stacked.

    Empty regions (``None``) fall back to their LP feasible point, and
    CENTROID takes each polygon's exact centroid.  The LP-based centres
    work on each region's own edge rows, which already include the
    clipping bound: CHEBYSHEV through the lockstep
    :func:`~repro.optimize.chebyshev_center_batch`, ANALYTIC through the
    log-barrier :func:`~repro.optimize.analytic_center`.  Extremely thin
    regions can defeat the LP centres; those lanes take the exact
    centroid, which is always available.
    """
    centers: list[Point | None] = [None] * len(regions)
    lp_lanes: list[int] = []
    for i, (region, fallback) in enumerate(zip(regions, fallbacks)):
        if region is None:
            centers[i] = Point(float(fallback[0]), float(fallback[1]))
        elif method is CenterMethod.CENTROID:
            centers[i] = region.centroid()
        else:
            lp_lanes.append(i)
    if lp_lanes:
        rows = [_region_rows(regions[i]) for i in lp_lanes]
        if method is CenterMethod.CHEBYSHEV:
            results = chebyshev_center_batch(rows)
        elif method is CenterMethod.ANALYTIC:
            results = [analytic_center(a, b) for a, b in rows]
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown centre method {method!r}")
        for i, result in zip(lp_lanes, results):
            if not result.ok:
                centers[i] = regions[i].centroid()
            else:
                centers[i] = Point(float(result.x[0]), float(result.x[1]))
    return centers  # type: ignore[return-value]  # every slot is filled
