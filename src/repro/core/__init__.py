"""The NomLoc core: PDP proximity, SP constraints, relaxation, localizer."""

from .center import CenterMethod, region_centers_batch
from .constraints import (
    BOUNDARY_WEIGHT,
    Anchor,
    ConstraintKind,
    ConstraintSystem,
    WeightedConstraint,
    boundary_constraints,
    pairwise_constraints,
)
from .localizer import (
    LocalizerConfig,
    LocationEstimate,
    NomLocLocalizer,
    PieceSolution,
)
from .pdp import (
    CONFIDENCE_FUNCTIONS,
    PROXIMITY_METRICS,
    InvalidMeasurementError,
    ProximityJudgement,
    confidence_factor,
    confidence_factor_power,
    confidence_factor_rational,
    estimate_first_tap,
    estimate_pdp,
    estimate_pdp_median,
    estimate_pdp_skip_invalid,
    estimate_rss,
    judge_proximity,
    proximity_confidence,
)
from .relaxation import RelaxationResult, solve_relaxation, solve_relaxation_batch
from .system import LinkRecord, NomLocSystem, SystemConfig, measure_link_pdp

__all__ = [
    "InvalidMeasurementError",
    "confidence_factor",
    "confidence_factor_rational",
    "confidence_factor_power",
    "CONFIDENCE_FUNCTIONS",
    "proximity_confidence",
    "estimate_pdp",
    "estimate_pdp_skip_invalid",
    "estimate_pdp_median",
    "estimate_rss",
    "estimate_first_tap",
    "PROXIMITY_METRICS",
    "ProximityJudgement",
    "judge_proximity",
    "ConstraintKind",
    "WeightedConstraint",
    "ConstraintSystem",
    "Anchor",
    "BOUNDARY_WEIGHT",
    "pairwise_constraints",
    "boundary_constraints",
    "RelaxationResult",
    "solve_relaxation",
    "solve_relaxation_batch",
    "CenterMethod",
    "region_centers_batch",
    "LocalizerConfig",
    "LocationEstimate",
    "PieceSolution",
    "NomLocLocalizer",
    "LinkRecord",
    "NomLocSystem",
    "SystemConfig",
    "measure_link_pdp",
]
