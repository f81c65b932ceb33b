"""Computable attractor theory for interval maps with discontinuities."""

from .branch import BranchSpec, DECREASING, INCREASING, poly_branch, power_branch
from .errors import (
    CriticalPoint,
    DegenerateFamily,
    DichotomyViolation,
    EnvelopeViolation,
    FlatBranch,
    GapOverlap,
    IntervalDynError,
    MapSpecError,
    NotClassified,
    RangeViolation,
    ResolutionTooFine,
    ShadowingFailed,
)
from .maps import (
    CRITICAL_TOL,
    MINUS,
    OrbitResult,
    PLUS,
    PiecewiseMap,
    Termination,
)
from .mapspec import load_mapspec, parse_mapspec
from .observables import Observable

__all__ = [
    "BranchSpec",
    "CRITICAL_TOL",
    "CriticalPoint",
    "DECREASING",
    "DegenerateFamily",
    "DichotomyViolation",
    "EnvelopeViolation",
    "FlatBranch",
    "GapOverlap",
    "INCREASING",
    "IntervalDynError",
    "MINUS",
    "MapSpecError",
    "NotClassified",
    "Observable",
    "OrbitResult",
    "PLUS",
    "PiecewiseMap",
    "RangeViolation",
    "ResolutionTooFine",
    "ShadowingFailed",
    "Termination",
    "load_mapspec",
    "parse_mapspec",
    "poly_branch",
    "power_branch",
]
