"""Symmetric equal-tail binomial intervals and length comparison.

Endpoints are defined through the exact binomial tail sums, each side at
half the level, and solved by bisection. No incomplete-beta inverse is
needed at the cost of a few dozen tail evaluations per endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvtext import csv_text, value
from .decisions import DecisionMatrix, confidence_region
from .distributions import BinomialModel, binom_pmf_support, check_level, check_outcome

__all__ = [
    "BISECTION_TOL",
    "CpInterval",
    "LengthComparison",
    "clopper_pearson",
    "cp_intervals",
    "compare_lengths",
    "comparison_csv",
]

BISECTION_TOL = 1e-10


@dataclass(frozen=True)
class CpInterval:
    """Equal-tail interval for one outcome; closed endpoints in [0, 1]."""

    x: int
    lower: float
    upper: float


@dataclass(frozen=True)
class LengthComparison:
    """Per-outcome endpoints of both intervals plus mean lengths and the grid step.

    The four endpoint arrays have shape (n+1,) and are indexed by the
    outcome x; an empty proposed region has NaN endpoints. Proposed lengths
    are measured on the grid (last accepted point minus first), so they
    carry up to one grid step of resolution slack; the step is reported
    alongside the means for that reason.
    """

    cp_lower: np.ndarray
    cp_upper: np.ndarray
    prop_lower: np.ndarray
    prop_upper: np.ndarray
    mean_cp_length: float
    mean_proposed_length: float
    grid_step: float


def _upper_tail(model: BinomialModel, x: int, theta: float) -> float:
    return float(binom_pmf_support(model, theta)[x:].sum())


def _lower_tail(model: BinomialModel, x: int, theta: float) -> float:
    return float(binom_pmf_support(model, theta)[: x + 1].sum())


def _bisect(predicate) -> float:
    """Midpoint of the final bracket where ``predicate`` turns true on [0, 1].

    ``predicate`` must be false below the crossing and true above it.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_TOL:
        mid = (lo + hi) / 2.0
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def clopper_pearson(x: int, model: BinomialModel, level: float) -> CpInterval:
    """Equal-tail interval for x successes, each tail at level/2.

    The lower endpoint is the smallest theta whose upper tail P(X >= x)
    exceeds level/2 (zero when x = 0); the upper endpoint mirrors it. Both
    are found by bisection on the exact tail sums to within 1e-10.
    """
    x = check_outcome(x, model)
    half = check_level(level) / 2.0
    # P(X >= x | theta) increases from 0 to 1; P(X <= x | theta) decreases from 1 to 0.
    lower = 0.0 if x == 0 else _bisect(lambda t: _upper_tail(model, x, t) > half)
    upper = 1.0 if x == model.n else _bisect(lambda t: _lower_tail(model, x, t) <= half)
    return CpInterval(x=x, lower=lower, upper=upper)


def cp_intervals(model: BinomialModel, level: float) -> list:
    """Intervals for every outcome 0..n."""
    return [clopper_pearson(x, model, level) for x in model.outcomes()]


def compare_lengths(matrix: DecisionMatrix) -> LengthComparison:
    """Endpoint table and mean lengths, proposed regions vs the baseline.

    The baseline is computed at the matrix's own level. Empty proposed
    regions contribute NaN endpoints and zero length.
    """
    config = matrix.config
    grid_pts = config.grid.points
    step = float(np.max(np.diff(grid_pts))) if grid_pts.size > 1 else 0.0
    cps = cp_intervals(config.model, config.level)
    regions = [confidence_region(matrix, x) for x in config.model.outcomes()]
    cp_lower = np.array([cp.lower for cp in cps])
    cp_upper = np.array([cp.upper for cp in cps])
    prop_lower = np.array([region.lower for region in regions])
    prop_upper = np.array([region.upper for region in regions])
    prop_lengths = np.where(np.isnan(prop_lower), 0.0, prop_upper - prop_lower)
    return LengthComparison(
        cp_lower=cp_lower,
        cp_upper=cp_upper,
        prop_lower=prop_lower,
        prop_upper=prop_upper,
        mean_cp_length=float(np.mean(cp_upper - cp_lower)),
        mean_proposed_length=float(np.mean(prop_lengths)),
        grid_step=step,
    )


def comparison_csv(comparison: LengthComparison) -> str:
    """Serialize the endpoint table: x,cp_lower,cp_upper,prop_lower,prop_upper."""
    columns = (comparison.cp_lower, comparison.cp_upper, comparison.prop_lower, comparison.prop_upper)
    return csv_text(
        "x,cp_lower,cp_upper,prop_lower,prop_upper",
        ([str(x), *map(value, ends)] for x, ends in enumerate(zip(*columns))),
    )
