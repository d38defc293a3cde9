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
    "ComparisonRow",
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
class ComparisonRow:
    """Baseline and proposed interval endpoints for one outcome."""

    x: int
    cp_lower: float
    cp_upper: float
    prop_lower: float
    prop_upper: float


@dataclass(frozen=True)
class LengthComparison:
    """Per-outcome endpoint table plus mean lengths and the grid step.

    Proposed lengths are measured on the grid (last accepted point minus
    first), so they carry up to one grid step of resolution slack; the step
    is reported alongside the means for that reason.
    """

    rows: list
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

    rows = []
    cp_lengths = []
    prop_lengths = []
    for x in config.model.outcomes():
        cp = clopper_pearson(x, config.model, config.level)
        region = confidence_region(matrix, x)
        rows.append(
            ComparisonRow(
                x=x,
                cp_lower=cp.lower,
                cp_upper=cp.upper,
                prop_lower=region.lower,
                prop_upper=region.upper,
            )
        )
        cp_lengths.append(cp.upper - cp.lower)
        prop_lengths.append(0.0 if region.is_empty else region.upper - region.lower)
    return LengthComparison(
        rows=rows,
        mean_cp_length=float(np.mean(cp_lengths)),
        mean_proposed_length=float(np.mean(prop_lengths)),
        grid_step=step,
    )


def comparison_csv(comparison: LengthComparison) -> str:
    """Serialize the endpoint table: x,cp_lower,cp_upper,prop_lower,prop_upper."""
    return csv_text(
        "x,cp_lower,cp_upper,prop_lower,prop_upper",
        (
            [str(row.x), *(value(v) for v in (row.cp_lower, row.cp_upper, row.prop_lower, row.prop_upper))]
            for row in comparison.rows
        ),
    )
