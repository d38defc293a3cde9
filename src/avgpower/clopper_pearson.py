"""Symmetric equal-tail binomial intervals and length comparison.

Endpoints are defined through the exact binomial tail sums, each side at
half the level. No incomplete-beta inverse is needed: the lower endpoint is
solved by a safeguarded Newton iteration on the float tail sum, about four
sums per endpoint, and the upper endpoint is the lower one of the reflected
outcome, since P(X <= x | theta) = P(X >= n - x | 1 - theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvtext import csv_chunks, value
from .decisions import DecisionMatrix
from .distributions import BinomialModel, binom_pmf_support, check_open_unit, check_outcome

__all__ = [
    "LengthComparison",
    "clopper_pearson",
    "cp_intervals",
    "compare_lengths",
    "comparison_csv",
]


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


# Newton returns its next point once |ln(tail / half)| is this small: that
# point is then good to about the square, near the float resolution.
_CLOSE_G = 1e-7
# Tail sums one endpoint may spend, or it raises ValueError. Newton has needed at
# most 14 for n up to 5000 and levels down to 1e-323; bisection alone would need about 64.
_MAX_EVALS = 64


def _logit(t: float) -> float:
    return math.log(t) - math.log1p(-t)


def _expit(u: float) -> float:
    e = math.exp(-abs(u))
    return e / (1.0 + e) if u < 0.0 else 1.0 - e / (1.0 + e)


# The search bracket: logit of the least and of the greatest float inside (0, 1).
_LOGIT_MIN = _logit(math.ulp(0.0))
_LOGIT_MAX = _logit(math.nextafter(1.0, 0.0))


def _wilson_start(n: int, x: int, half: float) -> float:
    """Continuity-corrected Wilson lower score bound at tail level ``half``: Newton's first point."""
    # Imported here: statistics adds about 2 ms to every program start, and
    # only the baseline needs it.
    from statistics import NormalDist

    z = -NormalDist().inv_cdf(half)
    k = x - 0.5
    z2 = z * z
    center = (k + z2 / 2.0) / (n + z2)
    spread = z * math.sqrt(k * (n - k) / n + z2 / 4.0) / (n + z2)
    t = center - spread
    return t if 0.0 < t < 1.0 else 0.5


def _lower_endpoint(model: BinomialModel, x: int, half: float) -> float:
    """The theta where P(X >= x) = ``half``, for 1 <= x <= n; zero when ``half`` is.

    Safeguarded Newton on g = ln(tail / half) against u = logit(theta). g
    rises with u and is concave in it (its second derivative is the variance
    of X given X >= x less n theta (1 - theta), and truncation shrinks the
    variance of a log-concave law), so after one step the iterates close in
    on the root from below. A step that leaves the bracket of signs seen so
    far, or that a zero tail leaves undefined, is replaced by the bracket's
    midpoint in u. Raises ValueError when ``_MAX_EVALS`` tail sums leave the
    root unsettled, rather than return an iterate it never evaluated.
    """
    if half == 0.0:
        return 0.0
    lo, hi = _LOGIT_MIN, _LOGIT_MAX
    t = _wilson_start(model.n, x, half)
    u = _logit(t)
    for _ in range(_MAX_EVALS):
        pmf = binom_pmf_support(model, t)
        tail = float(pmf[x:].sum())
        g = math.log(tail / half) if tail > 0.0 else -math.inf
        if g < 0.0:
            lo = u
        else:
            hi = u
        # dg/du is (d tail / d theta) theta (1 - theta) / tail, and
        # d tail / d theta is (x / theta) pmf[x].
        slope = x * (1.0 - t) * float(pmf[x]) / tail if tail > 0.0 else 0.0
        root = u - g / slope if slope > 0.0 else math.nan
        if abs(g) <= _CLOSE_G and lo <= root <= hi:
            return _expit(root)
        u = root if lo < root < hi else (lo + hi) / 2.0
        next_t = _expit(u)
        if next_t == t:
            return t
        t = next_t
    raise ValueError(f"lower endpoint for x={x}, n={model.n} at tail level {half!r} unsettled after {_MAX_EVALS} sums")


def clopper_pearson(x: int, model: BinomialModel, level: float) -> tuple:
    """Equal-tail interval (lower, upper) for x successes, each tail at level/2.

    Both endpoints are closed and lie in [0, 1]. The lower endpoint is the
    theta where the upper tail P(X >= x) equals level/2 (zero when x = 0);
    the upper endpoint is the theta where P(X <= x) equals level/2 (one when
    x = n), taken by reflection as one minus the lower endpoint for n - x.
    When level/2 underflows to zero the interval is its limit, [0, 1].
    """
    x = check_outcome(x, model)
    half = check_open_unit(level, "level") / 2.0
    n = model.n
    lower = 0.0 if x == 0 else _lower_endpoint(model, x, half)
    upper = 1.0 if x == n else 1.0 - _lower_endpoint(model, n - x, half)
    return lower, upper


def cp_intervals(model: BinomialModel, level: float) -> tuple:
    """(lower, upper) endpoint arrays of shape (n+1,), indexed by the outcome 0..n."""
    lower, upper = np.array([clopper_pearson(x, model, level) for x in model.outcomes()]).T
    return lower, upper


def compare_lengths(matrix: DecisionMatrix) -> LengthComparison:
    """Endpoint table and mean lengths, proposed regions vs the baseline.

    The baseline is computed at the matrix's own level. Empty proposed
    regions contribute NaN endpoints and zero length.
    """
    config = matrix.config
    grid_pts = config.grid.points
    step = float(np.max(np.diff(grid_pts))) if grid_pts.size > 1 else 0.0
    cp_lower, cp_upper = cp_intervals(config.model, config.level)
    # Each outcome's region runs from the first to the last grid row that
    # accepts it, as confidence_region reads its column.
    accepts = matrix.included
    empty = ~accepts.any(axis=0)
    prop_lower = np.where(empty, math.nan, grid_pts[accepts.argmax(axis=0)])
    prop_upper = np.where(empty, math.nan, grid_pts[::-1][accepts[::-1].argmax(axis=0)])
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


def _comparison_chunks(comparison: LengthComparison):
    """The chunks of ``comparison_csv``."""

    def field(end: float) -> str:
        return "" if math.isnan(end) else value(end)

    columns = [
        column.tolist()
        for column in (comparison.cp_lower, comparison.cp_upper, comparison.prop_lower, comparison.prop_upper)
    ]
    return csv_chunks(
        "x,cp_lower,cp_upper,prop_lower,prop_upper",
        ([str(x), *map(field, ends)] for x, ends in enumerate(zip(*columns))),
    )


def comparison_csv(comparison: LengthComparison) -> str:
    """Serialize the endpoint table: x,cp_lower,cp_upper,prop_lower,prop_upper.

    An empty proposed region, NaN in the comparison, leaves its two endpoint
    fields empty.
    """
    return "".join(_comparison_chunks(comparison))
