"""Symmetric equal-tail binomial intervals and length comparison.

Endpoints are defined through the exact binomial tail sums, each side at
half the level. No incomplete-beta inverse is needed: the lower endpoint is
solved by a safeguarded Newton iteration on the tail sum that turns to
Halley steps near the root, two to four sums per endpoint, and the upper
endpoint is the lower one of the reflected outcome, since
P(X <= x | theta) = P(X >= n - x | 1 - theta).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .csvtext import csv_chunks, value
from .decisions import DecisionMatrix
from .distributions import BinomialModel, binom_log_pmf_support, binom_pmf_support, check_open_unit, check_outcome

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


# A Newton step returns its point once |ln(tail / half)| is this small: that
# point is then good to about the square, near the float resolution.
_CLOSE_G = 1e-7
# Within this |ln(tail / half)| the step is Halley's, and farther out
# Newton's: Halley steps taken at any |g| spent the whole budget on
# x = 960..992 at n = 1000 and level 1e-300.
_HALLEY_G = 0.1
# A Halley step's point is good to about the cube, so it returns from this g.
_HALLEY_CLOSE_G = 1e-5
# Tail sums one endpoint may spend, or it raises ValueError. The solver has needed
# at most 13, on every outcome for n up to 5000 at 13 levels from 0.999 down to
# 1e-323; bisection alone would need about 64.
_MAX_EVALS = 64


def _logit(t: float) -> float:
    return math.log(t) - math.log1p(-t)


def _expit(u: float) -> float:
    e = math.exp(-abs(u))
    return e / (1.0 + e) if u < 0.0 else 1.0 - e / (1.0 + e)


# The search bracket: logit of the least and of the greatest float inside (0, 1).
_LOGIT_MIN = _logit(math.ulp(0.0))
_LOGIT_MAX = _logit(math.nextafter(1.0, 0.0))


@functools.lru_cache
def _start_quantile(half: float) -> float:
    """z with P(Z > z) = ``half`` for a standard normal Z."""
    # Imported here: statistics adds about 2 ms to every program start, and
    # only the baseline needs it.
    from statistics import NormalDist

    return -NormalDist().inv_cdf(half)


def _wilson_start(n: int, x: int, half: float) -> float:
    """Continuity-corrected Wilson lower score bound at tail level ``half``: the solver's first point."""
    z = _start_quantile(half)
    k = x - 0.5
    z2 = z * z
    center = (k + z2 / 2.0) / (n + z2)
    spread = z * math.sqrt(k * (n - k) / n + z2 / 4.0) / (n + z2)
    t = center - spread
    return t if 0.0 < t < 1.0 else 0.5


def _log_tail(model: BinomialModel, x: int, t: float, half: float) -> tuple:
    """(ln(P(X >= x) / half), pmf[x] / P(X >= x)) at theta ``t``; (-inf, 0) where the tail is zero.

    A subnormal ``half`` keeps only a few bits, so below the normal floats the
    tail is summed in log space; above them the float sum needs fewer passes.
    """
    if half < sys.float_info.min:
        log_pmf = binom_log_pmf_support(model, t)
        log_tail = float(np.logaddexp.reduce(log_pmf[x:]))
        if log_tail == -math.inf:
            return -math.inf, 0.0
        return log_tail - math.log(half), math.exp(float(log_pmf[x]) - log_tail)
    pmf = binom_pmf_support(model, t)
    tail = float(pmf[x:].sum())
    if tail == 0.0:
        return -math.inf, 0.0
    return math.log(tail / half), float(pmf[x]) / tail


def _lower_endpoint(model: BinomialModel, x: int, half: float) -> float:
    """The theta where P(X >= x) = ``half``, for 1 <= x <= n; zero when ``half`` is.

    Safeguarded Newton on g = ln(tail / half) against u = logit(theta). g
    rises with u and is concave in it (its second derivative is the variance
    of X given X >= x less n theta (1 - theta), and truncation shrinks the
    variance of a log-concave law), so after one step the iterates close in
    on the root from below. Once |g| <= ``_HALLEY_G`` the step is Halley's,
    from the same pmf row: with s = g', g'' = s (x - (n + 1) theta - s). A
    step that leaves the bracket of signs seen so far, or that a zero tail
    leaves undefined, is replaced by the bracket's midpoint in u. Raises
    ValueError when ``_MAX_EVALS`` tail sums leave the root unsettled, rather
    than return an iterate it never evaluated.
    """
    if half == 0.0:
        return 0.0
    n = model.n
    lo, hi = _LOGIT_MIN, _LOGIT_MAX
    t = _wilson_start(n, x, half)
    u = _logit(t)
    for _ in range(_MAX_EVALS):
        g, share = _log_tail(model, x, t, half)
        if g < 0.0:
            lo = u
        else:
            hi = u
        # dg/du is (d tail / d theta) theta (1 - theta) / tail, and
        # d tail / d theta is (x / theta) pmf[x].
        slope = x * (1.0 - t) * share
        root, close = math.nan, _CLOSE_G
        if slope > 0.0:
            step = g / slope
            if abs(g) <= _HALLEY_G:
                # Halley's step is Newton's divided by 1 - g g'' / (2 g'^2).
                bend = 1.0 - g * (x - (n + 1) * t - slope) / (2.0 * slope)
                if bend > 0.0:
                    step, close = step / bend, _HALLEY_CLOSE_G
            root = u - step
        if abs(g) <= close and lo <= root <= hi:
            return _expit(root)
        u = root if lo < root < hi else (lo + hi) / 2.0
        next_t = _expit(u)
        if next_t == t:
            return t
        t = next_t
    raise ValueError(f"lower endpoint for x={x}, n={n} at tail level {half!r} unsettled after {_MAX_EVALS} sums")


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
