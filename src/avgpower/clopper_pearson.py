"""Symmetric equal-tail binomial intervals and length comparison.

Endpoints are defined through the exact binomial tail sums, each side at
half the level. The lower endpoint is solved by a safeguarded Newton
iteration on the tail sum that turns to Halley steps near the root. It
starts at the exact root for x = 1 and x = n and at an approximate
incomplete-beta inverse between them, so most endpoints take two sums and
none more than four at levels down to 1e-9. The upper endpoint is the
lower one of the reflected outcome, since
P(X <= x | theta) = P(X >= n - x | 1 - theta).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .csvtext import template_chunks, value
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
# at most 8, on every outcome for n in {1, 2, 3, 5, 10, 20, 50, 100, 333, 1000,
# 2000, 5000} at 13 levels from 0.999 down to 1e-323. It needs 8 only for x >= n - 5
# at levels 1e-100 to 1e-307 and n >= 2000, where the start is weakest, and it
# bisects only for x = 1 at levels 1e-320 and 1e-323; bisection alone would need
# about 64.
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


def _start(n: int, x: int, half: float) -> float:
    """The solver's first point: the theta where P(X >= x) = ``half``, exact or approximate.

    P(X >= x) is I_theta(x, n - x + 1), so the root is the lower-tail
    ``half`` quantile of Beta(x, n - x + 1). It is exact for x = n, where the
    tail is theta^n, and for x = 1, where it is 1 - (1 - theta)^n; between
    them it is Abramowitz & Stegun's 26.5.22, from the normal quantile of
    ``half``. Where the point leaves (0, 1), the least positive float takes
    its place: that happens for x = 1 at subnormal levels, whose root rounds
    to that float or below it, and the solver then settles in one sum.
    """
    if x == n:
        t = math.exp(math.log(half) / n)
    elif x == 1:
        t = -math.expm1(math.log1p(-half) / n)
    else:
        a, b = x, n - x + 1
        y = _start_quantile(half)
        lam = (y * y - 3.0) / 6.0
        ra, rb = 1.0 / (2 * a - 1), 1.0 / (2 * b - 1)
        h = 2.0 / (ra + rb)
        w = y * math.sqrt(h + lam) / h - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        # theta = a / (a + b exp(2 w)), taken through its logit so that exp(2 w) cannot overflow.
        t = _expit(math.log(a / b) - 2.0 * w)
    return t if 0.0 < t < 1.0 else math.ulp(0.0)


def _log_tail(model: BinomialModel, x: int, t: float, half: float) -> tuple:
    """(ln(P(X >= x) / half), pmf[x] / P(X >= x)) at theta ``t``.

    Above the normal floats the tail is a float sum, which needs fewer
    passes. Where that sum underflows to zero, and below the normal floats,
    where ``half`` keeps only a few bits, the tail is summed in log space,
    whose sum is finite at every theta of the search bracket.
    """
    if half >= sys.float_info.min:
        pmf = binom_pmf_support(model, t)
        tail = float(np.add.reduce(pmf[x:]))
        if tail > 0.0:
            return math.log(tail / half), float(pmf[x]) / tail
    log_pmf = binom_log_pmf_support(model, t)
    log_tail = float(np.logaddexp.reduce(log_pmf[x:]))
    return log_tail - math.log(half), math.exp(float(log_pmf[x]) - log_tail)


def _lower_endpoint(model: BinomialModel, x: int, half: float) -> float:
    """The theta where P(X >= x) = ``half``, for 1 <= x <= n; zero when ``half`` is.

    Safeguarded Newton on g = ln(tail / half) against u = logit(theta),
    from ``_start``. g rises with u and is concave in it (its second
    derivative is the variance of X given X >= x less n theta (1 - theta),
    and truncation shrinks the variance of a log-concave law), so after one
    step the iterates close in on the root from below. Once |g| <= ``_HALLEY_G`` the step is Halley's,
    from the same pmf row: with s = g', g'' = s (x - (n + 1) theta - s). A
    step that leaves the bracket of signs seen so far, or that a share
    underflowing to zero leaves undefined, is replaced by the bracket's
    midpoint in u. Raises ValueError when ``_MAX_EVALS`` tail sums leave the
    root unsettled, rather than return an iterate it never evaluated.
    """
    if half == 0.0:
        return 0.0
    n = model.n
    lo, hi = _LOGIT_MIN, _LOGIT_MAX
    t = _start(n, x, half)
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
    lines = [",".join([str(x), *map(field, ends)]) for x, ends in enumerate(zip(*columns))]
    return template_chunks("x,cp_lower,cp_upper,prop_lower,prop_upper", "%s\n", lines)


def comparison_csv(comparison: LengthComparison) -> str:
    """Serialize the endpoint table: x,cp_lower,cp_upper,prop_lower,prop_upper.

    An empty proposed region, NaN in the comparison, leaves its two endpoint
    fields empty.
    """
    return "".join(_comparison_chunks(comparison))
