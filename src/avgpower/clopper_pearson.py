"""Symmetric equal-tail binomial intervals and length comparison.

Endpoints are defined through the exact binomial tail sums, each side at
half the level, and solved by a fixed bisection on [0, 1]: every midpoint is
decided by comparing the float tail sum with level/2, and the endpoint is
the midpoint of the final bracket. No incomplete-beta inverse is needed.

Most midpoints are decided without a tail sum. A safeguarded Newton
iteration first finds two certified points around the crossing: one whose
computed tail lies at least ``_MARGIN`` (1e-8) of level/2 on the false side
of the comparison, one at least that far on the true side. The float tail
is monotone in theta to far better than that margin, so every midpoint at or
beyond a certified point takes the decision a tail sum would give it, and
the bisection evaluates only the midpoints that fall between the two: about
nine tail sums per endpoint instead of 34, with bit-identical endpoints.
Below a half level of ``_CERTIFY_MIN_HALF`` (1e-290) the tails near it can
be subnormal and lose their relative precision, so nothing is certified and
every midpoint is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvtext import csv_text, value
from .decisions import DecisionMatrix, confidence_region
from .distributions import BinomialModel, binom_pmf_support, check_level, check_outcome

__all__ = [
    "BISECTION_TOL",
    "LengthComparison",
    "clopper_pearson",
    "cp_intervals",
    "compare_lengths",
    "comparison_csv",
]

BISECTION_TOL = 1e-10


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


# A computed tail this fraction of level/2 on one side of it decides every
# theta beyond it the same way: rounding moves a tail sum by under 1e-12
# relative at n = 1000 (against 40-digit sums), and grows with n.
_MARGIN = 1e-8
# Below this half level nothing is certified: tails near it may be subnormal.
_CERTIFY_MIN_HALF = 1e-290
# Newton stops once |ln(tail / half)| is this small; its next root estimate
# is then good to about the square, far inside the margin.
_NEWTON_CLOSE = 1e-5
# The probes sit this many margins of ln(tail / half) either side of the root.
_PROBE_SPAN = 1.25
# Tail sums Newton may spend before its certified points are taken as they
# are; it has needed at most 12 for n up to 2500.
_NEWTON_MAX_EVALS = 24
# A Newton step to a root within an ulp of one goes to the last float below it.
_BELOW_ONE = math.nextafter(1.0, 0.0)


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


def _logit(t: float) -> float:
    return math.log(t) - math.log1p(-t)


def _expit(u: float) -> float:
    e = math.exp(-abs(u))
    return e / (1.0 + e) if u < 0.0 else 1.0 - e / (1.0 + e)


def _wilson_start(n: int, x: int, half: float, upper: bool) -> float:
    """Continuity-corrected Wilson score bound at tail level ``half``: Newton's first point."""
    # Imported here: statistics adds about 2 ms to every program start, and
    # only the baseline needs it.
    from statistics import NormalDist

    z = -NormalDist().inv_cdf(half)
    k = x - 0.5 if upper else x + 0.5
    z2 = z * z
    center = (k + z2 / 2.0) / (n + z2)
    spread = z * math.sqrt(k * (n - k) / n + z2 / 4.0) / (n + z2)
    t = center - spread if upper else center + spread
    return t if 0.0 < t < 1.0 else 0.5


def _certified_points(model: BinomialModel, x: int, half: float, upper: bool) -> list:
    """[false_at, true_at]: thetas at or below false_at fail the endpoint's
    predicate and thetas at or above true_at pass it, both certified by a
    tail sum at least ``_MARGIN`` * half away from half.

    Safeguarded Newton on g = ±ln(tail / half), which rises with
    u = logit(theta) and is concave or convex in it, so the iterates close in
    from one side; a step that leaves the bracket of signs seen so far is
    replaced by the bracket's midpoint. Once |g| is within ``_NEWTON_CLOSE``,
    or the next step rounds to the current point, one probe on each side of
    the estimated root pulls both points in. A
    stalled iteration leaves them wide, which costs evaluations later but
    never changes a decision.
    """
    n = model.n
    part = slice(x, None) if upper else slice(None, x + 1)
    margin = _MARGIN * half
    certified = [0.0, 1.0]

    def visit(t: float) -> tuple:
        """g at t and dg/du, after recording t if its tail certifies it."""
        pmf = binom_pmf_support(model, t)
        tail = float(pmf[part].sum())
        excess = tail - half if upper else half - tail
        if excess <= -margin:
            certified[0] = max(certified[0], t)
        elif excess >= margin:
            certified[1] = min(certified[1], t)
        # d tail / d theta is (x / t) pmf[x] for P(X >= x) and
        # -((n - x) / (1 - t)) pmf[x] for P(X <= x); d theta / du = t (1 - t).
        rate = (x * (1.0 - t) if upper else (n - x) * t) * float(pmf[x])
        ratio = tail / half
        if ratio == 0.0 or rate == 0.0:
            return math.copysign(math.inf, excess), math.nan
        g = math.log(ratio)
        return (g if upper else -g), rate / tail

    lo, hi = 0.0, 1.0
    t = _wilson_start(n, x, half, upper)
    for _ in range(_NEWTON_MAX_EVALS):
        g, slope = visit(t)
        if certified[1] - certified[0] <= BISECTION_TOL:
            break
        if g < 0.0:
            lo = t
        else:
            hi = t
        root = _logit(t) - g / slope
        nt = min(_expit(root), _BELOW_ONE) if math.isfinite(root) else math.nan
        if abs(g) <= _NEWTON_CLOSE or nt == t:
            # Where floats are coarse in theta (near one) the probes step
            # at least two of them off the root.
            step = max(_PROBE_SPAN * _MARGIN / slope, 2.0 * math.ulp(t) / (t * (1.0 - t)))
            visit(_expit(root - step))
            visit(_expit(root + step))
            break
        t = nt if lo < nt < hi else (lo + hi) / 2.0
        if not lo < t < hi:
            break
    return certified


def _endpoint(model: BinomialModel, x: int, half: float, upper: bool) -> float:
    """The lower endpoint (``upper``: where P(X >= x) crosses ``half``) or the upper one (P(X <= x)).

    The bisection and its predicates are the plain ones, ``P(X >= x) > half``
    and ``P(X <= x) <= half`` on the same tail sums; a midpoint at or beyond
    a certified point is decided without its sum.
    """
    part = slice(x, None) if upper else slice(None, x + 1)

    def crossed(t: float) -> bool:
        tail = float(binom_pmf_support(model, t)[part].sum())
        return tail > half if upper else tail <= half

    false_at, true_at = 0.0, 1.0
    if half >= _CERTIFY_MIN_HALF:
        false_at, true_at = _certified_points(model, x, half, upper)
    return _bisect(lambda t: t >= true_at or (t > false_at and crossed(t)))


def clopper_pearson(x: int, model: BinomialModel, level: float) -> tuple:
    """Equal-tail interval (lower, upper) for x successes, each tail at level/2.

    Both endpoints are closed and lie in [0, 1]. The lower endpoint is the
    midpoint of the final bracket of a bisection on [0, 1], to width 1e-10,
    for the smallest theta whose upper tail P(X >= x) exceeds level/2 (zero
    when x = 0); the upper endpoint mirrors it with P(X <= x) <= level/2
    (one when x = n). Midpoints beyond the two points certified by a Newton
    search are decided without a tail sum, which leaves every endpoint
    bit-identical to the plain bisection; see the module docstring for the
    margin and the subnormal cut-off.
    """
    x = check_outcome(x, model)
    half = check_level(level) / 2.0
    # P(X >= x | theta) increases from 0 to 1; P(X <= x | theta) decreases from 1 to 0.
    lower = 0.0 if x == 0 else _endpoint(model, x, half, upper=True)
    upper = 1.0 if x == model.n else _endpoint(model, x, half, upper=False)
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
    regions = [confidence_region(matrix, x) for x in config.model.outcomes()]
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
