"""Decision matrices built by posterior-density ordering, and the confidence
regions obtained by inverting them.

Each row fixes a null value eta and greedily admits outcomes in order of
decreasing posterior density relative to the prior, stopping once the
binomial mass of the admitted set reaches the required coverage. Outcomes
whose posterior densities coincide within a relative tolerance form a tie
group and are admitted or withheld as a unit, which keeps symmetric
configurations symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvtext import csv_text, point, value
from .distributions import (
    BetaPrior,
    BinomialModel,
    beta_binom_log_pmf_support,
    binom_log_pmf_support,
    binom_pmf_support,
    check_level,
    check_open_unit,
    check_outcome,
)

__all__ = [
    "TIE_RTOL",
    "ParameterGrid",
    "TestConfig",
    "DecisionRow",
    "DecisionMatrix",
    "ConfidenceRegion",
    "ThresholdOverflowError",
    "build_decision_row",
    "build_decision_matrix",
    "coverage",
    "type1_error",
    "confidence_region",
    "decision_matrix_to_csv",
    "decision_matrix_from_csv",
    "rows_summary_csv",
]

# Posterior densities within this relative distance of each other count as tied.
TIE_RTOL = 1e-12
# The same tolerance as a gap between log densities.
_LOG_TIE_TOL = -math.log1p(-TIE_RTOL)


@dataclass(frozen=True)
class ParameterGrid:
    """Ordered evaluation points in (0, 1) with normalized integration weights.

    ``weights`` sum to one and default to the relative cell widths of the
    points, i.e. a piecewise-constant rule scaled to a probability measure.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid needs at least one point")
        if wts.shape != pts.shape:
            raise ValueError("weights must align with points")
        if not (np.all(pts > 0.0) and np.all(pts < 1.0)):
            raise ValueError("grid points must lie strictly inside (0, 1)")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(wts < 0.0) or abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def regular(cls, count: int = 499, low: float = 0.002, high: float = 0.998) -> "ParameterGrid":
        """Equally spaced grid over [low, high] with uniform weights.

        Points are assembled as an exact mirror image about the midpoint so
        that symmetric priors see a symmetric grid down to the last bit.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if not (0.0 < low <= high < 1.0):
            raise ValueError("grid range must satisfy 0 < low <= high < 1")
        if count > 1 and low == high:
            raise ValueError("low < high required for more than one point")
        if count == 1:
            pts = np.array([(low + high) / 2.0])
        else:
            base = np.linspace(low, high, count)
            half = base[: count // 2]
            upper = (low + high) - half[::-1]
            middle = [np.array([(low + high) / 2.0])] if count % 2 else []
            pts = np.concatenate([half, *middle, upper])
        widths = _cell_widths(pts)
        return cls(points=pts, weights=widths / widths.sum())

    @property
    def cell_widths(self) -> np.ndarray:
        """Piecewise-constant cell width per point, from neighbour spacing."""
        return _cell_widths(self.points)

    def nearest_index(self, value: float, tol: float = 1e-9) -> int:
        """Index of the grid point closest to value; errors beyond tol."""
        idx = int(np.argmin(np.abs(self.points - value)))
        if abs(self.points[idx] - value) > tol:
            raise ValueError(f"{value!r} is not a grid point (nearest is {self.points[idx]!r})")
        return idx

    def __len__(self) -> int:
        return int(self.points.size)


def _cell_widths(pts: np.ndarray) -> np.ndarray:
    if pts.size == 1:
        return np.array([1.0])
    w = np.empty(pts.size)
    w[0] = pts[1] - pts[0]
    w[-1] = pts[-1] - pts[-2]
    w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    return w


@dataclass(frozen=True)
class TestConfig:
    """Test level plus the model, prior, and grid that define the procedure."""

    level: float
    model: BinomialModel
    prior: BetaPrior
    grid: ParameterGrid

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", check_level(self.level))


@dataclass(eq=False)
class DecisionRow:
    """Acceptance indicator over outcomes for one null value eta.

    ``threshold`` is the smallest posterior density g(x) = f_eta(x) / P_mix(x)
    among admitted outcomes, so the row equals {x : g(x) >= threshold} up to
    tie tolerance. ``achieved_coverage`` is the exact binomial mass of the
    admitted set under eta and always reaches at least 1 - level.
    """

    eta: float
    included: np.ndarray
    threshold: float
    achieved_coverage: float


@dataclass(eq=False)
class DecisionMatrix:
    """Every grid null's decision row, stored as arrays in grid order.

    With G grid points and n trials: ``included`` is bool (G, n+1),
    ``threshold`` and ``achieved_coverage`` are float (G,). Row j carries
    the meaning of a DecisionRow for the null ``config.grid.points[j]``.
    The arrays are made read-only, since consumers share them uncopied.
    """

    config: TestConfig
    included: np.ndarray
    threshold: np.ndarray
    achieved_coverage: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.included, self.threshold, self.achieved_coverage):
            arr.flags.writeable = False

    def inclusion_matrix(self) -> np.ndarray:
        """Boolean (grid x outcomes) array of the acceptance indicators."""
        return self.included


class ThresholdOverflowError(ValueError):
    """A row threshold is too large for a double and cannot be written."""


@dataclass(frozen=True)
class ConfidenceRegion:
    """Grid values accepted for one observed outcome.

    An empty region is representable: ``accepted`` has length zero, the
    bounds are NaN, and ``contiguous`` is vacuously true.
    """

    x_observed: int
    accepted: np.ndarray
    lower: float
    upper: float
    contiguous: bool

    @property
    def is_empty(self) -> bool:
        return self.accepted.size == 0


def _admit_tie_groups(order: np.ndarray, log_g: np.ndarray, mass: np.ndarray, target: float) -> np.ndarray:
    """Inclusion flags from admitting outcomes in ``order`` until ``mass`` reaches ``target``.

    ``order`` ranks the outcomes by descending ``log_g``. Adjacent ranked
    values chain into one tie group while their densities stay within
    TIE_RTOL of each other (equal infinities tie), and a tie group is
    admitted or withheld as a unit.
    """
    ranked = log_g[order]
    starts = np.concatenate(([0], np.flatnonzero(ranked[1:] < ranked[:-1] - _LOG_TIE_TOL) + 1))
    reached = np.cumsum(np.add.reduceat(mass[order], starts))
    # Groups enter up to and including the first that brings the mass to target.
    taken = int(np.count_nonzero(reached < target)) + 1
    stop = starts[taken] if taken < starts.size else order.size
    included = np.zeros(order.size, dtype=bool)
    included[order[:stop]] = True
    return included


def _row_summary(log_g: np.ndarray, mass: np.ndarray, included: np.ndarray) -> tuple:
    """(threshold, admitted mass) of a row, from its flags alone.

    Both are taken in natural outcome order, so a row rebuilt from its
    serialized flags is bit-identical. A threshold beyond the double range
    comes out as inf, without a warning.
    """
    with np.errstate(over="ignore"):
        threshold = float(np.exp(log_g[included].min()))
    return threshold, float(mass[included].sum())


def build_decision_row(eta: float, config: TestConfig, *, log_mix: np.ndarray | None = None) -> DecisionRow:
    """Construct the acceptance set for one null value.

    Parameters
    ----------
    eta : float
        Null parameter, strictly inside (0, 1).
    config : TestConfig
        Level, model, and prior. The grid is not consulted here.
    log_mix : ndarray, optional
        Precomputed log beta-binomial support, to avoid recomputing it when
        building many rows against the same prior.

    Returns
    -------
    DecisionRow
        Outcomes admitted in order of decreasing posterior density until the
        exact binomial mass under eta reaches 1 - level. Outcomes are ranked
        by log density, which stays finite where the density itself would
        overflow. Tie groups enter atomically; the threshold records the
        smallest admitted density.
    """
    eta = check_open_unit(eta)
    if log_mix is None:
        log_mix = beta_binom_log_pmf_support(config.model, config.prior)
    log_f = binom_log_pmf_support(config.model, eta)
    log_g = log_f - log_mix
    pmf = np.exp(log_f)
    order = np.argsort(-log_g, kind="stable")
    included = _admit_tie_groups(order, log_g, pmf, 1.0 - config.level)
    threshold, achieved = _row_summary(log_g, pmf, included)
    return DecisionRow(eta=eta, included=included, threshold=threshold, achieved_coverage=achieved)


def build_decision_matrix(config: TestConfig) -> DecisionMatrix:
    """Build one decision row per grid point. Deterministic in config."""
    log_mix = beta_binom_log_pmf_support(config.model, config.prior)
    rows = [build_decision_row(eta, config, log_mix=log_mix) for eta in config.grid.points]
    return DecisionMatrix(
        config=config,
        included=np.array([row.included for row in rows]),
        threshold=np.array([row.threshold for row in rows]),
        achieved_coverage=np.array([row.achieved_coverage for row in rows]),
    )


def _check_index(matrix: DecisionMatrix, eta_index: int) -> int:
    if isinstance(eta_index, bool) or not isinstance(eta_index, (int, np.integer)):
        raise IndexError(f"eta_index must be an integer, got {eta_index!r}")
    rows = len(matrix.included)
    if not 0 <= eta_index < rows:
        raise IndexError(f"eta_index {eta_index} outside 0..{rows - 1}")
    return int(eta_index)


def coverage(matrix: DecisionMatrix, theta: float, eta_index: int) -> float:
    """Probability under theta that the row at eta_index accepts the draw."""
    eta_index = _check_index(matrix, eta_index)
    pmf = binom_pmf_support(matrix.config.model, theta)
    return float(pmf[matrix.included[eta_index]].sum())


def type1_error(matrix: DecisionMatrix, eta_index: int) -> float:
    """1 - coverage(eta, eta): the exact rejection rate under the null itself."""
    eta_index = _check_index(matrix, eta_index)
    return 1.0 - coverage(matrix, matrix.config.grid.points[eta_index], eta_index)


def confidence_region(matrix: DecisionMatrix, x_observed: int) -> ConfidenceRegion:
    """Invert the matrix at one observed outcome (grid values accepting it)."""
    x_observed = check_outcome(x_observed, matrix.config.model)
    idx = np.flatnonzero(matrix.included[:, x_observed])
    accepted = matrix.config.grid.points[idx]
    if idx.size == 0:
        return ConfidenceRegion(x_observed, accepted, math.nan, math.nan, True)
    contiguous = bool(idx[-1] - idx[0] + 1 == idx.size)
    return ConfidenceRegion(
        x_observed=x_observed,
        accepted=accepted,
        lower=float(accepted[0]),
        upper=float(accepted[-1]),
        contiguous=contiguous,
    )


def _check_thresholds(matrix: DecisionMatrix) -> None:
    bad = np.flatnonzero(~np.isfinite(matrix.threshold))
    if bad.size:
        eta = point(matrix.config.grid.points[bad[0]])
        raise ThresholdOverflowError(f"threshold at eta {eta} does not fit in a double ({bad.size} rows overflow)")


def decision_matrix_to_csv(matrix: DecisionMatrix) -> str:
    """Long-form serialization: one line per (eta, x) pair.

    eta carries 6 decimal places and the row threshold 12 significant digits,
    repeated on every line of the row. Raises ThresholdOverflowError when a
    threshold is not finite.
    """
    _check_thresholds(matrix)
    outcomes = [str(x) for x in range(matrix.config.model.n + 1)]

    def lines():
        for eta, flags, thr in zip(matrix.config.grid.points, matrix.included, matrix.threshold):
            eta_s, thr_s = point(eta), value(thr)
            for x, flag in zip(outcomes, flags.tolist()):
                yield eta_s, x, "01"[flag], thr_s

    return csv_text("eta,x,included,threshold", lines())


def rows_summary_csv(matrix: DecisionMatrix) -> str:
    """Per-row summary: eta, threshold, achieved coverage.

    Raises ThresholdOverflowError when a threshold is not finite.
    """
    _check_thresholds(matrix)
    return csv_text(
        "eta,threshold,achieved_coverage",
        (
            (point(eta), value(thr), value(cov))
            for eta, thr, cov in zip(matrix.config.grid.points, matrix.threshold, matrix.achieved_coverage)
        ),
    )


def decision_matrix_from_csv(text: str, config: TestConfig) -> DecisionMatrix:
    """Rebuild a DecisionMatrix from its long-form CSV.

    The inclusion flags are taken verbatim from the file and matched to the
    grid of ``config`` by the printed eta strings. Coverage and threshold are
    recomputed from the flags, which restores values bit-identical to the
    originally built matrix; the threshold column is used as a consistency
    check at its printed precision.
    """
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "eta,x,included,threshold":
        raise ValueError("not a decision-matrix CSV: bad header")
    grid, n = config.grid, config.model.n
    row_of = {point(eta): j for j, eta in enumerate(grid.points)}
    included = np.zeros((len(grid), n + 1), dtype=bool)
    seen = np.zeros((len(grid), n + 1), dtype=bool)
    file_thr: list = [None] * len(grid)
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed line: {ln!r}")
        eta_s, x_s, inc_s, thr_s = parts
        if eta_s not in row_of:
            raise ValueError(f"eta {eta_s} is not a point of the config grid")
        j, x = row_of[eta_s], int(x_s)
        if not 0 <= x <= n:
            raise ValueError(f"outcome {x} outside support 0..{n}")
        if seen[j, x]:
            raise ValueError(f"duplicate outcome {x} for eta {eta_s}")
        if file_thr[j] not in (None, thr_s):
            raise ValueError(f"inconsistent threshold within eta {eta_s}")
        seen[j, x] = True
        file_thr[j] = thr_s
        included[j, x] = inc_s == "1"

    log_mix = beta_binom_log_pmf_support(config.model, config.prior)
    threshold = np.empty(len(grid))
    achieved = np.empty(len(grid))
    for j, eta in enumerate(grid.points):
        eta_s = point(eta)
        if not seen[j].any():
            raise ValueError(f"grid point {eta_s} missing from CSV")
        if not seen[j].all():
            raise ValueError(f"eta {eta_s} is missing outcomes")
        if not included[j].any():
            raise ValueError(f"eta {eta_s} has an empty acceptance row")
        log_f = binom_log_pmf_support(config.model, float(eta))
        threshold[j], achieved[j] = _row_summary(log_f - log_mix, np.exp(log_f), included[j])
        if not math.isclose(float(file_thr[j]), threshold[j], rel_tol=1e-9, abs_tol=0.0):
            raise ValueError(
                f"threshold mismatch for eta {eta_s}: file {float(file_thr[j])!r} vs recomputed {threshold[j]!r}"
            )
    return DecisionMatrix(config=config, included=included, threshold=threshold, achieved_coverage=achieved)
