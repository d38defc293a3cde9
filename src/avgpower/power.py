"""Power evaluation for decision matrices: pointwise, curve, and averaged.

Three averages appear. Fixing the data-generating value theta and averaging
over null values gives the per-theta average. Fixing the null and mixing the
data-generating value over a prior gives the mixed power, available in closed
form through the beta-binomial. Averaging over both gives a single scalar.

The double average uses one piecewise-constant grid measure (prior density
times cell width) on both axes, kept unnormalized so the two iterated sums
are literally the same finite double sum and agree to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvtext import grid_chunks, point, template_chunks, value
from .decisions import DecisionMatrix, _check_index
from .distributions import (
    BetaPrior,
    beta_binom_pmf_support,
    beta_log_pdf,
    binom_pmf_rows,
    binom_pmf_support,
)

__all__ = [
    "AveragePowerReport",
    "power",
    "power_curve",
    "avg_power_given_theta",
    "mixed_power_given_eta",
    "average_power_report",
    "overall_avg_power",
    "overall_power_grid",
    "power_curves_csv",
    "mixed_power_csv",
    "avg_power_csv",
    "power_table_csv",
]

TABLE_CORNER = "Average power"
TABLE_COLUMNS = ("Informative test", "Non-informative test")
TABLE_ROWS = (
    "Informative distribution of hypotheses",
    "Non-informative distribution of hypotheses",
)


@dataclass(frozen=True)
class AveragePowerReport:
    """Grid-measure power averages for one matrix and averaging prior.

    ``weights`` is the unnormalized grid measure w (total z) on both axes, and
    ``per_theta / z`` is the per-theta average power. ``overall``, the double
    sum over w (``w @ per_theta`` or ``w @ per_eta``), exceeds 1 when z does.
    """

    weights: np.ndarray
    per_theta: np.ndarray
    per_eta: np.ndarray
    overall: float


def _rejection(matrix: DecisionMatrix, pmf: np.ndarray) -> np.ndarray:
    """Rejection probability at every grid null for outcomes drawn from pmf."""
    return np.clip(1.0 - matrix.inclusion_matrix().astype(float) @ pmf, 0.0, 1.0)


def power(matrix: DecisionMatrix, theta: float, eta_index: int) -> float:
    """Probability under theta of rejecting the null at eta_index."""
    eta_index = _check_index(matrix, eta_index)
    return float(power_curve(matrix, theta)[eta_index])


def power_curve(matrix: DecisionMatrix, theta: float) -> np.ndarray:
    """Power against every grid null for draws from theta, as a (G,) array in grid order."""
    return _rejection(matrix, binom_pmf_support(matrix.config.model, theta))


def _grid_measure(matrix: DecisionMatrix, prior: BetaPrior) -> np.ndarray:
    """Unnormalized piecewise-constant measure: prior density times cell width.

    Raises ValueError, naming the prior, when the total is not finite and
    positive: a prior whose mass the grid misses, or whose density
    overflows at a grid point, has no grid average.
    """
    grid = matrix.config.grid
    with np.errstate(over="ignore"):
        w = np.exp(beta_log_pdf(grid.points, prior)) * grid.cell_widths
    z = float(w.sum())
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(
            f"the grid measure of the prior Beta({prior.a!r}, {prior.b!r}) totals {z!r} on the "
            f"{len(grid)}-point grid; averages need a finite positive total"
        )
    return w


def _per_theta(d: np.ndarray, w: np.ndarray, pmfs: np.ndarray) -> np.ndarray:
    """Power summed over the nulls under measure w, z - pmfs @ (D^T w), for each pmf.

    d is the inclusion matrix D as floats.
    """
    return w.sum() - pmfs @ (d.T @ w)


def avg_power_given_theta(matrix: DecisionMatrix, theta: float) -> float:
    """Average power over grid nulls for one theta, under the matrix's prior.

    Null values are weighted by the construction prior's grid measure,
    renormalized to sum to one. theta need not be a grid point.
    """
    w = _grid_measure(matrix, matrix.config.prior)
    pmf = binom_pmf_support(matrix.config.model, theta)
    d = matrix.inclusion_matrix().astype(float)
    return float(np.clip(_per_theta(d, w, pmf) / w.sum(), 0.0, 1.0))


def mixed_power_given_eta(matrix: DecisionMatrix, eta_index: int) -> float:
    """Rejection probability at one null when theta is drawn from the prior.

    Uses the exact beta-binomial marginal of the construction prior, so no
    quadrature over theta is involved.
    """
    eta_index = _check_index(matrix, eta_index)
    bb = beta_binom_pmf_support(matrix.config.model, matrix.config.prior)
    return float(_rejection(matrix, bb)[eta_index])


def _average(d: np.ndarray, w: np.ndarray, kernel: np.ndarray) -> AveragePowerReport:
    """Both partial contractions of the double sum, and the sum itself, for D as floats, measure w and kernel P."""
    per_theta = _per_theta(d, w, kernel)
    per_eta = w.sum() - d @ (w @ kernel)
    return AveragePowerReport(weights=w, per_theta=per_theta, per_eta=per_eta, overall=float(w @ per_theta))


def average_power_report(matrix: DecisionMatrix, averaging_prior: BetaPrior) -> AveragePowerReport:
    """Average the power over both axes with one shared grid measure.

    The averaging prior supplies the weights for the null values and, through
    the same measure applied on the theta axis, the mixture of the data
    distribution. It may differ from the prior the matrix was built with.

    With D the inclusion matrix, P the binomial kernel at the grid points,
    and w the measure, the double sum is

        overall = sum_t w_t * (Z - sum_x P[t, x] * (D^T w)[x]),  Z = sum(w)

    and per_theta, per_eta are its two partial contractions. Raises
    ValueError when the prior's grid measure has no finite positive total.
    """
    w = _grid_measure(matrix, averaging_prior)
    kernel = binom_pmf_rows(matrix.config.model, matrix.config.grid.points)
    return _average(matrix.inclusion_matrix().astype(float), w, kernel)


def overall_avg_power(matrix: DecisionMatrix, averaging_prior: BetaPrior) -> float:
    """Scalar double average of power under one averaging prior."""
    return average_power_report(matrix, averaging_prior).overall


def overall_power_grid(matrices: Sequence[DecisionMatrix], priors: Sequence[BetaPrior]) -> np.ndarray:
    """Overall average power for every (averaging prior, matrix) pair, as a (len(priors), len(matrices)) array.

    The binomial kernel P is evaluated once per distinct model and grid and
    shared by the matrices on it; each D is cast to floats once, for every prior.
    """
    kernels: dict = {}
    cells = np.empty((len(priors), len(matrices)))
    for j, m in enumerate(matrices):
        key = (m.config.model, m.config.grid.points.tobytes())
        if key not in kernels:
            kernels[key] = binom_pmf_rows(m.config.model, m.config.grid.points)
        d = m.inclusion_matrix().astype(float)
        cells[:, j] = [_average(d, _grid_measure(m, p), kernels[key]).overall for p in priors]
        del d  # before the next cast, so at most one float copy of D is live beside P
    return cells


def _power_curves_chunks(matrix: DecisionMatrix, thetas: Sequence[float]):
    """The chunks of ``power_curves_csv``. Every curve is evaluated here, so a bad theta raises before any chunk."""
    curves = np.asarray([power_curve(matrix, theta) for theta in thetas], dtype=float)
    # Each theta and grid point is formatted once, however many lines repeat it.
    etas = [point(eta) for eta in matrix.config.grid.points.tolist()]
    fields = [None] * (3 * curves.size)
    fields[0::3] = [theta for theta in map(point, thetas) for _ in etas]
    fields[1::3] = etas * len(curves)
    fields[2::3] = curves.ravel().tolist()
    return template_chunks("theta,eta,power", "%s,%s,%.12g\n", fields)


def power_curves_csv(matrix: DecisionMatrix, thetas: Sequence[float]) -> str:
    """The power curve of every theta in long form: theta,eta,power."""
    return "".join(_power_curves_chunks(matrix, thetas))


def _mixed_power_chunks(matrix: DecisionMatrix):
    """The chunks of ``mixed_power_csv``."""
    values = _rejection(matrix, beta_binom_pmf_support(matrix.config.model, matrix.config.prior))
    return grid_chunks("eta,mixed_power", matrix.config.grid.points, values)


def mixed_power_csv(matrix: DecisionMatrix) -> str:
    """Mixed power at every grid null: eta,mixed_power."""
    return "".join(_mixed_power_chunks(matrix))


def _avg_power_chunks(matrix: DecisionMatrix):
    """The chunks of ``avg_power_csv``; the grid measure is checked here."""
    report = average_power_report(matrix, matrix.config.prior)
    values = np.clip(report.per_theta / report.weights.sum(), 0.0, 1.0)
    return grid_chunks("theta,avg_power", matrix.config.grid.points, values)


def avg_power_csv(matrix: DecisionMatrix) -> str:
    """Per-theta average power at every grid point, under the matrix's prior: theta,avg_power."""
    return "".join(_avg_power_chunks(matrix))


def _power_table_chunks(values: np.ndarray):
    """The chunks of ``power_table_csv``; the shape is checked here."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(TABLE_ROWS), len(TABLE_COLUMNS)):
        raise ValueError(f"table shape {values.shape} is not 2x2")
    lines = [",".join([lab, *(value(v) for v in row)]) for lab, row in zip(TABLE_ROWS, values)]
    return template_chunks(",".join([TABLE_CORNER, *TABLE_COLUMNS]), "%s\n", lines)


def power_table_csv(values: np.ndarray) -> str:
    """Render the 2x2 table of overall powers as CSV.

    Rows follow TABLE_ROWS (the averaging priors) and columns TABLE_COLUMNS
    (the tests), with TABLE_CORNER in the corner.
    """
    return "".join(_power_table_chunks(values))
