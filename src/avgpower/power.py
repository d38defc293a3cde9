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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvtext import csv_text, point, value
from .decisions import DecisionMatrix, coverage, _check_index
from .distributions import (
    BetaPrior,
    beta_binom_pmf_support,
    beta_log_pdf,
    binom_pmf_support,
)

__all__ = [
    "PowerCurve",
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


@dataclass(frozen=True)
class PowerCurve:
    """Rejection probability against every grid null for one fixed theta."""

    theta: float
    values: np.ndarray


@dataclass(frozen=True)
class AveragePowerReport:
    """Grid-measure power averages for one matrix and averaging prior.

    ``weights`` is the unnormalized grid measure shared by both axes.
    ``overall`` equals the weighted sum of ``per_theta`` and of ``per_eta``;
    the three are different contractions of one double sum.
    """

    weights: np.ndarray
    per_theta: np.ndarray
    per_eta: np.ndarray
    overall: float


def power(matrix: DecisionMatrix, theta: float, eta_index: int) -> float:
    """Probability under theta of rejecting the null at eta_index."""
    return float(np.clip(1.0 - coverage(matrix, theta, eta_index), 0.0, 1.0))


def power_curve(matrix: DecisionMatrix, theta: float) -> PowerCurve:
    """Power against every grid null for draws from theta."""
    pmf = binom_pmf_support(matrix.config.model, theta)
    values = np.clip(1.0 - matrix.inclusion_matrix().astype(float) @ pmf, 0.0, 1.0)
    return PowerCurve(theta=float(theta), values=values)


def _grid_measure(matrix: DecisionMatrix, prior: BetaPrior) -> np.ndarray:
    """Unnormalized piecewise-constant measure: prior density times cell width."""
    grid = matrix.config.grid
    dens = np.exp(np.array([beta_log_pdf(t, prior) for t in grid.points]))
    return dens * grid.cell_widths


def _weighted_power(matrix: DecisionMatrix, w: np.ndarray, theta: float) -> float:
    return float(w @ power_curve(matrix, theta).values / w.sum())


def avg_power_given_theta(matrix: DecisionMatrix, theta: float) -> float:
    """Average power over grid nulls for one theta, under the matrix's prior.

    Null values are weighted by the construction prior's density at the grid
    points, renormalized to sum to one.
    """
    return _weighted_power(matrix, _grid_measure(matrix, matrix.config.prior), theta)


def _mixed_power(bb: np.ndarray, included: np.ndarray) -> float:
    return float(np.clip(1.0 - bb[included].sum(), 0.0, 1.0))


def mixed_power_given_eta(matrix: DecisionMatrix, eta_index: int) -> float:
    """Rejection probability at one null when theta is drawn from the prior.

    Uses the exact beta-binomial marginal of the construction prior, so no
    quadrature over theta is involved.
    """
    eta_index = _check_index(matrix, eta_index)
    bb = beta_binom_pmf_support(matrix.config.model, matrix.config.prior)
    return _mixed_power(bb, matrix.included[eta_index])


def average_power_report(matrix: DecisionMatrix, averaging_prior: BetaPrior) -> AveragePowerReport:
    """Average the power over both axes with one shared grid measure.

    The averaging prior supplies the weights for the null values and, through
    the same measure applied on the theta axis, the mixture of the data
    distribution. It may differ from the prior the matrix was built with.

    With D the inclusion matrix, P the binomial kernel at the grid points,
    and w the measure, the double sum is

        overall = sum_j w_j * (Z - sum_x D[j, x] * (w @ P)[x]),  Z = sum(w)

    and per_theta, per_eta are its two partial contractions.
    """
    grid = matrix.config.grid
    w = _grid_measure(matrix, averaging_prior)
    z = float(w.sum())
    d = matrix.inclusion_matrix().astype(float)
    p = np.array([binom_pmf_support(matrix.config.model, t) for t in grid.points])
    data_mix = w @ p
    accept_mass = d.T @ w
    per_theta = z - p @ accept_mass
    per_eta = z - d @ data_mix
    overall = float(z * z - data_mix @ accept_mass)
    return AveragePowerReport(weights=w, per_theta=per_theta, per_eta=per_eta, overall=overall)


def overall_avg_power(matrix: DecisionMatrix, averaging_prior: BetaPrior) -> float:
    """Scalar double average of power under one averaging prior."""
    return average_power_report(matrix, averaging_prior).overall


def overall_power_grid(matrices: Sequence[DecisionMatrix], priors: Sequence[BetaPrior]) -> np.ndarray:
    """Overall average power for every (averaging prior, matrix) pair.

    Rows follow ``priors``, columns follow ``matrices``.
    """
    return np.array([[overall_avg_power(m, p) for m in matrices] for p in priors])


def power_curves_csv(curves: Sequence[PowerCurve], grid_points: np.ndarray) -> str:
    """Stack curves into long form: theta,eta,power."""
    if any(curve.values.size != grid_points.size for curve in curves):
        raise ValueError("curve length does not match the grid")
    etas = [point(eta) for eta in grid_points]
    return csv_text(
        "theta,eta,power",
        ((point(curve.theta), eta_s, value(val)) for curve in curves for eta_s, val in zip(etas, curve.values)),
    )


def mixed_power_csv(matrix: DecisionMatrix) -> str:
    """Mixed power at every grid null: eta,mixed_power."""
    bb = beta_binom_pmf_support(matrix.config.model, matrix.config.prior)
    return csv_text(
        "eta,mixed_power",
        ((point(eta), value(_mixed_power(bb, row))) for eta, row in zip(matrix.config.grid.points, matrix.included)),
    )


def avg_power_csv(matrix: DecisionMatrix, thetas: np.ndarray) -> str:
    """Per-theta average power at the given thetas: theta,avg_power."""
    w = _grid_measure(matrix, matrix.config.prior)
    return csv_text(
        "theta,avg_power",
        ((point(theta), value(_weighted_power(matrix, w, float(theta)))) for theta in thetas),
    )


def power_table_csv(
    values: np.ndarray,
    row_labels: Sequence[str],
    column_labels: Sequence[str],
    corner: str = "Average power",
) -> str:
    """Render a labelled table of overall powers as CSV."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(row_labels), len(column_labels)):
        raise ValueError("table shape does not match the labels")
    if any("," in lab for lab in [corner, *row_labels, *column_labels]):
        raise ValueError("labels must not contain commas")
    return csv_text(
        ",".join([corner, *column_labels]),
        ([lab, *(value(v) for v in row)] for lab, row in zip(row_labels, values)),
    )
