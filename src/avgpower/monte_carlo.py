"""Monte Carlo construction of decision rows for models given as plug-ins.

The engine never sees a model's algebra. A plug-in supplies four callables:
a likelihood evaluator, a parameter sampler (from the prior or a proposal),
a data sampler, and the prior-to-proposal density ratio that rescales
proposal draws back to prior expectations. From those the engine samples
parameters, samples data under each, estimates the prior predictive mass of
every distinct observed outcome by self-normalized importance weighting, and
builds per-null acceptance rows by the same posterior-descending greedy rule
as the exact path.

Randomness is counter-based. Parameter draws use the stream keyed by
(seed, 0); the data draw at indices (i, j) uses its own stream keyed by
(seed, 1, i, j), so any scheduling of the work reproduces the same sample.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .csvtext import csv_text, point, value
from .decisions import DecisionMatrix, _admit_tie_groups, _row_summary
from .distributions import BetaPrior, BinomialModel, binom_pmf, check_level

__all__ = [
    "DegenerateWeightsError",
    "LowEffectiveSampleError",
    "GenericModel",
    "McConfig",
    "ParamSample",
    "DataSample",
    "PooledSamples",
    "McDecisionRow",
    "AgreementReport",
    "mc_sample_params",
    "mc_sample_data",
    "pool_samples",
    "mc_build_decision_row",
    "mc_decision_rows",
    "make_binomial_plugin",
    "agreement_with_matrix",
    "agreement_csv",
]


class DegenerateWeightsError(RuntimeError):
    """All importance mass vanished; no estimate is possible."""


class LowEffectiveSampleError(RuntimeError):
    """Importance weights are too concentrated to trust the estimate."""


@dataclass(frozen=True)
class GenericModel:
    """Model plug-in: four callables, no other contract.

    likelihood(data, parameter) returns the sampling density of one data
    value; sample_param(rng, x0) draws one parameter from the proposal,
    where x0 is the observed data passed through for optional focusing and
    may be None; sample_data(rng, parameter) draws one data value; and
    prior_density_ratio(parameter) is prior density over proposal density
    at the drawn parameter (identically 1 when the proposal is the prior).

    Data values must be hashable and orderable: distinct outcomes are pooled
    through a dictionary and reported in sorted order.
    """

    likelihood: Callable[[Any, Any], float]
    sample_param: Callable[[Generator, Any], Any]
    sample_data: Callable[[Generator, Any], Any]
    prior_density_ratio: Callable[[Any], float]


@dataclass(frozen=True)
class McConfig:
    """Sample sizes, level, seed, and the effective-sample-size floor."""

    seed: int
    n_params: int
    n_data_per_param: int
    level: float
    ess_floor: float = 100.0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        for name in ("n_params", "n_data_per_param"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        object.__setattr__(self, "level", check_level(self.level))
        floor = float(self.ess_floor)
        if not (math.isfinite(floor) and floor >= 0.0):
            raise ValueError(f"ess_floor must be finite and nonnegative, got {self.ess_floor!r}")
        object.__setattr__(self, "ess_floor", floor)


@dataclass(eq=False)
class ParamSample:
    """Proposal draws with their prior-correcting importance weights."""

    params: list
    weights: np.ndarray


@dataclass(eq=False)
class DataSample:
    """draws[i][j] is the j-th data value generated under params[i]."""

    draws: list


@dataclass(eq=False)
class PooledSamples:
    """Distinct outcomes with every per-outcome quantity the rows need.

    mix_density estimates the prior predictive mass of each outcome by
    self-normalized importance weighting over the parameter draws.
    data_proposal is the density under which the pooled data were actually
    generated (the unweighted mixture of the sampled likelihoods); coverage
    sums are importance-corrected against it.
    """

    params: list
    weights: np.ndarray
    outcomes: list
    counts: np.ndarray
    mix_density: np.ndarray
    data_proposal: np.ndarray


@dataclass(eq=False)
class McDecisionRow:
    """Acceptance decision over the sampled outcomes for one null value."""

    eta: Any
    outcomes: list
    included: np.ndarray
    threshold: float
    estimated_coverage: float


@dataclass(frozen=True)
class AgreementReport:
    """Cellwise agreement between MC rows and an exact matrix."""

    per_eta: np.ndarray
    overall: float


def _param_rng(cfg: McConfig) -> Generator:
    return Generator(Philox(SeedSequence((cfg.seed, 0))))


def _data_rng(cfg: McConfig, i: int, j: int) -> Generator:
    return Generator(Philox(SeedSequence((cfg.seed, 1, i, j))))


def mc_sample_params(model: GenericModel, cfg: McConfig, x0: Any | None = None) -> ParamSample:
    """Draw the parameter sample and its prior-correcting weights.

    x0 is handed to the plug-in's proposal untouched; with no proposal
    focusing the weights are identically 1 and the draws are prior draws.

    Raises DegenerateWeightsError when every weight is zero.
    """
    rng = _param_rng(cfg)
    params = [model.sample_param(rng, x0) for _ in range(cfg.n_params)]
    weights = np.array([float(model.prior_density_ratio(p)) for p in params])
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("importance weights must be finite and nonnegative")
    if weights.sum() == 0.0:
        raise DegenerateWeightsError("all importance weights are zero")
    return ParamSample(params=params, weights=weights)


def mc_sample_data(model: GenericModel, params: ParamSample, cfg: McConfig) -> DataSample:
    """Draw n_data_per_param values under each sampled parameter."""
    draws = []
    for i, p in enumerate(params.params):
        draws.append([model.sample_data(_data_rng(cfg, i, j), p) for j in range(cfg.n_data_per_param)])
    return DataSample(draws=draws)


def pool_samples(model: GenericModel, params: ParamSample, data: DataSample) -> PooledSamples:
    """Collapse the raw draws to distinct outcomes and estimate densities."""
    counter: Counter = Counter()
    for row in data.draws:
        counter.update(row)
    outcomes = sorted(counter)
    counts = np.array([counter[x] for x in outcomes], dtype=float)

    lik = np.array([[float(model.likelihood(x, p)) for x in outcomes] for p in params.params])
    if not np.all(np.isfinite(lik)) or np.any(lik < 0.0):
        raise ValueError("likelihood values must be finite and nonnegative")
    mix = params.weights @ lik / params.weights.sum()
    proposal = lik.mean(axis=0)
    if np.any(proposal == 0.0):
        bad = outcomes[int(np.argmax(proposal == 0.0))]
        raise ValueError(f"likelihood assigns zero density to sampled outcome {bad!r}")
    return PooledSamples(
        params=params.params,
        weights=params.weights,
        outcomes=outcomes,
        counts=counts,
        mix_density=mix,
        data_proposal=proposal,
    )


def mc_build_decision_row(model: GenericModel, eta: Any, samples: PooledSamples, cfg: McConfig) -> McDecisionRow:
    """Greedy acceptance row over the sampled outcomes for one null value.

    Outcomes are ordered by the estimated posterior-to-prior density ratio
    (likelihood over estimated predictive mass), tie groups entering
    atomically with ties broken toward larger likelihood, and admitted until
    the importance-corrected coverage estimate reaches 1 - level.

    Raises DegenerateWeightsError when the null assigns no mass to any
    sampled outcome, and LowEffectiveSampleError when the coverage weights
    carry fewer effective draws than cfg.ess_floor.
    """
    f = np.array([float(model.likelihood(x, eta)) for x in samples.outcomes])
    if not np.all(np.isfinite(f)) or np.any(f < 0.0):
        raise ValueError("likelihood values must be finite and nonnegative")
    total_f = f.sum()
    if total_f == 0.0:
        raise DegenerateWeightsError(f"no sampled outcome carries likelihood mass at eta {eta!r}")

    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.where(f == 0.0, -np.inf, np.log(f) - np.log(samples.mix_density))
    v = samples.counts * f / samples.data_proposal
    total_v = float(v.sum())
    # Effective sample size of the raw draws, not of the pooled atoms: each
    # of the count_k draws behind atom k carries the weight f_k / q_k.
    ess = total_v**2 / float((v * v / samples.counts).sum())
    if ess < cfg.ess_floor:
        raise LowEffectiveSampleError(f"effective sample size {ess:.1f} below floor {cfg.ess_floor:.1f}")

    order = np.lexsort((-f, -log_g))
    included = _admit_tie_groups(order, log_g, v, (1.0 - cfg.level) * total_v)
    threshold, covered = _row_summary(log_g, v, included)
    return McDecisionRow(
        eta=eta,
        outcomes=samples.outcomes,
        included=included,
        threshold=threshold,
        estimated_coverage=covered / total_v,
    )


def mc_decision_rows(
    model: GenericModel, cfg: McConfig, etas: Sequence[Any], x0: Any | None = None
) -> list:
    """Run the full pipeline and build one row per requested null value."""
    params = mc_sample_params(model, cfg, x0)
    data = mc_sample_data(model, params, cfg)
    samples = pool_samples(model, params, data)
    return [mc_build_decision_row(model, eta, samples, cfg) for eta in etas]


def make_binomial_plugin(model: BinomialModel, prior: BetaPrior) -> GenericModel:
    """Binomial likelihood with a beta prior, proposal equal to the prior."""
    return GenericModel(
        likelihood=lambda x, theta: binom_pmf(int(x), model, float(theta)),
        sample_param=lambda rng, x0: float(rng.beta(prior.a, prior.b)),
        sample_data=lambda rng, theta: int(rng.binomial(model.n, theta)),
        prior_density_ratio=lambda theta: 1.0,
    )


def agreement_with_matrix(mc_rows: Sequence[McDecisionRow], matrix: DecisionMatrix) -> AgreementReport:
    """Fraction of outcome cells where MC inclusion matches the exact rows.

    Rows must align with the matrix grid one-to-one. Outcomes the MC sample
    never produced count as excluded on the MC side.
    """
    grid = matrix.config.grid
    if len(mc_rows) != len(grid):
        raise ValueError(f"{len(mc_rows)} MC rows against a {len(grid)}-point grid")
    n = matrix.config.model.n
    per_eta = np.empty(len(mc_rows))
    for r, (mc_row, eta, exact) in enumerate(zip(mc_rows, grid.points, matrix.included)):
        if abs(float(mc_row.eta) - eta) > 1e-12:
            raise ValueError(f"row {r} null value {mc_row.eta!r} does not match grid point {float(eta)!r}")
        mc_full = np.zeros(n + 1, dtype=bool)
        for x, flag in zip(mc_row.outcomes, mc_row.included):
            xi = int(x)
            if not 0 <= xi <= n:
                raise ValueError(f"sampled outcome {x!r} outside support 0..{n}")
            mc_full[xi] = bool(flag)
        per_eta[r] = float(np.mean(mc_full == exact))
    return AgreementReport(per_eta=per_eta, overall=float(per_eta.mean()))


def agreement_csv(report: AgreementReport, grid_points: np.ndarray) -> str:
    """Serialize per-null agreement: eta,agreement."""
    if report.per_eta.size != grid_points.size:
        raise ValueError("report length does not match the grid")
    return csv_text("eta,agreement", ((point(eta), value(val)) for eta, val in zip(grid_points, report.per_eta)))
