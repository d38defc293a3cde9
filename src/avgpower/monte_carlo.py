"""Monte Carlo construction of decision rows for models given as plug-ins.

The engine never sees a model's algebra. A plug-in supplies three callables:
a batched likelihood evaluator, a prior sampler and a batched data sampler.
From those the engine samples parameters from the prior, samples a row of
data under each, estimates the prior predictive mass of every distinct
observed outcome as the mean of the sampled likelihoods, and builds per-null
acceptance rows by the same posterior-descending greedy rule as the exact
path.

Randomness is counter-based. Parameter draws use the stream keyed by
(seed, 0); the data row of parameter i uses its own stream keyed by
(seed, 1, i), so any scheduling of the rows reproduces the same sample, and
drawing more parameters leaves the earlier rows unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .csvtext import grid_csv
from .decisions import DecisionMatrix, _admit, _rank
from .distributions import (
    BetaPrior,
    BinomialModel,
    binom_pmf,
    check_count,
    check_integer,
    check_open_unit,
    check_outcomes,
)

__all__ = [
    "DegenerateWeightsError",
    "LowEffectiveSampleError",
    "GenericModel",
    "McConfig",
    "DataSample",
    "PooledSamples",
    "McDecisionMatrix",
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
    """The null assigns no likelihood to any sampled outcome; no estimate is possible."""


class LowEffectiveSampleError(RuntimeError):
    """A null's coverage weights are too concentrated to trust the estimate."""


@dataclass(frozen=True)
class GenericModel:
    """Model plug-in: three callables, no other contract.

    likelihood(outcomes, parameter) takes a 1-D array of data values and
    returns the array of their sampling densities; sample_param(rng) draws
    one parameter from the prior; and sample_data(rng, parameter, size)
    draws a 1-D array of size data values.

    Data values must be elements of a numpy array that np.unique can sort:
    distinct outcomes are pooled with np.unique and reported in sorted order.
    """

    likelihood: Callable[[np.ndarray, Any], np.ndarray]
    sample_param: Callable[[Generator], Any]
    sample_data: Callable[[Generator, Any, int], np.ndarray]


@dataclass(frozen=True)
class McConfig:
    """Sample sizes, level, seed, and the effective-sample-size floor."""

    seed: int
    n_params: int
    n_data_per_param: int
    level: float
    ess_floor: float = 100.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_integer(self.seed, "seed"))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        for name in ("n_params", "n_data_per_param"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        object.__setattr__(self, "level", check_open_unit(self.level, "level"))
        floor = float(self.ess_floor)
        if not (math.isfinite(floor) and floor >= 0.0):
            raise ValueError(f"ess_floor must be finite and nonnegative, got {self.ess_floor!r}")
        object.__setattr__(self, "ess_floor", floor)


@dataclass(eq=False)
class DataSample:
    """draws[i, j] is the j-th data value generated under params[i]."""

    draws: np.ndarray


@dataclass(eq=False)
class PooledSamples:
    """Distinct outcomes with every per-outcome quantity the rows need.

    mix_density is the mean of the sampled likelihoods at each outcome: the
    estimate of its prior predictive mass, and the density under which the
    pooled data were generated. log_mix_density is its log, shared by all rows.
    """

    outcomes: np.ndarray
    counts: np.ndarray
    mix_density: np.ndarray
    log_mix_density: np.ndarray


@dataclass(eq=False)
class McDecisionMatrix:
    """Monte Carlo decision rows for the null values ``etas``, stored as arrays.

    ``etas`` holds the G null values as the caller gave them, and
    ``outcomes`` the K distinct sampled outcomes every row is over.
    ``included`` is bool (G, K); ``log_threshold``, ``estimated_coverage``
    and ``ess`` are float (G,). Row j is the acceptance decision for the null
    ``etas[j]``, its log threshold the smallest admitted log density ratio,
    and its ess the effective sample size of the raw draws under that null's
    coverage weights.
    """

    etas: Sequence[Any]
    outcomes: np.ndarray
    included: np.ndarray
    log_threshold: np.ndarray
    estimated_coverage: np.ndarray
    ess: np.ndarray


@dataclass(frozen=True)
class AgreementReport:
    """Cellwise agreement between MC rows and an exact matrix, per grid null ``etas``."""

    etas: np.ndarray
    per_eta: np.ndarray
    overall: float


def _param_rng(cfg: McConfig) -> Generator:
    return Generator(Philox(SeedSequence((cfg.seed, 0))))


def _data_rng(cfg: McConfig, i: int) -> Generator:
    return Generator(Philox(SeedSequence((cfg.seed, 1, i))))


def _likelihood(model: GenericModel, outcomes: np.ndarray, param: Any) -> np.ndarray:
    """One batched likelihood call, checked for shape, finiteness and sign."""
    f = np.asarray(model.likelihood(outcomes, param), dtype=float)
    if f.shape != outcomes.shape:
        raise ValueError(f"likelihood returned shape {f.shape} for {outcomes.size} outcomes")
    # min >= 0 fails on NaN and -inf, max < inf on +inf.
    if f.size and not (f.min() >= 0.0 and f.max() < math.inf):
        raise ValueError("likelihood values must be finite and nonnegative")
    return f


def mc_sample_params(model: GenericModel, cfg: McConfig) -> list:
    """Draw cfg.n_params parameters from the prior."""
    rng = _param_rng(cfg)
    return [model.sample_param(rng) for _ in range(cfg.n_params)]


def mc_sample_data(model: GenericModel, params: Sequence[Any], cfg: McConfig) -> DataSample:
    """Draw a row of n_data_per_param values under each sampled parameter."""
    m = cfg.n_data_per_param
    draws = np.stack([np.asarray(model.sample_data(_data_rng(cfg, i), p, m)) for i, p in enumerate(params)])
    if draws.shape != (len(params), m):
        raise ValueError(f"sample_data must return a 1-D array of {m} values")
    return DataSample(draws=draws)


def pool_samples(model: GenericModel, params: Sequence[Any], data: DataSample) -> PooledSamples:
    """Collapse the raw draws to distinct outcomes and estimate their prior predictive mass."""
    outcomes, counts = np.unique(data.draws, return_counts=True)
    mix = np.stack([_likelihood(model, outcomes, p) for p in params]).mean(axis=0)
    if np.any(mix == 0.0):
        bad = outcomes[int(np.argmax(mix == 0.0))]
        raise ValueError(f"likelihood assigns zero density to sampled outcome {bad}")
    return PooledSamples(outcomes=outcomes, counts=counts, mix_density=mix, log_mix_density=np.log(mix))


def mc_build_decision_row(model: GenericModel, eta: Any, samples: PooledSamples, cfg: McConfig) -> tuple:
    """Greedy acceptance row over the sampled outcomes for one null value.

    Returns (included, log_threshold, estimated_coverage, ess), one row of an
    McDecisionMatrix over ``samples.outcomes``.

    Outcomes are ordered by the estimated posterior-to-prior density ratio
    (likelihood over estimated predictive mass), tie groups entering
    atomically, and admitted until the coverage estimate reaches 1 - level.
    In that estimate a draw of outcome k weighs f_k / mix_density_k: the
    null likelihood over the prior predictive density it was drawn from.

    Raises DegenerateWeightsError when the null assigns no mass to any
    sampled outcome, and LowEffectiveSampleError when the coverage weights
    carry fewer effective draws than cfg.ess_floor.
    """
    f = _likelihood(model, samples.outcomes, eta)
    total_f = f.sum()
    if total_f == 0.0:
        raise DegenerateWeightsError(f"no sampled outcome carries likelihood mass at eta {eta!r}")

    log_g = np.log(f, out=np.full(f.shape, -np.inf), where=f > 0.0) - samples.log_mix_density
    v = samples.counts * f / samples.mix_density
    total_v = float(v.sum())
    # Effective sample size of the raw draws, not of the pooled atoms: each
    # of the count_k draws behind atom k carries the weight f_k / mix_k.
    ess = total_v**2 / float((v * v / samples.counts).sum())
    if ess < cfg.ess_floor:
        raise LowEffectiveSampleError(
            f"effective sample size {ess:.1f} below floor {cfg.ess_floor:.1f} at eta {eta!r}"
        )

    target = (1.0 - cfg.level) * total_v
    included, log_threshold, covered = _admit(_rank(log_g, v, target), target, eta, repr)
    return included, log_threshold, covered / total_v, ess


def mc_decision_rows(model: GenericModel, cfg: McConfig, etas: Sequence[Any]) -> McDecisionMatrix:
    """Run the full pipeline and build one row per requested null value."""
    params = mc_sample_params(model, cfg)
    data = mc_sample_data(model, params, cfg)
    samples = pool_samples(model, params, data)
    count = len(etas)
    included = np.zeros((count, samples.outcomes.size), dtype=bool)
    log_threshold, estimated, ess = np.empty(count), np.empty(count), np.empty(count)
    for j, eta in enumerate(etas):
        included[j], log_threshold[j], estimated[j], ess[j] = mc_build_decision_row(model, eta, samples, cfg)
    return McDecisionMatrix(etas, samples.outcomes, included, log_threshold, estimated, ess)


def make_binomial_plugin(model: BinomialModel, prior: BetaPrior) -> GenericModel:
    """Binomial likelihood with a beta prior."""
    return GenericModel(
        likelihood=lambda outcomes, theta: binom_pmf(outcomes, model, float(theta)),
        sample_param=lambda rng: float(rng.beta(prior.a, prior.b)),
        sample_data=lambda rng, theta, size: rng.binomial(model.n, theta, size),
    )


def agreement_with_matrix(mc: McDecisionMatrix, matrix: DecisionMatrix) -> AgreementReport:
    """Fraction of outcome cells where MC inclusion matches the exact rows.

    Rows must align with the matrix grid one-to-one, and their outcomes
    must be integers in the matrix support. Outcomes the MC sample never
    produced count as excluded on the MC side.
    """
    grid = matrix.config.grid
    if len(mc.etas) != len(grid):
        raise ValueError(f"{len(mc.etas)} MC rows against a {len(grid)}-point grid")
    # Written so that a NaN null fails it too.
    off = ~(np.abs(np.asarray(mc.etas, dtype=float) - grid.points) <= 1e-12)
    if off.any():
        r = int(off.argmax())
        raise ValueError(f"row {r} null value {mc.etas[r]!r} does not match grid point {float(grid.points[r])!r}")
    try:
        outcomes = check_outcomes(np.asarray(mc.outcomes), matrix.config.model)
    except ValueError as exc:
        raise ValueError(f"sampled {exc}") from None
    mc_full = np.zeros_like(matrix.included)
    mc_full[:, outcomes] = mc.included
    per_eta = (mc_full == matrix.included).mean(axis=1)
    return AgreementReport(etas=grid.points, per_eta=per_eta, overall=float(per_eta.mean()))


def agreement_csv(report: AgreementReport) -> str:
    """Serialize per-null agreement: eta,agreement."""
    return grid_csv("eta,agreement", report.etas, report.per_eta)
