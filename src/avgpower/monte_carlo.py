"""Monte Carlo construction of decision rows for models given as plug-ins.

The engine never sees a model's algebra. A plug-in supplies three callables:
a batched likelihood evaluator, a prior sampler and a batched data sampler.
From those the engine samples parameters from the prior, samples a row of
data under each, estimates the prior predictive mass of every distinct
observed outcome as the mean of the sampled likelihoods, and builds per-null
acceptance rows by the same rule as the exact path: outcomes of lowest
posterior density are rejected first.

Randomness is counter-based. Parameter draws use the Philox stream keyed by
SeedSequence((seed, 0)). The data rows share one key, from
SeedSequence((seed, 1)), and row i takes its own counter range:
Philox(SeedSequence((seed, 1))).jumped(i), which starts at counter
[0, 0, i, 0]. So any scheduling of the rows reproduces the same sample, and
drawing more parameters leaves the earlier rows unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .csvtext import grid_chunks
from .decisions import _RANK_BLOCK, DecisionMatrix, _rank
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

    likelihood(outcomes, params) takes a 1-D array of K data values and a
    sequence of P parameters, and returns the (P, K) array of their sampling
    densities, row i under params[i]; sample_param(rng) draws one parameter
    from the prior; and sample_data(rng, parameter, size) draws a 1-D array
    of size data values.

    The engine calls likelihood once per block of parameters, as many as
    fit in ``_RANK_BLOCK`` values: a block of the sampled parameters when it
    pools the draws, and a block of nulls when it builds rows. params is
    then a slice of the sequence the engine was given.

    The rng given to sample_data has its state reset between rows, so it is
    valid only during that call: a plug-in must not keep it, nor rely on its
    bit_generator.seed_seq or spawn(), which are not those of the row.

    Data values must be elements of a numpy array that np.unique can sort:
    distinct outcomes are pooled with np.unique and reported in sorted order.
    """

    likelihood: Callable[[np.ndarray, Sequence[Any]], np.ndarray]
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
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        for name in ("n_params", "n_data_per_param"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        # Parameters and data rows are drawn one by one into Python lists, so a
        # count past 32 bits is a run that cannot finish; refuse it before any draw.
        if self.n_params >= 2**32:
            raise ValueError(f"n_params must be below 2**32, got {self.n_params}")
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
    pooled data were generated.
    """

    outcomes: np.ndarray
    counts: np.ndarray
    mix_density: np.ndarray


@dataclass(eq=False)
class McDecisionMatrix:
    """Monte Carlo decision rows for the null values ``etas``, stored as arrays.

    ``etas`` holds the G null values as the caller gave them, and
    ``outcomes`` the K distinct sampled outcomes every row is over.
    ``included`` is bool (G, K); ``log_threshold``, ``estimated_coverage``
    and ``ess`` are float (G,). Row j is the acceptance decision for the null
    ``etas[j]``, its log threshold the smallest admitted log density ratio,
    its estimated coverage 1 minus the coverage weight it rejects over the
    row's weight total (the rejected weight is at most level times that
    total), and its ess the effective sample size of the raw draws under
    that null's coverage weights.
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


def _likelihood(model: GenericModel, outcomes: np.ndarray, params: Sequence[Any]) -> np.ndarray:
    """One likelihood call for every parameter, checked for shape, finiteness and sign.

    Returns the (P, K) densities in C order, so that a mean over the rows sums
    them in the same order whatever layout the plug-in returned.
    """
    f = np.asarray(model.likelihood(outcomes, params), dtype=float)
    shape = (len(params), outcomes.size)
    if f.shape != shape:
        raise ValueError(f"likelihood returned shape {f.shape}, not (parameters, outcomes) = {shape}")
    # min >= 0 fails on NaN and -inf, max < inf on +inf.
    if f.size and not (f.min() >= 0.0 and f.max() < math.inf):
        raise ValueError("likelihood values must be finite and nonnegative")
    return np.ascontiguousarray(f)


def mc_sample_params(model: GenericModel, cfg: McConfig) -> list:
    """Draw cfg.n_params parameters from the prior."""
    rng = Generator(Philox(SeedSequence((cfg.seed, 0))))
    return [model.sample_param(rng) for _ in range(cfg.n_params)]


def mc_sample_data(model: GenericModel, params: Sequence[Any], cfg: McConfig) -> DataSample:
    """Draw a row of n_data_per_param values under each sampled parameter.

    Row i is drawn from Philox(SeedSequence((seed, 1))).jumped(i): one
    generator whose counter word 2 is set to i, with its buffer emptied,
    before the row.
    """
    m = cfg.n_data_per_param
    bits = Philox(SeedSequence((cfg.seed, 1)))
    rng = Generator(bits)
    start = bits.state  # counter zero, buffer empty
    rows = []
    for i, p in enumerate(params):
        start["state"]["counter"][2] = i
        bits.state = start
        row = np.asarray(model.sample_data(rng, p, m))
        if row.shape != (m,):
            raise ValueError(f"sample_data must return a 1-D array of {m} values")
        rows.append(row)
    return DataSample(draws=np.stack(rows))


def pool_samples(model: GenericModel, params: Sequence[Any], data: DataSample) -> PooledSamples:
    """Collapse the raw draws to distinct outcomes and estimate their prior predictive mass.

    The likelihood is called once per block of parameters, as many as fit in
    ``_RANK_BLOCK`` values, and the sum runs on from block to block in
    parameter order, one row after another, as a mean over all the rows at
    once adds them.
    """
    outcomes, counts = np.unique(data.draws, return_counts=True)
    step = max(1, _RANK_BLOCK // outcomes.size)
    total = np.zeros(outcomes.size)
    for i in range(0, len(params), step):
        total = np.vstack((total, _likelihood(model, outcomes, params[i : i + step]))).sum(axis=0)
    mix = total / len(params)
    if np.any(mix == 0.0):
        bad = outcomes[int(np.argmax(mix == 0.0))]
        raise ValueError(f"likelihood assigns zero density to sampled outcome {bad}")
    return PooledSamples(outcomes=outcomes, counts=counts, mix_density=mix)


def _mc_rankings(model: GenericModel, etas: Sequence[Any], samples: PooledSamples, cfg: McConfig):
    """Yield each null's row, ranked by ln g = ln f - ln mix_density against weights v, with its row sums.

    A block of nulls is ranked per pass (``_rank``). v_k =
    exp(ln g_k + ln count_k) over the row's largest, so each is at most 1
    and a row with any likelihood mass sums to at least 1. Each row comes as
    (included, log_threshold, rejected, sum of v, sum of v^2 / count), the
    two sums taken row-wise over the block, which sums each row as it sums
    alone. A row may reject level times its own sum of v.
    """
    log_mix = np.log(samples.mix_density)
    log_counts = np.log(samples.counts)
    step = max(1, _RANK_BLOCK // samples.outcomes.size)
    for i in range(0, len(etas), step):
        f = _likelihood(model, samples.outcomes, etas[i : i + step])
        log_g = np.log(f, out=np.full(f.shape, -np.inf), where=f > 0.0) - log_mix
        log_v = log_g + log_counts
        peak = log_v.max(axis=1, keepdims=True)
        peak[peak == -np.inf] = 0.0  # a row with no mass keeps its zeros
        v = np.exp(log_v - peak)
        total = v.sum(axis=1, keepdims=True)
        squares = (v * v / samples.counts).sum(axis=1)
        yield from zip(*_rank(log_g, v, cfg.level * total), total[:, 0].tolist(), squares.tolist())


def mc_build_decision_row(
    model: GenericModel, eta: Any, samples: PooledSamples, cfg: McConfig, *, ranking: tuple | None = None
) -> tuple:
    """Greedy acceptance row over the sampled outcomes for one null value.

    Returns (included, log_threshold, estimated_coverage, ess), one row of an
    McDecisionMatrix over ``samples.outcomes``.

    Outcomes are ordered by the estimated posterior-to-prior density ratio
    (likelihood over estimated predictive mass) and rejected from the lowest
    up, a tie group at a time, while the estimated rejected mass stays within
    level; the rest are admitted, and the coverage estimate is 1 minus the
    rejected mass. In that estimate a draw of outcome k weighs
    f_k / mix_density_k, the null likelihood over the prior predictive
    density it was drawn from, up to one factor per row (``_mc_rankings``)
    that neither the estimate nor the ESS depends on.

    ``ranking`` is this row's (included, log_threshold, rejected, weight
    total, ESS denominator) from the block pass of ``mc_decision_rows``,
    which has ranked the row already; a row built alone is a block of one.

    Raises DegenerateWeightsError when the null assigns no likelihood to any
    sampled outcome, and LowEffectiveSampleError when the weights carry fewer
    effective draws than cfg.ess_floor.
    """
    if ranking is None:
        (ranking,) = _mc_rankings(model, [eta], samples, cfg)
    included, log_threshold, rejected, total_v, squares = ranking
    if total_v == 0.0:
        raise DegenerateWeightsError(f"no sampled outcome carries likelihood mass at eta {eta!r}")
    # Effective sample size of the raw draws, not of the pooled atoms: each
    # of the count_k draws behind atom k carries the weight v_k / count_k.
    ess = total_v**2 / squares
    if ess < cfg.ess_floor:
        raise LowEffectiveSampleError(
            f"effective sample size {ess:.1f} below floor {cfg.ess_floor:.1f} at eta {eta!r}"
        )

    return included, log_threshold, 1.0 - float(rejected) / total_v, ess


def mc_decision_rows(model: GenericModel, cfg: McConfig, etas: Sequence[Any]) -> McDecisionMatrix:
    """Run the full pipeline and build one row per requested null value.

    Rows are ranked a block at a time (``_mc_rankings``), then
    checked one at a time by ``mc_build_decision_row``, so the first null
    whose weights are degenerate or too concentrated raises.
    """
    params = mc_sample_params(model, cfg)
    data = mc_sample_data(model, params, cfg)
    samples = pool_samples(model, params, data)
    count = len(etas)
    included = np.zeros((count, samples.outcomes.size), dtype=bool)
    log_threshold, estimated, ess = np.empty(count), np.empty(count), np.empty(count)
    for j, (eta, r) in enumerate(zip(etas, _mc_rankings(model, etas, samples, cfg))):
        included[j], log_threshold[j], estimated[j], ess[j] = mc_build_decision_row(model, eta, samples, cfg, ranking=r)
    return McDecisionMatrix(etas, samples.outcomes, included, log_threshold, estimated, ess)


def make_binomial_plugin(model: BinomialModel, prior: BetaPrior) -> GenericModel:
    """Binomial likelihood with a beta prior."""
    return GenericModel(
        likelihood=lambda outcomes, thetas: binom_pmf(outcomes, model, thetas),
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


def _agreement_chunks(report: AgreementReport):
    """The chunks of ``agreement_csv``."""
    return grid_chunks("eta,agreement", report.etas, report.per_eta)


def agreement_csv(report: AgreementReport) -> str:
    """Serialize per-null agreement: eta,agreement."""
    return "".join(_agreement_chunks(report))
