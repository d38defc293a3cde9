"""Monte Carlo engine: sampling, pooling, row construction, agreement."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from avgpower import (
    BetaPrior,
    BinomialModel,
    DegenerateWeightsError,
    GenericModel,
    LowEffectiveSampleError,
    McConfig,
    McDecisionMatrix,
    ParameterGrid,
    TestConfig,
    agreement_with_matrix,
    build_decision_matrix,
    make_binomial_plugin,
    mc_build_decision_row,
    mc_decision_rows,
    mc_sample_data,
    mc_sample_params,
    pool_samples,
)
from avgpower.decisions import _RANK_BLOCK
from avgpower.distributions import beta_binom_pmf_support, binom_pmf
from avgpower.monte_carlo import AgreementReport, agreement_csv
from oracles import _data_rng


def binom_plugin(n: int = 20, a: float = 0.5, b: float = 0.5) -> GenericModel:
    return make_binomial_plugin(BinomialModel(n), BetaPrior(a, b))


def cfg(seed: int = 7, n_params: int = 300, n_data: int = 30, level: float = 0.05, **kw) -> McConfig:
    return McConfig(seed=seed, n_params=n_params, n_data_per_param=n_data, level=level, **kw)


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^seed must fit in 64 unsigned bits, got -1$"):
            cfg(seed=-1)
        with pytest.raises(ValueError):
            cfg(seed=True)
        with pytest.raises(ValueError):
            cfg(n_params=np.bool_(True))
        with pytest.raises(ValueError, match=r"^seed must fit in 64 unsigned bits, got 18446744073709551616$"):
            cfg(seed=2**64)
        with pytest.raises(ValueError):
            cfg(seed=1.5)
        with pytest.raises(ValueError):
            cfg(n_params=0)
        with pytest.raises(ValueError):
            cfg(n_data=0)
        with pytest.raises(ValueError):
            cfg(level=0.0)
        with pytest.raises(ValueError):
            cfg(ess_floor=-1.0)

    def test_numpy_integers_are_accepted_as_int(self):
        config = cfg(seed=np.int64(3), n_params=np.int64(40), n_data=np.int32(5))
        assert (config.seed, config.n_params, config.n_data_per_param) == (3, 40, 5)
        assert all(type(v) is int for v in (config.seed, config.n_params, config.n_data_per_param))
        plugin = binom_plugin()
        assert mc_sample_params(plugin, config) == mc_sample_params(plugin, cfg(seed=3, n_params=40, n_data=5))


class TestSampleParams:
    def test_reproducible(self):
        plugin = binom_plugin()
        a = mc_sample_params(plugin, cfg())
        b = mc_sample_params(plugin, cfg())
        assert a == b
        c = mc_sample_params(plugin, cfg(seed=8))
        assert a != c

    def test_prior_mean_within_three_standard_errors(self):
        sample = mc_sample_params(binom_plugin(), cfg(n_params=2000))
        # Beta(0.5, 0.5): mean 1/2, variance 1/8.
        se = np.sqrt(0.125 / 2000)
        assert abs(np.mean(sample) - 0.5) <= 3 * se


class TestSampleData:
    def test_degenerate_parameter_gives_constant_draws(self):
        base = binom_plugin()
        at_zero = GenericModel(
            likelihood=base.likelihood,
            sample_param=lambda rng: 0.0,
            sample_data=base.sample_data,
        )
        params = mc_sample_params(at_zero, cfg(n_params=5))
        data = mc_sample_data(at_zero, params, cfg(n_params=5))
        assert all(x == 0 for row in data.draws for x in row)

    def test_sample_mean_at_half(self):
        plugin = binom_plugin(n=100)
        fixed = GenericModel(
            likelihood=plugin.likelihood,
            sample_param=lambda rng: 0.5,
            sample_data=plugin.sample_data,
        )
        config = cfg(n_params=100, n_data=100)
        params = mc_sample_params(fixed, config)
        data = mc_sample_data(fixed, params, config)
        values = [x for row in data.draws for x in row]
        assert abs(np.mean(values) - 50.0) <= 3 * 5.0 / np.sqrt(len(values))

    def test_deterministic_across_runs(self):
        plugin = binom_plugin()
        params = mc_sample_params(plugin, cfg())
        a = mc_sample_data(plugin, params, cfg())
        b = mc_sample_data(plugin, params, cfg())
        assert np.array_equal(a.draws, b.draws)

    def test_row_is_its_parameter_stream(self):
        plugin = binom_plugin()
        config = cfg()
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        assert data.draws.shape == (config.n_params, config.n_data_per_param)
        for i, p in enumerate(params):
            alone = plugin.sample_data(_data_rng(config, i), p, config.n_data_per_param)
            assert np.array_equal(data.draws[i], alone)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_keys_are_the_seed_sequence_keys(self, seed):
        # Seeds below 2**32 are one entropy word, the rest two. Every row is
        # keyed by SeedSequence((seed, 1)) and starts at counter (0, 0, i, 0).
        plugin = binom_plugin()
        config = cfg(seed=seed, n_params=50)
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        key = SeedSequence((seed, 1)).generate_state(2, np.uint64)
        for i, p in enumerate(params):
            rng = Generator(Philox(key=key, counter=[0, 0, i, 0]))
            alone = plugin.sample_data(rng, p, config.n_data_per_param)
            assert np.array_equal(data.draws[i], alone)

    def test_fewer_parameters_keep_the_leading_rows(self):
        plugin = binom_plugin()
        fewer, more = cfg(n_params=200), cfg(n_params=300)
        a = mc_sample_data(plugin, mc_sample_params(plugin, fewer), fewer)
        b = mc_sample_data(plugin, mc_sample_params(plugin, more), more)
        assert np.array_equal(a.draws, b.draws[:200])

    @pytest.mark.parametrize("size", [1, 3, 100])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, theta, size: rng.binomial(20, theta, size),
            lambda rng, theta, size: rng.random(size) + theta,
            lambda rng, theta, size: rng.standard_normal(size) + theta,
            lambda rng, theta, size: rng.integers(0, 2**31, size, dtype=np.int32),
        ],
        ids=["binomial", "random", "standard_normal", "integers32"],
    )
    def test_rows_are_the_per_row_streams(self, draw, size):
        # An odd number of 32-bit draws leaves half a 64-bit word buffered, which no next row may see.
        base = binom_plugin()
        plugin = GenericModel(likelihood=base.likelihood, sample_param=base.sample_param, sample_data=draw)
        config = cfg(n_params=20, n_data=size)
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        want = [draw(_data_rng(config, i), p, size) for i, p in enumerate(params)]
        assert np.array_equal(data.draws, want)

    def test_rejects_wrong_row_shape(self):
        # Each row is checked before the rows are stacked, so one short row is named as such too.
        base, config = binom_plugin(), cfg(n_params=5)
        params = mc_sample_params(base, config)
        for short in (set(params), {params[3]}):
            plugin = GenericModel(
                likelihood=base.likelihood,
                sample_param=base.sample_param,
                sample_data=lambda rng, theta, size: base.sample_data(rng, theta, size - (theta in short)),
            )
            with pytest.raises(ValueError, match=r"^sample_data must return a 1-D array of 30 values$"):
                mc_sample_data(plugin, params, config)


class TestPooling:
    def test_counts_and_order(self):
        plugin = binom_plugin()
        config = cfg()
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        pooled = pool_samples(plugin, params, data)
        values = data.draws.ravel().tolist()
        assert pooled.outcomes.tolist() == sorted(set(values))
        assert pooled.counts.tolist() == [values.count(x) for x in pooled.outcomes.tolist()]
        assert pooled.counts.sum() == config.n_params * config.n_data_per_param

    def test_mix_density_estimates_prior_predictive(self):
        plugin = binom_plugin()
        config = cfg(n_params=2000, n_data=5)
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        pooled = pool_samples(plugin, params, data)
        bb = beta_binom_pmf_support(BinomialModel(20), BetaPrior(0.5, 0.5))
        lik = plugin.likelihood(pooled.outcomes, params)
        se = lik.std(axis=0, ddof=1) / np.sqrt(config.n_params)
        for k, x in enumerate(pooled.outcomes):
            assert abs(pooled.mix_density[k] - bb[x]) <= 3 * se[k] + 1e-12

    def test_extreme_prior_pools_as_stacked_scalar_calls(self):
        # Under Beta(0.01, 0.01) a third of the draws are exactly 1.0, whose rows are point masses.
        model = BinomialModel(20)
        plugin = make_binomial_plugin(model, BetaPrior(0.01, 0.01))
        config = cfg()
        params = mc_sample_params(plugin, config)
        assert params.count(1.0) > 50
        pooled = pool_samples(plugin, params, mc_sample_data(plugin, params, config))
        want = np.stack([binom_pmf(pooled.outcomes, model, p) for p in params]).mean(axis=0)
        assert pooled.mix_density.tobytes() == want.tobytes()

    def test_likelihood_layout_does_not_change_the_pooled_bits(self):
        # A mean over the rows of a Fortran-ordered array sums in another order; the engine takes C order first.
        plugin = binom_plugin()
        fortran = GenericModel(
            likelihood=lambda x, thetas: np.asfortranarray(plugin.likelihood(x, thetas)),
            sample_param=plugin.sample_param,
            sample_data=plugin.sample_data,
        )
        config = cfg()
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        assert fortran.likelihood(np.arange(21), params).flags.f_contiguous
        want = pool_samples(plugin, params, data).mix_density
        assert pool_samples(fortran, params, data).mix_density.tobytes() == want.tobytes()

    def test_rejects_inconsistent_likelihood(self):
        plugin = binom_plugin()
        config = cfg(n_params=20, n_data=5)
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        broken = GenericModel(
            likelihood=lambda x, thetas: np.zeros((len(thetas), x.size)),
            sample_param=plugin.sample_param,
            sample_data=plugin.sample_data,
        )
        with pytest.raises(ValueError, match="zero density"):
            pool_samples(broken, params, data)
        scalar = GenericModel(
            likelihood=lambda x, thetas: 0.5,
            sample_param=plugin.sample_param,
            sample_data=plugin.sample_data,
        )
        with pytest.raises(ValueError, match="shape"):
            pool_samples(scalar, params, data)


def flat_plugin(at_nulls: dict, sampled: float = 1e3) -> GenericModel:
    """Likelihood ``sampled`` at every outcome 0..4 under the sampled parameters, and at_nulls[eta] under a listed null."""
    return GenericModel(
        likelihood=lambda x, ps: np.repeat([[at_nulls.get(p, sampled)] for p in ps], x.size, axis=1),
        sample_param=lambda rng: float(rng.uniform(0.5, 1.0)),
        sample_data=lambda rng, p, size: rng.integers(0, 5, size),
    )


def corrupt(values: np.ndarray, fault: str) -> np.ndarray:
    values = np.array(values, dtype=float)
    if fault == "shape":
        return values[:-1]
    values.flat[values.size // 2] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -1e-300}[fault]
    return values


VALUES_MESSAGE = "^likelihood values must be finite and nonnegative$"
LIKELIHOOD_FAULTS = [
    ("nan", VALUES_MESSAGE),
    ("inf", VALUES_MESSAGE),
    ("-inf", VALUES_MESSAGE),
    ("negative", VALUES_MESSAGE),
    ("shape", r"^likelihood returned shape \(\d+, (\d+)\), not \(parameters, outcomes\) = \(\d+, \1\)$"),
]


class TestLikelihoodChecks:
    """A likelihood that returns a bad value or shape is rejected wherever it is called."""

    @staticmethod
    def broken(plugin: GenericModel, fault: str) -> GenericModel:
        return GenericModel(
            likelihood=lambda x, thetas: corrupt(plugin.likelihood(x, thetas), fault),
            sample_param=plugin.sample_param,
            sample_data=plugin.sample_data,
        )

    @pytest.mark.parametrize("fault,message", LIKELIHOOD_FAULTS)
    def test_pool_samples(self, fault, message):
        plugin = binom_plugin()
        config = cfg(n_params=20, n_data=5)
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        with pytest.raises(ValueError, match=message):
            pool_samples(self.broken(plugin, fault), params, data)

    @pytest.mark.parametrize("fault,message", LIKELIHOOD_FAULTS)
    def test_mc_build_decision_row(self, fault, message):
        plugin = binom_plugin()
        config = cfg(n_params=20, n_data=5)
        params = mc_sample_params(plugin, config)
        pooled = pool_samples(plugin, params, mc_sample_data(plugin, params, config))
        with pytest.raises(ValueError, match=message):
            mc_build_decision_row(self.broken(plugin, fault), 0.41, pooled, config)


class TestBuildRow:
    def pooled(self, plugin=None, config=None):
        plugin = plugin or binom_plugin()
        config = config or cfg()
        params = mc_sample_params(plugin, config)
        data = mc_sample_data(plugin, params, config)
        return plugin, config, pool_samples(plugin, params, data)

    def test_coverage_estimate_reaches_target(self):
        plugin, config, pooled = self.pooled()
        included, log_threshold, estimated, _ = mc_build_decision_row(plugin, 0.41, pooled, config)
        assert estimated >= 1.0 - config.level
        (f,) = plugin.likelihood(pooled.outcomes, [0.41])
        assert np.exp(log_threshold) == pytest.approx(min(f[included] / pooled.mix_density[included]))

    def test_single_point_prior_collapses_posterior(self):
        # Prior concentrated at one parameter: the mixture equals the
        # null likelihood, every ratio is 1, and the single tie group admits
        # every sampled outcome.
        base = binom_plugin()
        degenerate = GenericModel(
            likelihood=base.likelihood,
            sample_param=lambda rng: 0.35,
            sample_data=base.sample_data,
        )
        plugin, config, pooled = self.pooled(degenerate)
        included, log_threshold, _, _ = mc_build_decision_row(degenerate, 0.35, pooled, config)
        assert np.all(included)
        assert np.exp(log_threshold) == pytest.approx(1.0, rel=1e-12)

    def test_level_near_one_keeps_single_tie_group(self):
        # Limiting behaviour of an extreme level: only the top tie group
        # survives, here a single outcome since the null is asymmetric.
        plugin, config, pooled = self.pooled()
        included, _, _, _ = mc_build_decision_row(plugin, 0.3, pooled, cfg(level=1.0 - 1e-12))
        assert included.sum() == 1

    def test_ess_is_kept_and_above_the_floor(self):
        plugin, config, pooled = self.pooled()
        _, _, _, ess = mc_build_decision_row(plugin, 0.41, pooled, config)
        v = pooled.counts * plugin.likelihood(pooled.outcomes, [0.41])[0] / pooled.mix_density
        assert ess == pytest.approx(v.sum() ** 2 / (v * v / pooled.counts).sum(), rel=1e-12)
        assert ess >= config.ess_floor

    @pytest.mark.parametrize(
        "at_null,sampled",
        [(1e-297, 1e3), (1e-3, 1e3), (1e300, 1e3), (5e-324, 1e3), (1e308, 1e3), (1e306, 1.0)],
        ids=["1e-297", "0.001", "1e+300", "5e-324", "1e+308", "1e+306"],
    )
    def test_ess_is_scale_free(self, at_null, sampled):
        # Every draw weighs the same under a flat null, so every outcome is admitted and the ESS is
        # the number of draws. In linear space the weights count * at_null / sampled would underflow
        # (5e-324) or overflow (1e308), their sum would overflow (1e306), and their squares would
        # underflow (1e-297) or overflow (1e300); none warns (an error here).
        flat, config, pooled = self.pooled(flat_plugin({0.41: at_null}, sampled), cfg(n_params=100, n_data=5))
        assert np.all(pooled.mix_density == sampled)
        draws = config.n_params * config.n_data_per_param
        included, _, estimated, ess = mc_build_decision_row(flat, 0.41, pooled, config)
        assert ess == pytest.approx(draws, rel=1e-12)
        assert included.all() and estimated == 1.0
        rows = mc_decision_rows(flat, config, [0.6, 0.41])
        assert rows.included.all() and np.all(rows.estimated_coverage == 1.0)
        assert rows.ess == pytest.approx([draws, draws], rel=1e-12)
        assert rows.ess[1] == ess

    def test_ess_floor_trips(self):
        plugin, config, pooled = self.pooled()
        with pytest.raises(LowEffectiveSampleError):
            mc_build_decision_row(plugin, 0.41, pooled, cfg(ess_floor=1e18))

    def test_no_mass_at_null_is_degenerate(self):
        plugin, config, pooled = self.pooled()
        spiky = GenericModel(
            likelihood=lambda x, thetas: np.tile(np.where(x == 999, 1.0, 0.0), (len(thetas), 1)),
            sample_param=plugin.sample_param,
            sample_data=plugin.sample_data,
        )
        with pytest.raises(DegenerateWeightsError, match=r"^no sampled outcome carries likelihood mass at eta 0\.41$"):
            mc_build_decision_row(spiky, 0.41, pooled, config)


class TestMcDecisionMatrix:
    # No nulls give zero rows.
    @pytest.mark.parametrize("etas", [[0.2, 0.41, 0.6], []])
    def test_shapes(self, etas):
        rows = mc_decision_rows(binom_plugin(), cfg(), etas)
        assert rows.etas == etas
        assert rows.included.shape == (len(etas), rows.outcomes.size) and rows.included.dtype == bool
        for column in (rows.log_threshold, rows.estimated_coverage, rows.ess):
            assert column.shape == (len(etas),)

    def test_rows_equal_single_row_builds(self):
        plugin, config = binom_plugin(), cfg()
        params = mc_sample_params(plugin, config)
        pooled = pool_samples(plugin, params, mc_sample_data(plugin, params, config))
        # Two full blocks of nulls ranked together, then a partial one.
        per_block = _RANK_BLOCK // pooled.outcomes.size
        etas = np.linspace(0.1, 0.9, 2 * per_block + 7).tolist()
        assert len(etas) > 2 * per_block > 2
        rows = mc_decision_rows(plugin, config, etas)
        assert np.array_equal(rows.outcomes, pooled.outcomes)
        for j, eta in enumerate(rows.etas):
            included, log_threshold, estimated, ess = mc_build_decision_row(plugin, eta, pooled, config)
            assert np.array_equal(rows.included[j], included)
            assert (rows.log_threshold[j], rows.estimated_coverage[j], rows.ess[j]) == (log_threshold, estimated, ess)

    def test_a_later_likelihood_fault_in_a_block_surfaces_first(self):
        # A block's likelihoods are all evaluated before its first row is admitted.
        plugin = flat_plugin({0.41: 0.0, 0.6: math.nan})
        with pytest.raises(DegenerateWeightsError):
            mc_decision_rows(plugin, cfg(), [0.41])
        with pytest.raises(ValueError, match="^likelihood values must be finite and nonnegative$"):
            mc_decision_rows(plugin, cfg(), [0.41, 0.6])


class TestAgreement:
    def small_grid(self) -> ParameterGrid:
        return ParameterGrid.regular(19, 0.05, 0.95)

    def test_rows_track_exact_matrix(self):
        grid = self.small_grid()
        plugin = binom_plugin()
        rows = mc_decision_rows(plugin, cfg(n_params=800, n_data=50), [float(e) for e in grid.points])
        exact = build_decision_matrix(TestConfig(0.05, BinomialModel(20), BetaPrior(0.5, 0.5), grid))
        report = agreement_with_matrix(rows, exact)
        assert report.per_eta.shape == (19,)
        assert np.all(report.per_eta >= 0.0) and np.all(report.per_eta <= 1.0)
        assert report.overall >= 0.9

    def test_alignment_errors(self):
        grid = self.small_grid()
        plugin = binom_plugin()
        small = cfg(n_params=50, n_data=5, ess_floor=5.0)
        rows = mc_decision_rows(plugin, small, [float(e) for e in grid.points])
        exact = build_decision_matrix(TestConfig(0.05, BinomialModel(20), BetaPrior(0.5, 0.5), grid))
        short = replace(
            rows,
            etas=rows.etas[:-1],
            included=rows.included[:-1],
            log_threshold=rows.log_threshold[:-1],
            estimated_coverage=rows.estimated_coverage[:-1],
            ess=rows.ess[:-1],
        )
        with pytest.raises(ValueError, match="^18 MC rows against a 19-point grid$"):
            agreement_with_matrix(short, exact)
        shifted = mc_decision_rows(plugin, small, [float(e) + 1e-6 for e in grid.points])
        first = float(grid.points[0])
        message = f"row 0 null value {first + 1e-6!r} does not match grid point {first!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            agreement_with_matrix(shifted, exact)
        # A NaN null lies within no tolerance of a grid point.
        not_a_number = replace(rows, etas=[*rows.etas[:3], float("nan"), *rows.etas[4:]])
        with pytest.raises(ValueError, match="^row 3 null value nan does not match grid point"):
            agreement_with_matrix(not_a_number, exact)

    def test_outcomes_outside_support_raise(self):
        grid = ParameterGrid.regular(2, 0.25, 0.75)
        exact = build_decision_matrix(TestConfig(0.05, BinomialModel(20), BetaPrior(0.5, 0.5), grid))
        etas = [float(eta) for eta in grid.points]
        for bad in (-1, 21):
            outcomes = np.array([bad, 3])
            rows = McDecisionMatrix(etas, outcomes, np.ones((2, 2), bool), np.ones(2), np.ones(2), np.full(2, 1e3))
            with pytest.raises(ValueError, match=f"sampled outcome {bad} outside support 0..20"):
                agreement_with_matrix(rows, exact)

    def test_agreement_csv(self):
        grid = self.small_grid()
        report = AgreementReport(etas=grid.points, per_eta=np.linspace(0.9, 1.0, 19), overall=0.95)
        lines = agreement_csv(report).splitlines()
        assert lines[0] == "eta,agreement"
        assert len(lines) == 20
