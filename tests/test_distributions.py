"""Distribution kernels against arbitrary-precision oracles and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgpower.distributions import (
    BetaPrior,
    BinomialModel,
    beta_binom_pmf_support,
    beta_log_pdf,
    beta_pdf,
    binom_log_pmf_support,
    binom_pmf,
    binom_pmf_support,
    log_beta,
    log_gamma,
    posterior_density_support,
)
from oracles import (
    oracle_beta_binom_pmf,
    oracle_beta_pdf,
    oracle_binom_pmf,
    oracle_log_gamma,
    oracle_posterior_density,
)


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)
        assert log_gamma(0.5) == pytest.approx(0.5723649429, abs=1e-9)

    def test_against_factorials(self):
        for k in range(1, 15):
            assert log_gamma(k + 1) == pytest.approx(math.log(math.factorial(k)), rel=1e-13)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.5, 7.25, 100.0, 200.5])
    def test_against_oracle(self, z):
        assert log_gamma(z) == pytest.approx(oracle_log_gamma(z), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, z):
        with pytest.raises(ValueError):
            log_gamma(z)

    def test_log_beta_symmetry(self):
        assert log_beta(2.5, 7.0) == pytest.approx(log_beta(7.0, 2.5), rel=1e-15)
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


class TestBinomialModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinomialModel(n=0)
        with pytest.raises(ValueError):
            BinomialModel(n=-3)
        with pytest.raises(ValueError):
            BinomialModel(n=2.5)

    def test_outcomes(self):
        assert list(BinomialModel(n=3).outcomes()) == [0, 1, 2, 3]


class TestBinomPmf:
    def test_central_value(self):
        assert binom_pmf(50, BinomialModel(100), 0.5) == pytest.approx(0.0795892, abs=1e-7)

    @pytest.mark.parametrize(
        "x,n,theta",
        [(0, 1, 0.3), (5, 10, 0.123), (50, 100, 0.5), (99, 100, 0.97), (0, 100, 0.002), (200, 200, 0.998)],
    )
    def test_against_oracle(self, x, n, theta):
        assert binom_pmf(x, BinomialModel(n), theta) == pytest.approx(oracle_binom_pmf(x, n, theta), rel=1e-12)

    def test_degenerate_theta(self):
        model = BinomialModel(4)
        assert binom_pmf_support(model, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert binom_pmf_support(model, 1.0).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_rejects_bad_inputs(self):
        model = BinomialModel(10)
        with pytest.raises(ValueError):
            binom_pmf(11, model, 0.5)
        with pytest.raises(ValueError):
            binom_pmf(-1, model, 0.5)
        with pytest.raises(ValueError):
            binom_pmf(3, model, 1.5)
        with pytest.raises(ValueError):
            binom_pmf_support(model, math.nan)

    @given(n=st.integers(1, 200), theta=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_support_is_a_distribution(self, n, theta):
        pmf = binom_pmf_support(BinomialModel(n), theta)
        assert np.all(pmf >= 0.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    @given(n=st.integers(1, 80), theta=st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_reflection(self, n, theta):
        model = BinomialModel(n)
        left = binom_pmf_support(model, theta)
        right = binom_pmf_support(model, 1.0 - theta)[::-1]
        np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-300)


class TestBetaPdf:
    def test_symmetric_peak(self):
        assert beta_pdf(0.5, BetaPrior(100.0, 100.0)) == pytest.approx(oracle_beta_pdf(0.5, 100.0, 100.0), rel=1e-11)
        assert beta_pdf(0.5, BetaPrior(100.0, 100.0)) == pytest.approx(11.3, abs=0.05)

    @pytest.mark.parametrize("t,a,b", [(0.002, 0.5, 0.5), (0.31, 2.0, 5.5), (0.998, 0.5, 0.5), (0.73, 100.0, 100.0)])
    def test_against_oracle(self, t, a, b):
        assert beta_pdf(t, BetaPrior(a, b)) == pytest.approx(oracle_beta_pdf(t, a, b), rel=1e-11)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            BetaPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaPrior(1.0, -2.0)
        with pytest.raises(ValueError):
            BetaPrior(math.inf, 1.0)

    def test_boundary_conventions(self):
        # Shapes above one vanish at the touched endpoint; shape exactly one
        # leaves the density of the remaining factor.
        assert beta_pdf(0.0, BetaPrior(2.0, 3.0)) == 0.0
        assert beta_pdf(1.0, BetaPrior(2.0, 3.0)) == 0.0
        assert beta_pdf(0.0, BetaPrior(1.0, 3.0)) == pytest.approx(3.0, rel=1e-12)
        assert beta_pdf(1.0, BetaPrior(3.0, 1.0)) == pytest.approx(3.0, rel=1e-12)
        with pytest.raises(ValueError):
            beta_pdf(0.0, BetaPrior(0.5, 0.5))
        with pytest.raises(ValueError):
            beta_pdf(1.0, BetaPrior(0.5, 0.5))
        with pytest.raises(ValueError):
            beta_pdf(-0.1, BetaPrior(2.0, 2.0))

    @given(t=st.floats(0.001, 0.999), shape=st.floats(0.2, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_under_equal_shapes(self, t, shape):
        prior = BetaPrior(shape, shape)
        assert beta_log_pdf(t, prior) == pytest.approx(beta_log_pdf(1.0 - t, prior), rel=1e-9, abs=1e-9)


class TestBetaBinomial:
    def test_against_quadrature_oracle(self):
        got = beta_binom_pmf_support(BinomialModel(100), BetaPrior(0.5, 0.5))[50]
        assert got == pytest.approx(oracle_beta_binom_pmf(50, 100, 0.5, 0.5), rel=1e-9)

    @pytest.mark.parametrize("x,n,a,b", [(0, 20, 0.5, 0.5), (7, 20, 3.0, 1.5), (100, 100, 100.0, 100.0)])
    def test_more_oracle_points(self, x, n, a, b):
        got = beta_binom_pmf_support(BinomialModel(n), BetaPrior(a, b))[x]
        assert got == pytest.approx(oracle_beta_binom_pmf(x, n, a, b), rel=1e-9)

    @given(n=st.integers(1, 60), a=st.floats(0.1, 40.0), b=st.floats(0.1, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_support_is_a_distribution(self, n, a, b):
        pmf = beta_binom_pmf_support(BinomialModel(n), BetaPrior(a, b))
        assert np.all(pmf >= 0.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-11)

    def test_symmetric_prior_symmetric_pmf(self):
        pmf = beta_binom_pmf_support(BinomialModel(31), BetaPrior(0.5, 0.5))
        np.testing.assert_allclose(pmf, pmf[::-1], rtol=1e-12)


class TestPosteriorDensity:
    def test_matches_explicit_ratio(self):
        model, prior = BinomialModel(100), BetaPrior(0.5, 0.5)
        mix = beta_binom_pmf_support(model, prior)
        for eta, x in [(0.3, 25), (0.5, 50), (0.9, 95)]:
            expected = binom_pmf(x, model, eta) / mix[x]
            assert posterior_density_support(eta, model, prior)[x] == pytest.approx(expected, rel=1e-12)

    def test_support_variant_agrees(self):
        model, prior = BinomialModel(20), BetaPrior(2.0, 3.0)
        dens = posterior_density_support(0.4, model, prior)
        for x in (0, 7, 20):
            assert dens[x] == pytest.approx(oracle_posterior_density(0.4, x, 20, 2.0, 3.0), rel=1e-13)

    def test_averages_to_one_over_prior_mixture(self):
        # Summing g(eta, x) * P_mix(x) over x returns the likelihood's total
        # mass, which is 1 at every eta.
        model, prior = BinomialModel(50), BetaPrior(0.5, 0.5)
        mix = beta_binom_pmf_support(model, prior)
        dens = posterior_density_support(0.37, model, prior)
        assert float(dens @ mix) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_boundary_eta(self):
        model, prior = BinomialModel(10), BetaPrior(0.5, 0.5)
        with pytest.raises(ValueError):
            posterior_density_support(0.0, model, prior)
        with pytest.raises(ValueError):
            posterior_density_support(1.0, model, prior)
