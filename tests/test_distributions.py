"""Distribution kernels against arbitrary-precision oracles and invariants."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgpower.clopper_pearson import clopper_pearson
from avgpower.decisions import ParameterGrid, TestConfig, build_decision_row
from avgpower.distributions import (
    BetaPrior,
    BinomialModel,
    beta_binom_log_pmf_support,
    beta_binom_pmf_support,
    beta_log_pdf,
    beta_pdf,
    binom_log_pmf_rows,
    binom_log_pmf_support,
    binom_pmf,
    binom_pmf_rows,
    binom_pmf_support,
    log_beta,
    posterior_density_support,
)
from avgpower.distributions import _support_table as support_table
from avgpower.monte_carlo import McConfig
from oracles import (
    oracle_beta_binom_log_pmf,
    oracle_beta_binom_pmf,
    oracle_beta_log_pdf,
    oracle_beta_pdf,
    oracle_binom_pmf,
    oracle_log_gamma,
    oracle_posterior_density,
)


class TestLogGamma:
    """The log-gamma terms, checked through log_beta, the one function built on them."""

    def test_half(self):
        # B(1/2, 1/2) = Gamma(1/2)^2 = pi.
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), abs=1e-12)
        assert log_beta(0.5, 0.5) == pytest.approx(2 * 0.5723649429, abs=1e-9)

    def test_against_factorials(self):
        # B(k+1, k+1) = k! k! / (2k+1)!.
        for k in range(1, 15):
            expected = math.log(math.factorial(k) ** 2 / math.factorial(2 * k + 1))
            assert log_beta(k + 1, k + 1) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.5, 7.25, 100.0, 200.5])
    def test_against_oracle(self, z):
        for w in (1.0, 2.75):
            expected = oracle_log_gamma(z) + oracle_log_gamma(w) - oracle_log_gamma(z + w)
            assert log_beta(z, w) == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert log_beta(w, z) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, z):
        with pytest.raises(ValueError):
            log_beta(z, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, z)

    def test_overflow_raises_value_error_naming_the_shapes(self):
        # math.lgamma raises OverflowError above about 2.55e305.
        prior = BetaPrior(1e306, 0.5)
        calls = [
            lambda: log_beta(1e306, 0.5),
            lambda: beta_log_pdf(0.5, prior),
            lambda: beta_log_pdf(np.array([0.25, 0.5]), prior),
            lambda: beta_binom_log_pmf_support(BinomialModel(20), prior),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape("log_beta overflows the double range at a=1e+306, b=0.5")):
                call()
        with pytest.raises(ValueError, match=re.escape("at a=0.5, b=1e+306")):
            log_beta(0.5, 1e306)
        assert math.isfinite(log_beta(1e305, 1e305))

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


# Every check_integer call site, keyed by the name its error gives: each maps
# an integer argument to what the call stores or returns.
INTEGER_SITES = {
    "trial count": lambda v: BinomialModel(v).n,
    "count": lambda v: ParameterGrid.regular(v, 0.2, 0.8).points.tolist(),
    "seed": lambda v: McConfig(seed=v, n_params=1, n_data_per_param=1, level=0.05).seed,
    "n_params": lambda v: McConfig(seed=1, n_params=v, n_data_per_param=1, level=0.05).n_params,
    "n_data_per_param": lambda v: McConfig(seed=1, n_params=1, n_data_per_param=v, level=0.05).n_data_per_param,
    "outcome": lambda v: clopper_pearson(v, BinomialModel(5), 0.05),
}


@pytest.mark.parametrize("what", list(INTEGER_SITES))
def test_integer_arguments_are_checked_alike(what):
    site = INTEGER_SITES[what]
    for not_integer in (True, 2.0, 2.5, np.float64(2)):
        with pytest.raises(ValueError, match=f"^{what} must be an integer, got "):
            site(not_integer)
    got, want = site(np.int64(2)), site(2)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("what", ["trial count", "count", "n_params", "n_data_per_param"])
def test_counts_are_checked_alike(what):
    for not_positive in (0, -1):
        with pytest.raises(ValueError, match=f"^{what} must be a positive integer, got "):
            INTEGER_SITES[what](not_positive)


def test_parameter_count_is_bounded():
    # Parameters and data rows are drawn one by one, so a count past 32 bits is refused before any draw.
    assert INTEGER_SITES["n_params"](2**32 - 1) == 2**32 - 1
    for too_many in (2**32, 2**64):
        with pytest.raises(ValueError, match=rf"^n_params must be below 2\*\*32, got {too_many}$"):
            INTEGER_SITES["n_params"](too_many)


def _test_config(level: float) -> TestConfig:
    return TestConfig(level=level, model=BinomialModel(5), prior=BetaPrior(0.5, 0.5), grid=ParameterGrid.regular(3))


# Every check_open_unit call site: (the name its error gives, a call taking the value).
OPEN_UNIT_SITES = {
    "TestConfig": ("level", lambda v: _test_config(v).level),
    "McConfig": ("level", lambda v: McConfig(seed=1, n_params=1, n_data_per_param=1, level=v).level),
    "clopper_pearson": ("level", lambda v: clopper_pearson(2, BinomialModel(5), v)),
    "build_decision_row": ("eta", lambda v: build_decision_row(v, _test_config(0.05))),
    "posterior_density_support": ("eta", lambda v: posterior_density_support(v, BinomialModel(5), BetaPrior(0.5, 0.5))),
}


@pytest.mark.parametrize("site", list(OPEN_UNIT_SITES))
def test_open_unit_arguments_are_checked_alike(site):
    name, call = OPEN_UNIT_SITES[site]
    for outside in (0.0, 1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^{name} must lie strictly inside \(0, 1\), got "):
            call(outside)
    call(0.5)


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

    @pytest.mark.parametrize("n,theta", [(1, 0.3), (20, 0.123), (100, 0.97), (1000, 0.5)])
    def test_array_against_oracle_over_support(self, n, theta):
        got = binom_pmf(np.arange(n + 1), BinomialModel(n), theta)
        assert got.shape == (n + 1,)
        assert got == pytest.approx([oracle_binom_pmf(x, n, theta) for x in range(n + 1)], rel=1e-12)

    def test_array_keeps_shape_and_scalar_values(self):
        model = BinomialModel(10)
        x = np.array([[0, 3], [7, 10]])
        got = binom_pmf(x, model, 0.3)
        assert got.shape == (2, 2)
        assert got.tolist() == [[binom_pmf(int(k), model, 0.3) for k in row] for row in x]
        assert binom_pmf(x, model, 0.0).tolist() == [[1.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("n", [1, 20, 100, 1000])
    def test_theta_sequence_rows_equal_scalar_calls(self, n):
        model = BinomialModel(n)
        thetas = [0.0, 0.3, 1.0, 1e-300, 0.5, 1.0 - 2.0**-53, 0.97, 0.0]
        # Unsorted, repeated outcomes; one row per theta, each the scalar call bit for bit.
        x = np.array([n, 0, n // 2, 1, n, 0])
        got = binom_pmf(x, model, thetas)
        want = np.stack([binom_pmf(x, model, t) for t in thetas])
        assert got.shape == (len(thetas), x.size) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        # One outcome gives a (T,) column; the scalar call takes math.exp, not np.exp, so it is not compared here.
        assert binom_pmf(n, model, np.array(thetas)).tobytes() == got[:, 0].tobytes()
        assert binom_pmf(np.arange(n + 1), model, []).shape == (0, n + 1)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.25, math.inf])
    def test_theta_sequence_rejects_what_the_scalar_call_rejects(self, bad):
        model, x = BinomialModel(10), np.arange(11)
        with pytest.raises(ValueError) as scalar:
            binom_pmf(x, model, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            binom_pmf(x, model, [0.2, 1.0, bad, 0.0, bad])
        message = r"^theta must be one value or a 1-d sequence of them, got shape \(1, 2\)$"
        with pytest.raises(ValueError, match=message):
            binom_pmf(x, model, [[0.2, 0.3]])

    @pytest.mark.parametrize(
        "x", [np.array([0, -1]), np.array([11]), np.array([1.0, 2.0]), np.array([True, False])]
    )
    def test_array_rejects_bad_outcomes(self, x):
        with pytest.raises(ValueError):
            binom_pmf(x, BinomialModel(10), 0.5)

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


class TestBinomPmfRows:
    @pytest.mark.parametrize("n", [1, 20, 100, 1000])
    @pytest.mark.parametrize("count", [49, 499, 1001])
    def test_rows_equal_scalar_support_bit_for_bit(self, n, count):
        model = BinomialModel(n)
        pts = ParameterGrid.regular(count).points
        got = binom_pmf_rows(model, pts)
        assert got.shape == (count, n + 1)
        assert np.array_equal(got, np.array([binom_pmf_support(model, t) for t in pts]))

    @pytest.mark.parametrize("thetas", [[0.5, 0.0], [1.0], [math.nan], [[0.5]]])
    def test_rejects_thetas_outside_open_unit_interval(self, thetas):
        with pytest.raises(ValueError, match="strictly inside"):
            binom_pmf_rows(BinomialModel(3), np.array(thetas))


class TestBinomLogPmfRows:
    # From 1e-300 up to the largest double below 1.
    THETAS = np.array([1e-300, 1e-200, 1e-16, 1e-9, 0.002, 0.3013, 0.5, 0.75, 0.998, 1 - 1e-16, 1 - 2**-53])

    @pytest.mark.parametrize("n", [1, 20, 100, 1000, 5000])
    def test_rows_equal_scalar_support_bit_for_bit(self, n):
        model = BinomialModel(n)
        got = binom_log_pmf_rows(model, self.THETAS)
        assert got.shape == (self.THETAS.size, n + 1)
        for j, theta in enumerate(self.THETAS):
            assert np.array_equal(got[j], binom_log_pmf_support(model, theta)), theta


def fresh_log_choose(n: int) -> np.ndarray:
    """ln C(n, x) over x = 0..n, built afresh on every call."""
    lg = math.lgamma(n + 1)
    return np.array([lg - math.lgamma(x + 1) - math.lgamma(n - x + 1) for x in range(n + 1)])


def integer_support_formula(n: int, theta: float) -> np.ndarray:
    """The binomial log pmf with an integer outcome array."""
    x = np.arange(n + 1)
    return fresh_log_choose(n) + x * math.log(theta) + (n - x) * math.log1p(-theta)


class TestSupportTable:
    THETAS = (1e-300, 1e-9, 0.002, 0.3013, 0.5, 0.75, 0.998, 1 - 1e-16)

    @pytest.mark.parametrize("n", [1, 20, 100, 1000, 5000])
    def test_log_pmf_equals_integer_formula_bit_for_bit(self, n):
        model = BinomialModel(n)
        expected = np.array([integer_support_formula(n, t) for t in self.THETAS])
        for theta, row in zip(self.THETAS, expected):
            assert np.array_equal(binom_log_pmf_support(model, theta), row), theta
        assert np.array_equal(binom_pmf_rows(model, np.array(self.THETAS)), np.exp(expected))

    @pytest.mark.parametrize("n", [1, 20, 100, 1000])
    def test_beta_binomial_reads_the_same_coefficients(self, n):
        prior = BetaPrior(0.5, 2.5)
        lb = log_beta(0.5, 2.5)
        lbet = np.array([log_beta(x + 0.5, 2.5 + n - x) for x in range(n + 1)])
        log_choose = fresh_log_choose(n)
        assert np.array_equal(support_table(n)[0], log_choose)
        assert np.array_equal(beta_binom_log_pmf_support(BinomialModel(n), prior), log_choose + lbet - lb)

    def test_cached_tables_are_read_only(self):
        binom_log_pmf_support(BinomialModel(20), 0.3)
        for arr in support_table(20):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert support_table(20)[1].tolist() == list(range(21))
        assert support_table(20)[2].tolist() == list(range(20, -1, -1))


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
        # Only the touched endpoint's shape decides; the other may lie below one.
        for t, a, b, density in ((0.0, 2.0, 0.5, 0.0), (0.0, 1.0, 0.5, 0.5), (1.0, 0.5, 2.0, 0.0), (1.0, 0.5, 1.0, 0.5)):
            assert beta_pdf(t, BetaPrior(a, b)) == oracle_beta_pdf(t, a, b) == density
        for t, a, b in ((0.0, 0.5, 2.0), (1.0, 2.0, 0.5)):
            with pytest.raises(ValueError, match=re.escape(f"beta density unbounded at t={t} for shapes a={a}, b={b}")):
                beta_pdf(t, BetaPrior(a, b))

    def test_overflow_raises_value_error_naming_t_and_shapes(self):
        # Before, math.exp raised an untyped OverflowError.
        message = "beta density at t=1e-320 overflows a double for shapes a=0.01, b=1.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            beta_pdf(1e-320, BetaPrior(0.01, 1.0))

    @pytest.mark.parametrize(
        "a,b", [(0.5, 0.5), (100.0, 100.0), (1.0, 1.0), (1.0, 3.0), (0.01, 1e4), (1e6, 0.01), (2.5, 0.5)]
    )
    def test_array_matches_oracle_log_density(self, a, b):
        # The largest error measured here is 1.31e-12 of max(|ln p|, 1), under
        # Beta(1e6, 0.01) at t = 1 - 2**-53, where ln B(a, b) cancels two
        # log-gamma values near 1.3e7; 2e-12 leaves a margin of 1.5.
        pts = np.concatenate([[5e-324, 1e-300, 1e-9], ParameterGrid.regular(499).points, [1 - 1e-16, 1 - 2**-53]])
        got = beta_log_pdf(pts, BetaPrior(a, b))
        assert got.shape == pts.shape
        for t, value in zip(pts.tolist(), got.tolist()):
            assert value == pytest.approx(oracle_beta_log_pdf(t, a, b), rel=2e-12, abs=2e-12), t

    @pytest.mark.parametrize("t", [[0.5, 0.0], [1.0], [math.nan], [[0.5]], [0.5, -0.1]])
    def test_array_rejects_points_outside_open_unit_interval(self, t):
        with pytest.raises(ValueError, match="t must be a 1-d array of values strictly inside"):
            beta_log_pdf(np.array(t), BetaPrior(2.0, 2.0))

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

    @pytest.mark.parametrize("b", [1e-3, 1e-9, 1e-14, 1e-300])
    def test_small_shape_against_oracle_over_support(self, b):
        # b + n - x taken as (b + n) - x would lose b at x = n: 0.35 off at b = 1e-14.
        got = beta_binom_log_pmf_support(BinomialModel(100), BetaPrior(0.5, b))
        want = [oracle_beta_binom_log_pmf(x, 100, 0.5, b) for x in range(101)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-13)

    @pytest.mark.parametrize("b", [1e-3, 1e-9, 1e-14, 1e-300])
    def test_swapped_shapes_reverse_the_support(self, b):
        model = BinomialModel(100)
        got = beta_binom_log_pmf_support(model, BetaPrior(b, 0.5))
        want = beta_binom_log_pmf_support(model, BetaPrior(0.5, b))[::-1]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


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

    @pytest.mark.parametrize("eta", [0.002, 0.1])
    def test_overflow_raises_value_error_naming_eta_and_shapes(self, eta):
        # Before, exp overflowed with a RuntimeWarning and returned inf.
        message = f"posterior density at eta={eta!r} overflows a double at x=0 for shapes a=1000.0, b=1.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            posterior_density_support(eta, BinomialModel(1000), BetaPrior(1000.0, 1.0))
