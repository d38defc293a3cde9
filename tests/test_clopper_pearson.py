"""Equal-tail baseline intervals and the length comparison."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgpower import (
    BetaPrior,
    BinomialModel,
    ParameterGrid,
    TestConfig,
    build_decision_matrix,
    clopper_pearson,
    compare_lengths,
    confidence_region,
    cp_intervals,
)
from avgpower.clopper_pearson import comparison_csv
from avgpower.distributions import binom_pmf_support
from oracles import oracle_bisect_cp, oracle_cp_interval

cp_module = importlib.import_module("avgpower.clopper_pearson")


class TestEndpoints:
    def test_boundary_conventions(self):
        model = BinomialModel(100)
        assert clopper_pearson(0, model, 0.05)[0] == 0.0
        assert clopper_pearson(100, model, 0.05)[1] == 1.0

    def test_central_interval(self):
        lower, upper = clopper_pearson(50, BinomialModel(100), 0.05)
        assert lower == pytest.approx(0.3983, abs=5e-4)
        assert upper == pytest.approx(0.6017, abs=5e-4)

    def test_against_incomplete_beta_oracle(self):
        model = BinomialModel(100)
        for x in (0, 1, 13, 50, 87, 100):
            lower, upper = oracle_cp_interval(x, 100, 0.05)
            got_lower, got_upper = clopper_pearson(x, model, 0.05)
            assert got_lower == pytest.approx(lower, abs=1e-6)
            assert got_upper == pytest.approx(upper, abs=1e-6)

    def test_reflection_symmetry(self):
        model = BinomialModel(60)
        for x in (0, 4, 17, 30):
            a_lower, a_upper = clopper_pearson(x, model, 0.05)
            b_lower, b_upper = clopper_pearson(60 - x, model, 0.05)
            assert a_lower == pytest.approx(1.0 - b_upper, abs=2e-10)
            assert a_upper == pytest.approx(1.0 - b_lower, abs=2e-10)

    def test_monotone_in_x(self):
        lowers, uppers = (ends.tolist() for ends in cp_intervals(BinomialModel(40), 0.05))
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers)

    def test_coverage_on_fine_grid(self):
        # Exact summation: the realized coverage never drops below 1 - level.
        model = BinomialModel(25)
        lower, upper = cp_intervals(model, 0.05)
        for theta in np.linspace(0.001, 0.999, 999):
            pmf = binom_pmf_support(model, float(theta))
            mask = (lower <= theta) & (theta <= upper)
            assert float(pmf[mask].sum()) >= 0.95 - 1e-12

    def test_validation(self):
        model = BinomialModel(10)
        with pytest.raises(ValueError):
            clopper_pearson(11, model, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson(-1, model, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson(3.0, model, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson(3, model, 0.0)
        with pytest.raises(ValueError):
            clopper_pearson(3, model, 1.0)


class TestPlainBisectionReference:
    """Certified midpoints must leave every endpoint equal to the plain bisection's."""

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100, 333])
    @pytest.mark.parametrize("level", [0.999, 0.5, 0.05, 1e-3, 1e-6, 1e-9, 1e-300])
    def test_every_outcome(self, n, level):
        lower, upper = cp_intervals(BinomialModel(n), level)
        assert lower.shape == upper.shape == (n + 1,)
        for x in range(n + 1):
            assert (lower[x], upper[x]) == oracle_bisect_cp(x, n, level)

    def test_every_outcome_at_n_1000(self):
        lower, upper = cp_intervals(BinomialModel(1000), 0.05)
        for x in range(1001):
            assert (lower[x], upper[x]) == oracle_bisect_cp(x, 1000, 0.05)

    @given(n=st.integers(1, 60), share=st.floats(0.0, 1.0), exponent=st.floats(-295.0, -0.001))
    @settings(max_examples=200, deadline=None)
    def test_small_n_sweep(self, n, share, exponent):
        x = round(share * n)
        level = 10.0**exponent
        assert clopper_pearson(x, BinomialModel(n), level) == oracle_bisect_cp(x, n, level)


class TestTailSumBudget:
    """Tail sums per endpoint; the plain bisection spends 34 on each."""

    @staticmethod
    def tail_sums(monkeypatch, n, level) -> int:
        calls = []
        kernel = cp_module.binom_pmf_support

        def counted(model, theta):
            calls.append(theta)
            return kernel(model, theta)

        monkeypatch.setattr(cp_module, "binom_pmf_support", counted)
        cp_intervals(BinomialModel(n), level)
        return len(calls)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_certified_midpoints_are_skipped(self, monkeypatch, n):
        # x = 0 has no lower endpoint to solve and x = n no upper one.
        assert self.tail_sums(monkeypatch, n, 0.05) <= 16 * 2 * n

    def test_no_certification_below_the_subnormal_cutoff(self, monkeypatch):
        assert self.tail_sums(monkeypatch, 20, 1e-300) == 34 * 2 * 20


class TestCompareLengths:
    def test_non_informative_means(self, matrix_non):
        comparison = compare_lengths(matrix_non)
        for column in (comparison.cp_lower, comparison.cp_upper, comparison.prop_lower, comparison.prop_upper):
            assert column.shape == (101,)
        assert comparison.grid_step == pytest.approx(0.002, abs=1e-12)
        assert comparison.mean_proposed_length <= comparison.mean_cp_length + comparison.grid_step

    def test_rows_match_direct_computation(self, matrix_non):
        comparison = compare_lengths(matrix_non)
        lower, upper = clopper_pearson(50, matrix_non.config.model, 0.05)
        region = confidence_region(matrix_non, 50)
        assert comparison.cp_lower[50] == lower and comparison.cp_upper[50] == upper
        assert comparison.prop_lower[50] == region.lower and comparison.prop_upper[50] == region.upper

    def test_informative_center_shorter_than_baseline(self, matrix_inf):
        comparison = compare_lengths(matrix_inf)
        proposed = comparison.prop_upper[50] - comparison.prop_lower[50]
        assert proposed < comparison.cp_upper[50] - comparison.cp_lower[50]

    def test_full_acceptance_spans_the_grid(self, make_full_acceptance):
        # Limiting case of a degenerate level: every proposed region covers
        # the whole grid, so each proposed length equals the grid span.
        comparison = compare_lengths(make_full_acceptance(20))
        assert comparison.prop_upper.shape == (21,)
        np.testing.assert_allclose(comparison.prop_upper - comparison.prop_lower, 0.996, rtol=0, atol=1e-12)

    def test_csv_format(self, matrix_non):
        lines = comparison_csv(compare_lengths(matrix_non)).splitlines()
        assert lines[0] == "x,cp_lower,cp_upper,prop_lower,prop_upper"
        assert len(lines) == 102
        fields = lines[1].split(",")
        assert fields[0] == "0" and fields[1] == "0"
