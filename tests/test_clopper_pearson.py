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
from avgpower.csvtext import value
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
        # The oracle bisects to 1e-12 in 40-digit arithmetic, so it is itself
        # within 5e-13 of the endpoint.
        cases = [
            (100, 0.05, (0, 1, 13, 50, 87, 100)),
            (20, 1e-9, (0, 1, 7, 13, 19, 20)),
            (1000, 0.05, (0, 1, 2, 50, 500, 999, 1000)),
        ]
        for n, level, outcomes in cases:
            model = BinomialModel(n)
            for x in outcomes:
                lower, upper = oracle_cp_interval(x, n, level)
                got_lower, got_upper = clopper_pearson(x, model, level)
                assert got_lower == pytest.approx(lower, abs=1e-12)
                assert got_upper == pytest.approx(upper, abs=1e-12)

    def test_reflection_symmetry(self):
        model = BinomialModel(60)
        for x in (0, 4, 17, 30):
            a_lower, a_upper = clopper_pearson(x, model, 0.05)
            b_lower, b_upper = clopper_pearson(60 - x, model, 0.05)
            assert b_upper == 1.0 - a_lower
            assert a_upper == 1.0 - b_lower

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


# The plain bisection's final half-bracket, 2**-35 = 2.9103830e-11, plus the
# rounding of one minus a lower endpoint.
BISECTION_SLACK = 3e-11


def assert_within_bisection(got: tuple, x: int, n: int, level: float) -> None:
    for end, reference in zip(got, oracle_bisect_cp(x, n, level)):
        assert abs(end - reference) <= BISECTION_SLACK


class TestPlainBisectionReference:
    """Every endpoint lies inside the final bracket of the plain bisection on the same tail sums."""

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100, 333])
    @pytest.mark.parametrize("level", [0.999, 0.5, 0.05, 1e-3, 1e-6, 1e-9, 1e-300])
    def test_every_outcome(self, n, level):
        lower, upper = cp_intervals(BinomialModel(n), level)
        assert lower.shape == upper.shape == (n + 1,)
        for x in range(n + 1):
            assert_within_bisection((lower[x], upper[x]), x, n, level)

    def test_every_outcome_at_n_1000(self):
        lower, upper = cp_intervals(BinomialModel(1000), 0.05)
        for x in range(1001):
            assert_within_bisection((lower[x], upper[x]), x, 1000, 0.05)

    def test_edge_outcomes_at_a_tiny_level_at_n_1000(self):
        # The Wilson start lies where the tail underflows to zero, so the
        # safeguard bisects in logit(theta); a bracket reaching past the floats
        # inside (0, 1) rounds its midpoints to 1 and stopped there.
        model = BinomialModel(1000)
        for x in (*range(41), *range(960, 1001)):
            assert_within_bisection(clopper_pearson(x, model, 1e-300), x, 1000, 1e-300)

    @given(n=st.integers(1, 60), share=st.floats(0.0, 1.0), exponent=st.floats(-295.0, -0.001))
    @settings(max_examples=200, deadline=None)
    def test_small_n_sweep(self, n, share, exponent):
        x = round(share * n)
        level = 10.0**exponent
        assert_within_bisection(clopper_pearson(x, BinomialModel(n), level), x, n, level)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    @pytest.mark.parametrize("level", [5e-324, 1e-320])
    def test_subnormal_levels(self, n, level):
        # Half of 5e-324 rounds to zero, where NormalDist().inv_cdf would raise.
        lower, upper = cp_intervals(BinomialModel(n), level)
        for x in range(n + 1):
            assert_within_bisection((lower[x], upper[x]), x, n, level)

    def test_level_whose_half_underflows_gives_the_limit_interval(self):
        lower, upper = cp_intervals(BinomialModel(100), 5e-324)
        assert (lower == 0.0).all() and (upper == 1.0).all()


class TestTailSumBudget:
    """Tail sums per endpoint; the plain bisection spends 34 on each, Newton about four."""

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
    def test_newton_budget(self, monkeypatch, n):
        # x = 0 has no lower endpoint to solve and x = n no upper one.
        assert self.tail_sums(monkeypatch, n, 0.05) <= 6 * 2 * n

    def test_newton_budget_at_a_tiny_level(self, monkeypatch):
        assert self.tail_sums(monkeypatch, 20, 1e-300) <= 6 * 2 * 20


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

    @pytest.mark.parametrize(
        "n, prior, level, count",
        [
            (100, BetaPrior(0.5, 0.5), 0.05, 499),
            # Regions with gaps: 11 of the 101 columns accept grid points that are not adjacent.
            (100, BetaPrior(0.01, 0.01), 1e-9, 499),
            # Two grid points leave most outcomes with an empty region.
            (10, BetaPrior(0.5, 0.5), 0.05, 2),
        ],
    )
    def test_endpoints_equal_confidence_regions(self, n, prior, level, count):
        matrix = build_decision_matrix(TestConfig(level, BinomialModel(n), prior, ParameterGrid.regular(count)))
        comparison = compare_lengths(matrix)
        regions = [confidence_region(matrix, x) for x in range(n + 1)]
        # assert_array_equal compares exactly and counts NaN equal to NaN.
        np.testing.assert_array_equal(comparison.prop_lower, [region.lower for region in regions])
        np.testing.assert_array_equal(comparison.prop_upper, [region.upper for region in regions])
        if count == 2:
            assert sum(region.is_empty for region in regions) == 9

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

    def test_empty_regions_write_empty_fields(self, full_rejection):
        # The comparison keeps NaN for an empty region; the CSV leaves its fields empty.
        comparison = compare_lengths(full_rejection)
        assert np.isnan(comparison.prop_lower).all() and np.isnan(comparison.prop_upper).all()
        lines = comparison_csv(comparison).splitlines()
        cp_lower, cp_upper = cp_intervals(full_rejection.config.model, 0.05)
        assert lines[1:] == [f"{x},{value(lo)},{value(hi)},," for x, (lo, hi) in enumerate(zip(cp_lower, cp_upper))]
