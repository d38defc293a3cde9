"""Equal-tail baseline intervals and the length comparison."""

from __future__ import annotations

import importlib
import math
import re
import sys

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
    cli,
    clopper_pearson,
    compare_lengths,
    confidence_region,
    cp_intervals,
)
from avgpower.clopper_pearson import comparison_csv
from avgpower.csvtext import value
from avgpower.distributions import binom_pmf_support
from oracles import oracle_bisect_cp, oracle_cp_interval, oracle_cp_root

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
        # For x near n the start lies where the float tail underflows to zero,
        # 132 times in 586 sums over these 82 intervals; those tails are summed
        # in log space. A bisection whose bracket reached past the floats inside
        # (0, 1) would round its midpoints to 1 and stop there.
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


def sampled_outcomes(n: int) -> list:
    """Every outcome up to n = 20; beyond, six at each end of the support and five inside it."""
    if n <= 20:
        return list(range(1, n + 1))
    return sorted({*range(1, 7), n // 10, n // 4, n // 2, 3 * n // 4, n - n // 10, *range(n - 5, n + 1)})


class TestAgainstFiftyDigitRoots:
    """Each lower endpoint for x, and each upper one for n - x, against the 50-digit root.

    The solver settles on the root of its own float tail sum
    (TestSettledRoots); what is left is the float pmf row's error. ln C(n, x)
    is a difference of log-gammas near 5900 at n = 1000, so the row is up to
    1.5e-12 relative off there, which moves the root for x = 2 by 7.9e-13.
    At n <= 100 the worst is 8.4e-14, at n = 20, x = 1 and level 1e-300,
    where x ln(theta) is near -694.
    """

    @staticmethod
    def endpoints(n: int, level: float):
        """(x, endpoint, root) for the lower endpoint of x and the upper endpoint of n - x."""
        lower, upper = cp_intervals(BinomialModel(n), level)
        for x in sampled_outcomes(n):
            low, up = oracle_cp_root(x, n, level)
            yield x, lower[x], low
            yield n - x, upper[n - x], up

    @pytest.mark.parametrize("level", [0.5, 0.05, 1e-9, 1e-300])
    @pytest.mark.parametrize("n, rtol", [(20, 1e-13), (100, 1e-13), (1000, 1e-12)])
    def test_relative_error(self, n, rtol, level):
        for x, end, root in self.endpoints(n, level):
            assert abs(end - root) <= rtol * root, (x, end, root)

    @pytest.mark.parametrize("n", [20, 100])
    def test_a_subnormal_level(self, n):
        # Half of 1e-320 keeps 11 bits as a float, so its tail is compared in logs. A root that is
        # itself subnormal, as for x = 1, is held to within one ulp, which is 2e-2 relative at n = 20.
        for x, end, root in self.endpoints(n, 1e-320):
            bound = 1e-12 * root if root >= sys.float_info.min else math.ulp(root)
            assert abs(end - root) <= bound, (x, end, root)


class TestSettledRoots:
    """Every lower endpoint lies within 1e-13 in logit(theta) of the root of its own float tail sum.

    The distance is Newton's, |g| / g' for g = ln(tail / half). The solver
    leaves at most 3.5e-14, where x ln(theta) is near -694 and the row's
    rounding is 1e-13 in g; a Halley step that returned from |g| <= 1e-3
    would leave up to 5.7e-12 (n = 100, x = 51, level 0.5).
    """

    @pytest.mark.parametrize("level", [0.5, 0.05, 1e-9, 1e-300])
    @pytest.mark.parametrize("n", [20, 100, 1000])
    def test_every_lower_endpoint(self, n, level):
        model = BinomialModel(n)
        lower, _ = cp_intervals(model, level)
        for x in range(1, n + 1):
            t = float(lower[x])
            pmf = binom_pmf_support(model, t)
            tail = float(pmf[x:].sum())
            slope = x * (1.0 - t) * float(pmf[x]) / tail
            assert abs(math.log(tail / (level / 2.0))) <= 1e-13 * slope, (x, t)


class TestBracketSafeguard:
    """A start far above the root sends Newton's step past the bracket; the bracket's midpoint replaces it."""

    @pytest.mark.parametrize("start", [0.9, 1.0 - 2.0**-53])
    def test_far_starts_settle_on_the_same_roots(self, monkeypatch, start):
        model = BinomialModel(100)
        expected, _ = cp_intervals(model, 0.05)
        monkeypatch.setattr(cp_module, "_start", lambda n, x, half: start)
        lower, _ = cp_intervals(model, 0.05)
        np.testing.assert_allclose(lower, expected, rtol=1e-14, atol=0.0)


# Tail sums per endpoint the solver may spend at level 0.05, where it spends 1.96 at n = 100 and
# 1.84 at n = 1000.
TAIL_SUM_BUDGET = {100: 2.0, 1000: 1.85}
# The same at level 1e-9, where it spends 2.35 and 2.11.
TINY_LEVEL_TAIL_SUM_BUDGET = {100: 2.4, 1000: 2.15}
# The same at level 1e-300, where it spends 2.56 and 3.17: 38 and 260 of the float tails underflow
# to zero there, and are summed in log space.
LEVEL_1E_300_TAIL_SUM_BUDGET = {100: 2.6, 1000: 3.2}


class TestTailSumBudget:
    """Tail sums per endpoint; the plain bisection spends 34 on each, the solver one to four down to level 1e-9."""

    @staticmethod
    def counted_sums(monkeypatch) -> list:
        """Wrap the module's pmf row; the list it returns gains one theta per tail sum."""
        calls = []
        kernel = cp_module.binom_pmf_support

        def counted(model, theta):
            calls.append(theta)
            return kernel(model, theta)

        monkeypatch.setattr(cp_module, "binom_pmf_support", counted)
        return calls

    def tail_sums(self, monkeypatch, n, level) -> int:
        calls = self.counted_sums(monkeypatch)
        cp_intervals(BinomialModel(n), level)
        return len(calls)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_newton_budget(self, monkeypatch, n):
        # x = 0 has no lower endpoint to solve and x = n no upper one.
        assert self.tail_sums(monkeypatch, n, 0.05) <= TAIL_SUM_BUDGET[n] * 2 * n

    @pytest.mark.parametrize("n", [100, 1000])
    def test_newton_budget_at_level_1e_9(self, monkeypatch, n):
        assert self.tail_sums(monkeypatch, n, 1e-9) <= TINY_LEVEL_TAIL_SUM_BUDGET[n] * 2 * n

    @pytest.mark.parametrize("n", [100, 1000])
    def test_newton_budget_at_level_1e_300(self, monkeypatch, n):
        assert self.tail_sums(monkeypatch, n, 1e-300) <= LEVEL_1E_300_TAIL_SUM_BUDGET[n] * 2 * n

    def test_newton_budget_at_a_tiny_level(self, monkeypatch):
        # 76 sums, 1.9 per endpoint.
        assert self.tail_sums(monkeypatch, 20, 1e-300) <= 1.95 * 2 * 20

    @pytest.mark.parametrize("level", [0.5, 0.05, 1e-9])
    @pytest.mark.parametrize("n", [2, 20, 100, 1000])
    def test_exact_starts_settle_in_one_sum(self, monkeypatch, n, level):
        # P(X >= n) = theta^n and P(X >= 1) = 1 - (1 - theta)^n invert in closed form.
        model, calls = BinomialModel(n), self.counted_sums(monkeypatch)
        for x in (1, n):
            calls.clear()
            cp_module._lower_endpoint(model, x, level / 2.0)
            assert len(calls) == 1, (x, calls)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_beta_quantile_start_is_near_the_root(self, n):
        # Within |g| <= 0.1 the first step is already Halley's. Abramowitz & Stegun's 26.5.22 is
        # least accurate at the smallest shape, x = 2, which starts at g = -0.151 (n = 100) and
        # -0.153 (n = 1000); every other x starts within 0.092.
        model, half = BinomialModel(n), 0.025
        g = {x: cp_module._log_tail(model, x, cp_module._start(n, x, half), half)[0] for x in range(2, n)}
        assert abs(g.pop(2)) <= 0.16
        assert max(map(abs, g.values())) <= 0.1

    def test_exhausted_budget_raises(self, monkeypatch, tmp_path, capsys):
        # One tail sum cannot settle this endpoint, which starts at |g| = 0.07, and an iterate
        # never evaluated is no answer.
        monkeypatch.setattr(cp_module, "_MAX_EVALS", 1)
        message = "lower endpoint for x=3, n=20 at tail level 0.025 unsettled after 1 sums"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            clopper_pearson(3, BinomialModel(20), 0.05)
        assert cli.main(["compare-cp", "--n", "20", "--grid-points", "49", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: lower endpoint for x=")


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
