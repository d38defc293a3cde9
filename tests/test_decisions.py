"""Decision-row construction, region inversion, and CSV round-trips."""

from __future__ import annotations

import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avgpower import (
    BetaPrior,
    BinomialModel,
    ParameterGrid,
    TestConfig,
    build_decision_matrix,
    build_decision_row,
    confidence_region,
    coverage,
    decision_matrix_from_csv,
    decision_matrix_to_csv,
    type1_error,
)
from avgpower.decisions import TIE_RTOL, DecisionMatrix, ThresholdOverflowError, rows_summary_csv
from avgpower.distributions import (
    beta_binom_log_pmf_support,
    binom_log_pmf_support,
    binom_pmf_support,
    posterior_density_support,
)
from avgpower.monte_carlo import (
    McConfig,
    make_binomial_plugin,
    mc_decision_rows,
    mc_sample_data,
    mc_sample_params,
    pool_samples,
)
from oracles import _posterior_values, oracle_admit_tie_groups, oracle_greedy_row, oracle_matrix_csv


def small_config(n: int = 20, a: float = 0.5, b: float = 0.5, level: float = 0.05) -> TestConfig:
    return TestConfig(
        level=level,
        model=BinomialModel(n=n),
        prior=BetaPrior(a=a, b=b),
        grid=ParameterGrid.regular(),
    )


def assert_reads_back(config: TestConfig) -> None:
    """The CSV reader restores the built matrix bit for bit, and its matrix writes the same text."""
    matrix = build_decision_matrix(config)
    text = decision_matrix_to_csv(matrix)
    rebuilt = decision_matrix_from_csv(text, config)
    assert np.array_equal(rebuilt.included, matrix.included)
    assert np.array_equal(rebuilt.log_threshold, matrix.log_threshold)
    assert np.array_equal(rebuilt.achieved_coverage, matrix.achieved_coverage)
    assert decision_matrix_to_csv(rebuilt) == text


class TestParameterGrid:
    def test_default_grid(self):
        grid = ParameterGrid.regular()
        assert len(grid) == 499
        assert grid.points[0] == pytest.approx(0.002, abs=1e-15)
        assert grid.points[-1] == pytest.approx(0.998, abs=1e-15)
        assert grid.points[249] == 0.5
        np.testing.assert_allclose(np.diff(grid.points), 0.002, rtol=1e-9)

    def test_mirror_symmetry_is_exact(self):
        grid = ParameterGrid.regular()
        # Bitwise mirror: the sum of a point and its reflection is exactly 1.
        assert np.all(grid.points + grid.points[::-1] == 1.0)

    def test_single_point(self):
        grid = ParameterGrid.regular(1, 0.3, 0.7)
        assert grid.points.tolist() == [0.5]
        assert grid.cell_widths.tolist() == [1.0]

    def test_cell_widths(self):
        grid = ParameterGrid(points=np.array([0.1, 0.2, 0.4]))
        np.testing.assert_allclose(grid.cell_widths, [0.1, 0.15, 0.2])

    def test_nearest_index(self):
        grid = ParameterGrid.regular()
        assert grid.nearest_index(0.45) == 224
        assert grid.points[grid.nearest_index(0.45)] == pytest.approx(0.45, abs=1e-12)
        for off_grid in (0.4511, float("nan")):
            with pytest.raises(ValueError):
                grid.nearest_index(off_grid)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterGrid.regular(0)
        with pytest.raises(ValueError):
            ParameterGrid.regular(10, 0.5, 0.4)
        with pytest.raises(ValueError):
            ParameterGrid.regular(10, 0.0, 0.9)
        with pytest.raises(ValueError):
            ParameterGrid(points=np.array([0.2, 0.1]))

    @pytest.mark.parametrize(
        "points, message",
        [
            ([[0.2, 0.4]], "grid needs at least one point"),
            ([0.2, float("nan")], "grid points must lie strictly inside"),
            ([0.2, 1.0], "grid points must lie strictly inside"),
        ],
    )
    def test_points_that_are_not_a_grid_fail(self, points, message):
        with pytest.raises(ValueError, match=message):
            ParameterGrid(points=np.array(points))

    def test_regular_needs_a_range_for_more_than_one_point(self):
        with pytest.raises(ValueError, match="low < high required for more than one point"):
            ParameterGrid.regular(3, 0.5, 0.5)

    @pytest.mark.parametrize("count", [True, 2.5])
    def test_regular_rejects_a_count_that_is_not_an_integer(self, count):
        with pytest.raises(ValueError, match="count must be an integer"):
            ParameterGrid.regular(count)

    def test_points_are_a_read_only_copy(self):
        source = np.array([0.1, 0.2, 0.3])
        config = TestConfig(level=0.05, model=BinomialModel(3), prior=BetaPrior(0.5, 0.5), grid=ParameterGrid(source))
        matrix = build_decision_matrix(config)
        source[0] = 0.5
        assert matrix.config.grid.points.tolist() == [0.1, 0.2, 0.3]
        with pytest.raises(ValueError):
            matrix.config.grid.points[0] = 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(level=0.0)
        with pytest.raises(ValueError):
            small_config(level=1.0)


class TestBuildDecisionRow:
    def test_central_row_shape(self):
        # n=100 at the symmetric null: a contiguous block around 50 whose
        # exact mass lands in [0.95, 0.95 + mass of the final tie pair).
        config = small_config(n=100)
        included, _, achieved = build_decision_row(0.5, config)
        inc = np.flatnonzero(included)
        assert inc[0] == 40 and inc[-1] == 60
        assert inc.size == inc[-1] - inc[0] + 1
        pmf = binom_pmf_support(config.model, 0.5)
        last_group_mass = pmf[40] + pmf[60]
        assert 0.95 <= achieved <= 0.95 + last_group_mass

    def test_matches_independent_resort_oracle(self):
        config = small_config(n=100)
        for eta in (0.11, 0.5, 0.83):
            included, _, _ = build_decision_row(eta, config)
            assert set(np.flatnonzero(included).tolist()) == set(oracle_greedy_row(eta, 100, 0.05, 0.5, 0.5))

    def test_informative_row_against_oracle(self):
        config = small_config(n=100, a=100.0, b=100.0)
        included, _, _ = build_decision_row(0.33, config)
        assert set(np.flatnonzero(included).tolist()) == set(oracle_greedy_row(0.33, 100, 0.05, 100.0, 100.0))

    def test_threshold_is_minimum_included_density(self):
        config = small_config()
        included, log_threshold, _ = build_decision_row(0.37, config)
        dens = posterior_density_support(0.37, config.model, config.prior)
        assert np.exp(log_threshold) == float(dens[included].min())
        recovered = dens >= np.exp(log_threshold) * (1.0 - 1e-9)
        assert np.array_equal(recovered, included)

    def test_symmetric_ties_admitted_atomically(self):
        config = small_config(n=100)
        included, _, _ = build_decision_row(0.5, config)
        assert np.array_equal(included, included[::-1])

    def test_mirrored_nulls_give_mirrored_rows(self):
        config = small_config(n=100)
        left, _, _ = build_decision_row(0.3, config)
        right, _, _ = build_decision_row(0.7, config)
        assert np.array_equal(left, right[::-1])

    def test_coverage_constraint_met(self):
        config = small_config()
        for eta in (0.002, 0.25, 0.5, 0.998):
            _, _, achieved = build_decision_row(eta, config)
            assert achieved >= 1.0 - config.level

    def test_unreachable_target_raises(self):
        # At n=1000 the pmf sums to about 1 - 3e-13, short of 1 - 1e-13.
        config = small_config(n=1000, level=1e-13)
        with pytest.raises(
            ValueError, match=r"coverage target 0\.9999999999999: the whole support holds 0\.99999\d* at eta 0\.500000$"
        ):
            build_decision_row(0.5, config)

    def test_tiny_level_meets_target_on_every_row(self):
        # At Beta(100, 100) the rows at eta 0.426 (n=50) and 0.268 (n=200)
        # reach the target summed in rank order but fall one ulp short of it
        # summed in outcome order, the order the stored coverage uses.
        for n, a, level in ((100, 0.5, 1e-12), (50, 100.0, 3e-12), (200, 100.0, 1e-12)):
            matrix = build_decision_matrix(small_config(n=n, a=a, b=a, level=level))
            assert np.all(matrix.achieved_coverage >= 1.0 - level), (n, a, level)

    def test_rejects_boundary_eta(self):
        config = small_config()
        for eta in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                build_decision_row(eta, config)


def assert_log_threshold_overflows_and_matches_mpmath(matrix: DecisionMatrix, eta: float) -> None:
    """The row nearest eta has a log threshold past the double range, within
    1e-11 of the smallest admitted ln g computed in mpmath."""
    config = matrix.config
    j = config.grid.nearest_index(eta)
    g = _posterior_values(float(config.grid.points[j]), config.model.n, config.prior.a, config.prior.b)
    exact = min(mp.log(g[x]) for x in np.flatnonzero(matrix.included[j]))
    log_threshold = matrix.log_threshold[j]
    assert abs(log_threshold - float(exact)) <= 1e-11, (eta, log_threshold, exact)
    with np.errstate(over="ignore"):
        assert np.exp(log_threshold) == np.inf, eta


def has_ties(log_g: np.ndarray) -> bool:
    """Whether two ranked log densities lie within the tie tolerance."""
    ranked = np.sort(log_g)[::-1]
    return bool(np.any(ranked[1:] >= ranked[:-1] + np.log1p(-TIE_RTOL)))


class TestAdmissionReference:
    """Rows built by the library equal the plain tie-group admission bit for bit:
    the flags, the covered sum and the threshold, exponentiated as the
    writers do."""

    @staticmethod
    def exact_inputs(config: TestConfig, eta: float) -> tuple:
        log_f = binom_log_pmf_support(config.model, eta)
        log_g = log_f - beta_binom_log_pmf_support(config.model, config.prior)
        return log_g, np.exp(log_f), 1.0 - config.level

    def assert_matrix_matches(self, config: TestConfig) -> tuple:
        """Check every row of the built matrix; return it with each row's log densities."""
        matrix = build_decision_matrix(config)
        with np.errstate(over="ignore"):
            written = np.exp(matrix.log_threshold)
        seen = []
        for j, eta in enumerate(config.grid.points):
            log_g, pmf, target = self.exact_inputs(config, float(eta))
            included, covered, threshold = oracle_admit_tie_groups(log_g, pmf, target)
            assert np.array_equal(matrix.included[j], included), eta
            assert matrix.achieved_coverage[j] == covered, eta
            assert written[j] == threshold, eta
            seen.append(log_g)
        return matrix, seen

    def test_tie_free_rows(self):
        _, seen = self.assert_matrix_matches(small_config(n=100, a=1.7, b=4.1))
        assert not any(has_ties(log_g) for log_g in seen)

    def test_one_trial(self):
        self.assert_matrix_matches(small_config(n=1))

    def test_symmetric_ties_at_half(self):
        config = small_config(n=100)
        log_g, pmf, target = self.exact_inputs(config, 0.5)
        assert has_ties(log_g)
        included, covered, threshold = oracle_admit_tie_groups(log_g, pmf, target)
        row = build_decision_row(0.5, config)
        assert np.array_equal(row[0], included)
        assert (np.exp(row[1]), row[2]) == (threshold, covered)

    @pytest.mark.parametrize("n, level", [(50, 3e-12), (200, 1e-12)])
    def test_rows_summed_short_in_outcome_order(self, n, level):
        # Includes the row (eta 0.426 at n=50, 0.268 at n=200) that reaches
        # the target in rank order but not in outcome order.
        self.assert_matrix_matches(small_config(n=n, a=100.0, b=100.0, level=level))

    def test_overflowing_thresholds(self):
        config = TestConfig(0.05, BinomialModel(1000), BetaPrior(1000.0, 1.0), ParameterGrid.regular())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix, _ = self.assert_matrix_matches(config)
        for eta in (0.002, 0.256):
            assert_log_threshold_overflows_and_matches_mpmath(matrix, eta)

    def test_monte_carlo_rows(self):
        model, prior = BinomialModel(20), BetaPrior(0.5, 0.5)
        plugin = make_binomial_plugin(model, prior)
        cfg = McConfig(seed=7, n_params=300, n_data_per_param=20, level=0.05)
        etas = [float(e) for e in ParameterGrid.regular(19).points]
        params = mc_sample_params(plugin, cfg)
        samples = pool_samples(plugin, params, mc_sample_data(plugin, params, cfg))
        rows = mc_decision_rows(plugin, cfg, etas)
        for j, eta in enumerate(etas):
            f = plugin.likelihood(samples.outcomes, eta)
            with np.errstate(divide="ignore"):
                log_g = np.where(f == 0.0, -np.inf, np.log(f) - np.log(samples.mix_density))
            v = samples.counts * f / samples.mix_density
            total_v = float(v.sum())
            included, covered, threshold = oracle_admit_tie_groups(log_g, v, (1.0 - cfg.level) * total_v)
            assert np.array_equal(rows.included[j], included), eta
            assert rows.estimated_coverage[j] == covered / total_v, eta
            assert np.exp(rows.log_threshold[j]) == threshold, eta


def assert_rows_equal_rows_built_alone(matrix: DecisionMatrix) -> None:
    """Every row of the matrix, ranked with a block of rows, equals the same row ranked alone."""
    for j, eta in enumerate(matrix.config.grid.points):
        included, log_threshold, achieved = build_decision_row(eta, matrix.config)
        assert np.array_equal(matrix.included[j], included), eta
        assert matrix.log_threshold[j] == log_threshold, eta
        assert matrix.achieved_coverage[j] == achieved, eta


class TestBatchedRanking:
    """The build ranks many rows in one array pass; each row must come out as it does alone."""

    def test_tie_row_at_half(self):
        config = small_config(n=100)
        log_g, _, _ = TestAdmissionReference.exact_inputs(config, 0.5)
        assert has_ties(log_g)
        assert_rows_equal_rows_built_alone(build_decision_matrix(config))

    @pytest.mark.parametrize("n, level", [(50, 3e-12), (200, 1e-12)])
    def test_rows_summed_short_in_outcome_order(self, n, level):
        assert_rows_equal_rows_built_alone(build_decision_matrix(small_config(n=n, a=100.0, b=100.0, level=level)))

    def test_one_trial(self):
        assert_rows_equal_rows_built_alone(build_decision_matrix(small_config(n=1)))

    def test_large_n_spans_many_blocks(self):
        # 1001 outcomes a row: each ranking pass holds a few rows, so a row's
        # gather must find its own block row.
        assert_rows_equal_rows_built_alone(build_decision_matrix(small_config(n=1000)))

    @given(
        n=st.integers(1, 40),
        count=st.integers(1, 60),
        a=st.floats(0.05, 50.0),
        b=st.floats(0.05, 50.0),
        level=st.floats(1e-6, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_small_config(self, n, count, a, b, level):
        config = TestConfig(level, BinomialModel(n), BetaPrior(a, b), ParameterGrid.regular(count))
        assert_rows_equal_rows_built_alone(build_decision_matrix(config))


class TestMatrixAndCoverage:
    def test_matrix_rows_follow_grid(self):
        config = small_config()
        matrix = build_decision_matrix(config)
        assert matrix.log_threshold.shape == matrix.achieved_coverage.shape == (499,)
        assert matrix.inclusion_matrix().shape == (499, 21)
        assert matrix.inclusion_matrix() is matrix.included

    @pytest.mark.parametrize("fixture", ["matrix_non", "matrix_inf"])
    def test_rows_equal_rows_built_alone(self, fixture, request):
        # The matrix shares one log kernel between its rows; a row built
        # alone evaluates its own.
        assert_rows_equal_rows_built_alone(request.getfixturevalue(fixture))

    def test_coverage_is_exact_mass(self):
        config = small_config()
        matrix = build_decision_matrix(config)
        pmf = binom_pmf_support(config.model, 0.4)
        expected = float(pmf[matrix.included[100]].sum())
        assert coverage(matrix, 0.4, 100) == expected

    def test_type1_error_complements_own_coverage(self, matrix_non, matrix_inf):
        for matrix in (matrix_non, matrix_inf):
            for j in range(len(matrix.config.grid)):
                assert type1_error(matrix, j) == 1.0 - matrix.achieved_coverage[j], j
                assert type1_error(matrix, j) <= matrix.config.level, j

    def test_index_validation(self):
        matrix = build_decision_matrix(small_config())
        with pytest.raises(IndexError):
            coverage(matrix, 0.5, 499)
        with pytest.raises(IndexError):
            coverage(matrix, 0.5, -1)
        with pytest.raises(IndexError):
            type1_error(matrix, 2.0)


    @pytest.mark.parametrize(
        "field, value, got",
        [
            ("included", np.ones((3, 4), dtype=bool), "bool of shape (3, 4)"),
            ("included", np.ones((5, 4)), "float64 of shape (5, 4)"),
            ("log_threshold", np.ones(4), "float64 of shape (4,)"),
            ("log_threshold", [1.0] * 5, "list"),
            ("achieved_coverage", np.ones(5, dtype=np.int64), "int64 of shape (5,)"),
            *(
                (field, np.array([1.0, 1.0, bad, 1.0, 1.0]), repr(bad))
                for field in ("log_threshold", "achieved_coverage")
                for bad in (np.nan, np.inf, -np.inf)
            ),
        ],
    )
    def test_arrays_must_match_the_config(self, field, value, got):
        # Before, a (3, 4) included array wrote a short CSV without error.
        config = TestConfig(
            level=0.05, model=BinomialModel(3), prior=BetaPrior(0.5, 0.5), grid=ParameterGrid.regular(5)
        )
        arrays = {"included": np.ones((5, 4), dtype=bool), "log_threshold": np.ones(5), "achieved_coverage": np.ones(5)}
        expected = {"included": "a bool array of shape (5, 4)"}.get(field, "a float64 array of shape (5,)")
        if got in ("nan", "inf", "-inf"):
            expected = "finite"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be {expected}, got {got}')}$"):
            DecisionMatrix(config=config, **{**arrays, field: value})


class TestConfidenceRegion:
    def test_central_region(self, matrix_non):
        region = confidence_region(matrix_non, 50)
        assert region.lower == pytest.approx(0.4, abs=1e-12)
        assert region.upper == pytest.approx(0.6, abs=1e-12)
        assert region.contiguous
        assert not region.is_empty
        assert region.accepted.size == 101

    def test_boundary_outcome(self, matrix_non):
        region = confidence_region(matrix_non, 0)
        assert region.lower == pytest.approx(0.002, abs=1e-15)

    def test_rejects_bad_outcome(self, matrix_non):
        with pytest.raises(ValueError):
            confidence_region(matrix_non, 101)
        with pytest.raises(ValueError):
            confidence_region(matrix_non, -1)
        with pytest.raises(ValueError):
            confidence_region(matrix_non, 50.0)

    def test_empty_region_is_representable(self, full_rejection):
        empty = confidence_region(full_rejection, 1)
        assert empty.is_empty
        assert np.isnan(empty.lower) and np.isnan(empty.upper)
        assert empty.contiguous


class TestCsv:
    def test_header_and_shape(self):
        matrix = build_decision_matrix(small_config(n=5))
        text = decision_matrix_to_csv(matrix)
        lines = text.splitlines()
        assert lines[0] == "eta,x,included,threshold"
        assert len(lines) == 1 + 499 * 6
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "0.002000" and first[1] == "0"

    @pytest.mark.parametrize(
        "n, a, b, grid",
        [
            # At n=1 most rows admit both x=0 and x=n (449 of the 499 at level 0.05).
            (1, 0.5, 0.5, ParameterGrid.regular()),
            (20, 0.5, 0.5, ParameterGrid.regular(1, 0.3, 0.7)),
            (100, 100.0, 100.0, ParameterGrid.regular()),
            (1000, 0.5, 0.5, ParameterGrid.regular(49)),
        ],
        ids=["n1", "one-point-grid", "beta100", "n1000-g49"],
    )
    def test_text_matches_per_line_formatter(self, n, a, b, grid):
        config = TestConfig(level=0.05, model=BinomialModel(n), prior=BetaPrior(a, b), grid=grid)
        matrix = build_decision_matrix(config)
        got = decision_matrix_to_csv(matrix).splitlines(keepends=True)
        want = oracle_matrix_csv(grid.points, matrix.included, np.exp(matrix.log_threshold)).splitlines(keepends=True)
        # Report the first differing line: a diff of the whole text would take minutes at n=1000.
        first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
        same = got == want
        assert same, f"line {first}: {got[first:first + 1]} != {want[first:first + 1]}"

    def test_round_trip_is_bit_identical(self):
        assert_reads_back(small_config())

    def test_rows_summary(self):
        matrix = build_decision_matrix(small_config(n=5))
        lines = rows_summary_csv(matrix).splitlines()
        assert lines[0] == "eta,threshold,achieved_coverage"
        assert len(lines) == 500

    @given(
        n=st.integers(1, 40),
        count=st.integers(1, 60),
        ends=st.tuples(st.floats(1e-6, 1.0 - 1e-6), st.floats(1e-6, 1.0 - 1e-6)).map(sorted),
        a=st.floats(0.05, 50.0),
        b=st.floats(0.05, 50.0),
        level=st.floats(1e-6, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_holds_for_any_config(self, n, count, ends, a, b, level):
        low, high = ends
        assume(count == 1 or high - low >= 1e-3)
        assert_reads_back(TestConfig(level, BinomialModel(n), BetaPrior(a, b), ParameterGrid.regular(count, low, high)))

    def test_grid_points_that_print_alike_read_back(self):
        # 0.5 and 0.5000001 both print as 0.500000; rows are read by position.
        grid = ParameterGrid([0.3, 0.5, 0.5000001])
        assert_reads_back(TestConfig(0.05, BinomialModel(20), BetaPrior(0.5, 0.5), grid))

    def test_rejects_a_row_short_of_coverage(self):
        # Dropping the mode keeps the row's threshold, so only the coverage shows it.
        config = TestConfig(0.05, BinomialModel(20), BetaPrior(0.5, 0.5), ParameterGrid.regular(49, 0.02, 0.98))
        lines = decision_matrix_to_csv(build_decision_matrix(config)).splitlines()
        k = 1 + config.grid.nearest_index(0.5) * 21 + 10
        assert lines[k] == "0.500000,10,1,1.09644687036"
        lines[k] = "0.500000,10,0,1.09644687036"
        with pytest.raises(ValueError, match=re.escape("eta 0.500000 covers 0.78241348266")):
            decision_matrix_from_csv("\n".join(lines), config)

    def test_rejects_tampered_input(self):
        config = small_config(n=3)
        matrix = build_decision_matrix(config)
        text = decision_matrix_to_csv(matrix)
        lines = text.splitlines()

        def read(edited: list) -> DecisionMatrix:
            return decision_matrix_from_csv("\n".join(edited), config)

        def replaced(base: list, k: int, column: int, token: str) -> list:
            edited = base[:]
            parts = edited[k].split(",")
            parts[column] = token
            edited[k] = ",".join(parts)
            return edited

        with pytest.raises(ValueError, match="bad header"):
            read(["eta,x,flag,threshold"] + lines[1:])

        for edited in (lines[:-1], lines + [lines[-1]], lines[:1] + [""] + lines[1:]):
            with pytest.raises(ValueError, match=f"^{len(edited)} lines, but 499 grid points of 4 outcomes take 1997$"):
                read(edited)

        for token in ("yes", "", "01"):
            garbled = replaced(lines, 1, 2, token)
            with pytest.raises(ValueError, match=re.escape(f"line 2: included flag must be 0 or 1 in {garbled[1]!r}")):
                read(garbled)
        truncated = lines[:4] + ["0.002000,3"] + lines[5:]
        with pytest.raises(ValueError, match=re.escape("line 5: included flag must be 0 or 1 in '0.002000,3'")):
            read(truncated)

        for column, token in ((0, "0.002"), (1, "one"), (1, "1"), (3, "abc"), (3, "inf")):
            unreadable = replaced(lines, 1, column, token)
            message = f"line 2 is {unreadable[1]!r}, but the matrix it encodes writes {lines[1]!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                read(unreadable)

        # Withholding an admitted outcome leaves the row short of 1 - level; an
        # empty row covers nothing. Admitting one more lowers the threshold,
        # which the row's first line then shows.
        j = config.grid.nearest_index(0.202)
        row = [1 + j * 4 + x for x in range(4)]
        assert [lines[k].split(",")[2] for k in row] == ["1", "1", "1", "0"]
        for flips, covers in (([row[1]], "0.6"), (row[:3], "0.0")):
            flipped = lines
            for k in flips:
                flipped = replaced(flipped, k, 2, "0")
            with pytest.raises(ValueError, match=re.escape(f"eta 0.202000 covers {covers}")):
                read(flipped)
        with pytest.raises(ValueError, match=f"^line {row[0] + 1} is '0.202000,0,1,"):
            read(replaced(lines, row[3], 2, "1"))

        wrong_size = TestConfig(config.level, config.model, config.prior, ParameterGrid.regular(99, 0.01, 0.99))
        with pytest.raises(ValueError, match="^1997 lines, but 99 grid points of 4 outcomes take 397$"):
            decision_matrix_from_csv(text, wrong_size)
        shifted = TestConfig(config.level, config.model, config.prior, ParameterGrid.regular(499, 0.0021, 0.9979))
        message = "line 2 is '0.002000,0,1,3.1808383744', but the matrix it encodes writes '0.002100,0,1,"
        with pytest.raises(ValueError, match=re.escape(message)):
            decision_matrix_from_csv(text, shifted)


class TestExtremePrior:
    """n=1000 under Beta(1000, 1): low nulls have posterior densities beyond
    the double range, which only a log-space ranking can order."""

    @pytest.fixture(scope="class")
    def built(self):
        config = TestConfig(0.05, BinomialModel(1000), BetaPrior(1000.0, 1.0), ParameterGrid.regular())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            matrix = build_decision_matrix(config)
        return matrix, caught

    def test_build_emits_no_warning(self, built):
        _, caught = built
        assert [str(w.message) for w in caught] == []

    def test_overflowing_row_matches_oracle(self, built):
        matrix, _ = built
        grid = matrix.config.grid
        j = grid.nearest_index(0.256)
        expected = oracle_greedy_row(float(grid.points[j]), 1000, 0.05, 1000.0, 1.0)
        assert set(np.flatnonzero(matrix.included[j]).tolist()) == set(expected)
        for eta in (0.002, 0.256):
            assert_log_threshold_overflows_and_matches_mpmath(matrix, eta)

    def test_csv_writers_name_the_first_overflowing_eta(self, built):
        matrix, _ = built
        for write in (decision_matrix_to_csv, rows_summary_csv):
            with pytest.raises(ThresholdOverflowError, match="threshold at eta 0.002000 does not fit in a double"):
                write(matrix)

    def test_reader_rejects_an_inf_threshold(self):
        # An overflowing row recomputes its finite log threshold, which the
        # writer refuses to exponentiate.
        config = TestConfig(0.05, BinomialModel(1000), BetaPrior(1000.0, 1.0), ParameterGrid.regular(49))
        matrix = build_decision_matrix(config)
        with np.errstate(over="ignore"):
            threshold = np.exp(matrix.log_threshold)
        assert np.isinf(threshold).any()
        text = oracle_matrix_csv(config.grid.points, matrix.included, threshold)
        assert text.splitlines()[1].endswith(",inf")
        with pytest.raises(ThresholdOverflowError, match="threshold at eta 0.002000 does not fit in a double"):
            decision_matrix_from_csv(text, config)
