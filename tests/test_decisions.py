"""Decision-row construction, region inversion, and CSV round-trips."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

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
from avgpower.decisions import DecisionMatrix, ThresholdOverflowError, rows_summary_csv
from avgpower.distributions import binom_pmf_support, posterior_density_support
from oracles import oracle_greedy_row


def small_config(n: int = 20, a: float = 0.5, b: float = 0.5, level: float = 0.05) -> TestConfig:
    return TestConfig(
        level=level,
        model=BinomialModel(n=n),
        prior=BetaPrior(a=a, b=b),
        grid=ParameterGrid.regular(),
    )


class TestParameterGrid:
    def test_default_grid(self):
        grid = ParameterGrid.regular()
        assert len(grid) == 499
        assert grid.points[0] == pytest.approx(0.002, abs=1e-15)
        assert grid.points[-1] == pytest.approx(0.998, abs=1e-15)
        assert grid.points[249] == 0.5
        np.testing.assert_allclose(np.diff(grid.points), 0.002, rtol=1e-9)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_mirror_symmetry_is_exact(self):
        grid = ParameterGrid.regular()
        # Bitwise mirror: the sum of a point and its reflection is exactly 1.
        assert np.all(grid.points + grid.points[::-1] == 1.0)

    def test_single_point(self):
        grid = ParameterGrid.regular(1, 0.3, 0.7)
        assert grid.points.tolist() == [0.5]
        assert grid.cell_widths.tolist() == [1.0]
        assert grid.weights.tolist() == [1.0]

    def test_cell_widths(self):
        grid = ParameterGrid(points=np.array([0.1, 0.2, 0.4]), weights=np.array([0.25, 0.375, 0.375]))
        np.testing.assert_allclose(grid.cell_widths, [0.1, 0.15, 0.2])

    def test_nearest_index(self):
        grid = ParameterGrid.regular()
        assert grid.nearest_index(0.45) == 224
        assert grid.points[grid.nearest_index(0.45)] == pytest.approx(0.45, abs=1e-12)
        with pytest.raises(ValueError):
            grid.nearest_index(0.4511)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterGrid.regular(0)
        with pytest.raises(ValueError):
            ParameterGrid.regular(10, 0.5, 0.4)
        with pytest.raises(ValueError):
            ParameterGrid.regular(10, 0.0, 0.9)
        with pytest.raises(ValueError):
            ParameterGrid(points=np.array([0.2, 0.1]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ParameterGrid(points=np.array([0.1, 0.2]), weights=np.array([0.8, 0.1]))

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
        row = build_decision_row(0.5, config)
        inc = np.flatnonzero(row.included)
        assert inc[0] == 40 and inc[-1] == 60
        assert inc.size == inc[-1] - inc[0] + 1
        pmf = binom_pmf_support(config.model, 0.5)
        last_group_mass = pmf[40] + pmf[60]
        assert 0.95 <= row.achieved_coverage <= 0.95 + last_group_mass

    def test_matches_independent_resort_oracle(self):
        config = small_config(n=100)
        for eta in (0.11, 0.5, 0.83):
            row = build_decision_row(eta, config)
            assert set(np.flatnonzero(row.included).tolist()) == set(oracle_greedy_row(eta, 100, 0.05, 0.5, 0.5))

    def test_informative_row_against_oracle(self):
        config = small_config(n=100, a=100.0, b=100.0)
        row = build_decision_row(0.33, config)
        assert set(np.flatnonzero(row.included).tolist()) == set(oracle_greedy_row(0.33, 100, 0.05, 100.0, 100.0))

    def test_threshold_is_minimum_included_density(self):
        config = small_config()
        row = build_decision_row(0.37, config)
        dens = posterior_density_support(0.37, config.model, config.prior)
        assert row.threshold == float(dens[row.included].min())
        recovered = dens >= row.threshold * (1.0 - 1e-9)
        assert np.array_equal(recovered, row.included)

    def test_symmetric_ties_admitted_atomically(self):
        config = small_config(n=100)
        row = build_decision_row(0.5, config)
        assert np.array_equal(row.included, row.included[::-1])

    def test_mirrored_nulls_give_mirrored_rows(self):
        config = small_config(n=100)
        left = build_decision_row(0.3, config)
        right = build_decision_row(0.7, config)
        assert np.array_equal(left.included, right.included[::-1])

    def test_coverage_constraint_met(self):
        config = small_config()
        for eta in (0.002, 0.25, 0.5, 0.998):
            row = build_decision_row(eta, config)
            assert row.achieved_coverage >= 1.0 - config.level

    def test_rejects_boundary_eta(self):
        config = small_config()
        for eta in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                build_decision_row(eta, config)


class TestMatrixAndCoverage:
    def test_matrix_rows_follow_grid(self):
        config = small_config()
        matrix = build_decision_matrix(config)
        assert matrix.threshold.shape == matrix.achieved_coverage.shape == (499,)
        assert matrix.inclusion_matrix().shape == (499, 21)
        assert matrix.inclusion_matrix() is matrix.included

    def test_coverage_is_exact_mass(self):
        config = small_config()
        matrix = build_decision_matrix(config)
        pmf = binom_pmf_support(config.model, 0.4)
        expected = float(pmf[matrix.included[100]].sum())
        assert coverage(matrix, 0.4, 100) == expected

    def test_type1_error_complements_own_coverage(self):
        config = small_config()
        matrix = build_decision_matrix(config)
        idx = config.grid.nearest_index(0.5)
        assert type1_error(matrix, idx) == pytest.approx(1.0 - matrix.achieved_coverage[idx], abs=1e-15)
        assert type1_error(matrix, idx) <= config.level

    def test_index_validation(self):
        matrix = build_decision_matrix(small_config())
        with pytest.raises(IndexError):
            coverage(matrix, 0.5, 499)
        with pytest.raises(IndexError):
            coverage(matrix, 0.5, -1)
        with pytest.raises(IndexError):
            type1_error(matrix, 2.0)


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

    def test_empty_region_is_representable(self):
        config = small_config(n=2)
        matrix = build_decision_matrix(config)
        rejects_all = DecisionMatrix(
            config=config,
            included=np.zeros_like(matrix.included),
            threshold=np.zeros_like(matrix.threshold),
            achieved_coverage=np.zeros_like(matrix.achieved_coverage),
        )
        empty = confidence_region(rejects_all, 1)
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

    def test_round_trip_is_bit_identical(self):
        config = small_config()
        matrix = build_decision_matrix(config)
        text = decision_matrix_to_csv(matrix)
        rebuilt = decision_matrix_from_csv(text, config)
        assert np.array_equal(rebuilt.included, matrix.included)
        assert np.array_equal(rebuilt.threshold, matrix.threshold)
        assert np.array_equal(rebuilt.achieved_coverage, matrix.achieved_coverage)
        assert decision_matrix_to_csv(rebuilt) == text

    def test_rows_summary(self):
        matrix = build_decision_matrix(small_config(n=5))
        lines = rows_summary_csv(matrix).splitlines()
        assert lines[0] == "eta,threshold,achieved_coverage"
        assert len(lines) == 500

    def test_rejects_tampered_input(self):
        config = small_config(n=3)
        matrix = build_decision_matrix(config)
        text = decision_matrix_to_csv(matrix)
        lines = text.splitlines()

        with pytest.raises(ValueError, match="bad header"):
            decision_matrix_from_csv("\n".join(["eta,x,flag,threshold"] + lines[1:]), config)

        missing = "\n".join(lines[:-1])
        with pytest.raises(ValueError, match="missing outcomes"):
            decision_matrix_from_csv(missing, config)

        duplicated = "\n".join(lines + [lines[-1]])
        with pytest.raises(ValueError, match="duplicate outcome"):
            decision_matrix_from_csv(duplicated, config)

        flipped = lines[:]
        eta_s, x_s, inc_s, thr_s = flipped[1].split(",")
        flipped[1] = ",".join([eta_s, x_s, "0" if inc_s == "1" else "1", thr_s])
        with pytest.raises(ValueError, match="threshold mismatch|empty acceptance"):
            decision_matrix_from_csv("\n".join(flipped), config)

        wrong_grid = TestConfig(
            level=config.level,
            model=config.model,
            prior=config.prior,
            grid=ParameterGrid.regular(99, 0.01, 0.99),
        )
        with pytest.raises(ValueError, match="grid"):
            decision_matrix_from_csv(text, wrong_grid)


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
        assert np.isinf(matrix.threshold[j])

    def test_csv_writers_name_the_first_overflowing_eta(self, built):
        matrix, _ = built
        for write in (decision_matrix_to_csv, rows_summary_csv):
            with pytest.raises(ThresholdOverflowError, match="threshold at eta 0.002000 does not fit in a double"):
                write(matrix)
