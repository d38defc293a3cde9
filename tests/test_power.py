"""Power evaluation: pointwise, curves, mixed, and double averages."""

from __future__ import annotations

import numpy as np
import pytest

from avgpower import (
    BetaPrior,
    BinomialModel,
    ParameterGrid,
    TestConfig,
    average_power_report,
    avg_power_given_theta,
    build_decision_matrix,
    coverage,
    mixed_power_given_eta,
    overall_avg_power,
    power,
    power_curve,
)
from avgpower.distributions import beta_binom_pmf_support
from avgpower.power import (
    avg_power_csv,
    mixed_power_csv,
    overall_power_grid,
    power_curves_csv,
    power_table_csv,
)
from oracles import oracle_mixed_power


class TestPointwisePower:
    def test_complements_coverage(self, matrix_non):
        idx = matrix_non.config.grid.nearest_index(0.45)
        assert power(matrix_non, 0.55, idx) == pytest.approx(1.0 - coverage(matrix_non, 0.55, idx), abs=1e-15)

    def test_section3_values(self, matrix_non, matrix_inf, grid499):
        idx = grid499.nearest_index(0.45)
        assert power(matrix_inf, 0.55, idx) == pytest.approx(0.62, abs=0.01)
        assert power(matrix_non, 0.55, idx) == pytest.approx(0.46, abs=0.01)

    def test_at_own_null_bounded_by_level(self, matrix_non, grid499):
        for eta in (0.1, 0.5, 0.9):
            idx = grid499.nearest_index(eta)
            assert power(matrix_non, eta, idx) <= 0.05

    def test_invalid_index(self, matrix_non):
        with pytest.raises(IndexError):
            power(matrix_non, 0.5, 1000)


class TestPowerCurve:
    def test_full_acceptance_gives_zero(self, make_full_acceptance):
        curve = power_curve(make_full_acceptance(), 0.37)
        assert np.all(curve.values == 0.0)

    def test_values_in_unit_interval(self, matrix_non):
        curve = power_curve(matrix_non, 0.55)
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)

    def test_symmetric_at_half(self, matrix_non):
        curve = power_curve(matrix_non, 0.5)
        np.testing.assert_allclose(curve.values, curve.values[::-1], atol=1e-9)

    def test_matches_pointwise(self, matrix_non, grid499):
        curve = power_curve(matrix_non, 0.55)
        for eta in (0.45, 0.5, 0.61):
            idx = grid499.nearest_index(eta)
            assert curve.values[idx] == pytest.approx(power(matrix_non, 0.55, idx), abs=1e-15)

    def test_informative_dips_between_half_and_truth(self, matrix_non, matrix_inf, grid499):
        # Nulls sitting between 0.5 and the true 0.55 are harder to reject
        # for the concentrated prior: never easier, strictly harder at
        # almost every grid point.
        inf_curve = power_curve(matrix_inf, 0.55).values
        non_curve = power_curve(matrix_non, 0.55).values
        sel = (grid499.points > 0.5) & (grid499.points < 0.55)
        assert sel.sum() >= 20
        diff = non_curve[sel] - inf_curve[sel]
        assert np.all(diff >= -1e-12)
        assert np.mean(diff > 0.0) >= 0.9


class TestAvgPowerGivenTheta:
    def test_full_acceptance_gives_zero(self, make_full_acceptance):
        assert avg_power_given_theta(make_full_acceptance(), 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_informative_minimum_at_half(self, matrix_inf, grid499):
        values = np.array([avg_power_given_theta(matrix_inf, float(t)) for t in grid499.points])
        assert grid499.points[int(np.argmin(values))] == 0.5

    @pytest.mark.parametrize("theta", [0.5, 0.55, 0.6])
    def test_agrees_with_tenfold_grid(self, matrix_non, matrix_inf, theta):
        fine = ParameterGrid.regular(4990, 0.002, 0.998)
        for matrix in (matrix_non, matrix_inf):
            config = matrix.config
            fine_matrix = build_decision_matrix(
                TestConfig(level=config.level, model=config.model, prior=config.prior, grid=fine)
            )
            coarse = avg_power_given_theta(matrix, theta)
            refined = avg_power_given_theta(fine_matrix, theta)
            assert coarse == pytest.approx(refined, abs=5e-3)


class TestMixedPower:
    def test_restates_closed_form(self, matrix_non):
        bb = beta_binom_pmf_support(matrix_non.config.model, matrix_non.config.prior)
        for idx in (0, 249, 498):
            expected = 1.0 - float(bb[matrix_non.included[idx]].sum())
            assert mixed_power_given_eta(matrix_non, idx) == pytest.approx(expected, abs=1e-15)

    def test_full_acceptance_gives_zero(self, make_full_acceptance):
        assert mixed_power_given_eta(make_full_acceptance(), 10) == pytest.approx(0.0, abs=1e-12)

    def test_against_quadrature_oracle(self, matrix_non, matrix_inf):
        for matrix, (a, b) in ((matrix_non, (0.5, 0.5)), (matrix_inf, (100.0, 100.0))):
            for idx in (0, 249, 498):
                reference = oracle_mixed_power(matrix.included[idx], 100, a, b)
                assert mixed_power_given_eta(matrix, idx) == pytest.approx(reference, abs=5e-3)

    def test_invalid_index(self, matrix_non):
        with pytest.raises(IndexError):
            mixed_power_given_eta(matrix_non, -1)


class TestAveragePowerReport:
    def test_iterated_sums_agree(self, matrix_non, matrix_inf, prior_non, prior_inf):
        for matrix in (matrix_non, matrix_inf):
            for prior in (prior_non, prior_inf):
                report = average_power_report(matrix, prior)
                via_theta = float(report.weights @ report.per_theta)
                via_eta = float(report.weights @ report.per_eta)
                assert report.overall == pytest.approx(via_theta, abs=1e-9)
                assert report.overall == pytest.approx(via_eta, abs=1e-9)

    def test_values_within_unit_range(self, matrix_inf, prior_inf):
        # The unnormalized measure can overshoot total mass 1 by rounding,
        # so the bound carries a matching epsilon.
        report = average_power_report(matrix_inf, prior_inf)
        for values in (report.per_theta, report.per_eta, np.array([report.overall])):
            assert np.all(values >= -1e-12)
            assert np.all(values <= 1.0 + 1e-9)

    def test_overall_shortcut(self, matrix_non, prior_inf):
        assert overall_avg_power(matrix_non, prior_inf) == average_power_report(matrix_non, prior_inf).overall


class TestOverallAvgPower:
    def test_reference_cells(self, matrix_non, matrix_inf, prior_non, prior_inf):
        assert overall_avg_power(matrix_inf, prior_inf) == pytest.approx(0.185, abs=0.01)
        assert overall_avg_power(matrix_non, prior_inf) == pytest.approx(0.154, abs=0.01)
        assert overall_avg_power(matrix_inf, prior_non) == pytest.approx(0.664, abs=0.01)
        assert overall_avg_power(matrix_non, prior_non) == pytest.approx(0.798, abs=0.01)

    def test_matched_prior_dominance(self, matrix_non, matrix_inf, prior_non, prior_inf):
        # Each averaging prior prefers the test built for it.
        cells = overall_power_grid([matrix_inf, matrix_non], [prior_inf, prior_non])
        assert cells[0, 0] > cells[0, 1]
        assert cells[1, 1] > cells[1, 0]


class TestSerialization:
    def test_power_curves_csv(self, matrix_non, grid499):
        curves = [power_curve(matrix_non, t) for t in (0.5, 0.55)]
        lines = power_curves_csv(curves, grid499.points).splitlines()
        assert lines[0] == "theta,eta,power"
        assert len(lines) == 1 + 2 * 499
        theta_s, eta_s, val_s = lines[1].split(",")
        assert theta_s == "0.500000" and eta_s == "0.002000"
        float(val_s)

    def test_curve_grid_mismatch(self, matrix_non):
        curve = power_curve(matrix_non, 0.5)
        with pytest.raises(ValueError):
            power_curves_csv([curve], np.array([0.5]))

    def test_mixed_and_avg_csv(self, grid499):
        config = TestConfig(level=0.05, model=BinomialModel(20), prior=BetaPrior(0.5, 0.5), grid=grid499)
        matrix = build_decision_matrix(config)
        mixed_lines = mixed_power_csv(matrix).splitlines()
        assert mixed_lines[0] == "eta,mixed_power"
        assert len(mixed_lines) == 500
        avg_lines = avg_power_csv(matrix, np.array([0.5, 0.6])).splitlines()
        assert avg_lines[0] == "theta,avg_power"
        assert len(avg_lines) == 3

    def test_csv_rows_print_the_scalar_values(self):
        grid = ParameterGrid.regular(49, 0.02, 0.98)
        matrix = build_decision_matrix(TestConfig(0.05, BinomialModel(20), BetaPrior(0.5, 0.5), grid))
        mixed = mixed_power_csv(matrix).splitlines()[1:]
        avg = avg_power_csv(matrix, grid.points).splitlines()[1:]
        assert len(mixed) == len(avg) == len(grid)
        for j, eta in enumerate(grid.points):
            assert mixed[j] == f"{eta:.6f},{mixed_power_given_eta(matrix, j):.12g}"
            assert avg[j] == f"{eta:.6f},{avg_power_given_theta(matrix, float(eta)):.12g}"

    def test_power_table_csv(self):
        text = power_table_csv(
            np.array([[0.1, 0.2], [0.3, 0.4]]),
            ["row one", "row two"],
            ["col one", "col two"],
        )
        lines = text.splitlines()
        assert lines[0] == "Average power,col one,col two"
        assert lines[1] == "row one,0.1,0.2"
        with pytest.raises(ValueError):
            power_table_csv(np.array([[0.1]]), ["a", "b"], ["c"])
        with pytest.raises(ValueError):
            power_table_csv(np.array([[0.1]]), ["a,bad"], ["c"])
