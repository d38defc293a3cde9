"""Decision-row construction, region inversion, and CSV round-trips."""

from __future__ import annotations

import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from avgpower.decisions import TIE_RTOL, DecisionMatrix, ThresholdOverflowError, _rank, rows_summary_csv
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
from oracles import (
    _posterior_values,
    oracle_admit_tie_groups,
    oracle_greedy_row,
    oracle_matrix_csv,
    oracle_rejected_mass,
)


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

    def test_level_below_the_pmf_rounding_is_met(self):
        # At n=1000 the pmf sums to about 1 - 3e-13, so no set of outcomes holds 1 - 1e-13 of it; the
        # row still rejects at most 1e-13, summed in float and at 50 digits.
        config = small_config(n=1000, level=1e-13)
        included, _, achieved = build_decision_row(0.5, config)
        rejected = float(binom_pmf_support(config.model, 0.5)[~included].sum())
        assert rejected <= 1e-13
        assert achieved == 1.0 - rejected
        assert oracle_rejected_mass(included, 1000, 0.5) <= 1e-13

    def test_tiny_level_meets_target_on_every_row(self):
        # Each row rejects at most level, summed in outcome order as the stored coverage is, so
        # 1 minus that mass, rounded, is at least 1 - level, rounded. At Beta(100, 100) the rows at
        # eta 0.426 (n=50) and 0.268 (n=200) admit a mass that, summed in outcome order, falls one
        # ulp short of 1 - level.
        for n, a, level in ((100, 0.5, 1e-12), (50, 100.0, 3e-12), (200, 100.0, 1e-12)):
            matrix = build_decision_matrix(small_config(n=n, a=a, b=a, level=level))
            assert np.all(matrix.achieved_coverage >= 1.0 - level), (n, a, level)

    def test_rejects_boundary_eta(self):
        config = small_config()
        for eta in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                build_decision_row(eta, config)


class TestTypeOneAudit:
    """Every row's true type I error, its excluded mass summed at 50 digits from its flags, is at most
    level. Each float log pmf is about 1e-10 relative off at n=1e5, so the bound holds to about that
    factor; these rows keep it outright."""

    @pytest.mark.parametrize(
        "n, level, points", [(10**5, 1e-9, 9), (1000, 1e-13, 49)], ids=["n100000_level1e-9", "n1000_level1e-13"]
    )
    def test_every_row_rejects_within_level(self, n, level, points):
        config = TestConfig(level, BinomialModel(n), BetaPrior(0.5, 0.5), ParameterGrid.regular(points))
        matrix = build_decision_matrix(config)
        for j, eta in enumerate(config.grid.points):
            assert oracle_rejected_mass(matrix.included[j], n, eta) <= level, eta

    def test_a_row_of_a_million_trials(self):
        # The pmf sums to about 1 - 6e-10 here.
        config = TestConfig(1e-9, BinomialModel(10**6), BetaPrior(0.5, 0.5), ParameterGrid([0.5]))
        included, _, _ = build_decision_row(0.5, config)
        assert oracle_rejected_mass(included, 10**6, 0.5) <= 1e-9


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
    the flags, the coverage (1 minus the rejected sum) and the threshold,
    exponentiated as the writers do."""

    @staticmethod
    def exact_inputs(config: TestConfig, eta: float) -> tuple:
        log_f = binom_log_pmf_support(config.model, eta)
        log_g = log_f - beta_binom_log_pmf_support(config.model, config.prior)
        return log_g, np.exp(log_f), config.level

    def assert_matrix_matches(self, config: TestConfig) -> tuple:
        """Check every row of the built matrix; return it with each row's log densities."""
        matrix = build_decision_matrix(config)
        with np.errstate(over="ignore"):
            written = np.exp(matrix.log_threshold)
        seen = []
        for j, eta in enumerate(config.grid.points):
            log_g, pmf, allowance = self.exact_inputs(config, float(eta))
            included, rejected, threshold = oracle_admit_tie_groups(log_g, pmf, allowance)
            assert np.array_equal(matrix.included[j], included), eta
            assert matrix.achieved_coverage[j] == 1.0 - rejected, eta
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
        log_g, pmf, allowance = self.exact_inputs(config, 0.5)
        assert has_ties(log_g)
        included, rejected, threshold = oracle_admit_tie_groups(log_g, pmf, allowance)
        row = build_decision_row(0.5, config)
        assert np.array_equal(row[0], included)
        assert (np.exp(row[1]), row[2]) == (threshold, 1.0 - rejected)

    @pytest.mark.parametrize("n, level", [(50, 3e-12), (200, 1e-12)])
    def test_rows_summed_short_in_outcome_order(self, n, level):
        # Includes the rows (eta 0.426 at n=50, 0.268 at n=200) whose admitted mass, summed in outcome
        # order, falls one ulp short of 1 - level; each rejects at most level, as every other row does.
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
        for j, (eta, f) in enumerate(zip(etas, plugin.likelihood(samples.outcomes, etas))):
            with np.errstate(divide="ignore"):
                log_g = np.where(f == 0.0, -np.inf, np.log(f) - np.log(samples.mix_density))
            log_v = log_g + np.log(samples.counts)
            v = np.exp(log_v - log_v.max())
            total_v = float(v.sum())
            included, rejected, threshold = oracle_admit_tie_groups(log_g, v, cfg.level * total_v)
            assert np.array_equal(rows.included[j], included), eta
            assert rows.estimated_coverage[j] == 1.0 - rejected / total_v, eta
            assert np.exp(rows.log_threshold[j]) == threshold, eta

    @given(
        row=st.lists(
            st.tuples(
                st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-np.inf, 0.0, 1.0])),
                st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e300)),
            ),
            min_size=1,
            max_size=40,
        ),
        level=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(5e-324, 1e-15)),
    )
    # Its three lowest outcomes hold 1.42 summed in rank order, its allowance, and 1.4200000000000002
    # summed in outcome order: the row hands the highest of them back.
    @example(row=[(-2.0, 0.33), (-1.0, 0.79), (-3.0, 0.3), (0.0, 0.5)], level=0.7395833333333333)
    @settings(max_examples=200, deadline=None)
    def test_monte_carlo_target_is_always_reached(self, row, level):
        # A Monte Carlo row may reject level times its own weight total, and rejecting nothing always
        # fits; so every row reaches its coverage target on the rejected side.
        log_g, v = (np.array([col]) for col in zip(*row))
        allowance = level * v.sum(axis=1, keepdims=True)
        included, _, rejected = _rank(log_g, v, allowance)
        assert rejected[0] <= allowance[0, 0]
        assert rejected[0] == v[0, ~included[0]].sum()


@st.composite
def admission_blocks(draw) -> tuple:
    """A block of rows to rank: (log g, masses, allowance).

    Widths fall in each of numpy's three pairwise-sum paths: below 8, 8 to
    128, and above 128. Log densities may be rounded into exact ties, nudged
    into chained ties within the tolerance, or set to -inf, and masses may be
    zero. The allowance is level as for exact rows, with each row's masses
    normalized like a pmf, or a (rows, 1) column of level times each row's
    total as for Monte Carlo rows.
    """
    rows = draw(st.integers(1, 6))
    width = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_g = rng.normal(0.0, draw(st.sampled_from([0.1, 3.0, 300.0])), (rows, width))
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        log_g = np.round(log_g, decimals) + rng.choice([0.0, 4e-13], log_g.shape)
    log_g[rng.random(log_g.shape) < draw(st.sampled_from([0.0, 0.1, 0.6]))] = -np.inf
    mass = rng.random((rows, width)) ** draw(st.sampled_from([1, 8]))
    mass[rng.random(mass.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    level = draw(
        st.one_of(
            st.sampled_from([0.5, 0.05]),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(5e-324, 1e-15),
        )
    )
    if draw(st.booleans()):
        total = mass.sum(axis=1, keepdims=True)
        return log_g, np.divide(mass, total, out=mass, where=total > 0.0), level
    return log_g, mass, level * mass.sum(axis=1, keepdims=True)


# Its three lowest outcomes hold 1.42 summed in rank order and 1.4200000000000002 in outcome order.
OVER_IN_OUTCOME_ORDER = (np.array([[-2.0, -1.0, -3.0, 0.0]]), np.array([[0.33, 0.79, 0.3, 0.5]]), 1.42)
# The same masses with the two middle outcomes tied: handing back the higher hands back its group.
TIED_OVER_IN_OUTCOME_ORDER = (np.array([[-1.0, -1.0, -3.0, 0.0]]), *OVER_IN_OUTCOME_ORDER[1:])
# The middle row's whole mass, 0, fits its allowance: it admits its top outcome and rejects the rest.
ALL_ZERO_AMID_WEIGHTED = (np.array([[0.0, -1.0, -2.0]] * 3), np.array([[0.5, 0.3, 0.2], [0.0] * 3, [0.6, 0.4, 0.0]]))


class TestBlockAdmission:
    """``_rank`` ranks a block of rows in array passes; every row must come out as the plain
    tie-group walk of ``oracle_admit_tie_groups`` admits it alone, and as ``_rank`` ranks it alone."""

    @given(block=admission_blocks())
    @example(block=OVER_IN_OUTCOME_ORDER)
    @example(block=TIED_OVER_IN_OUTCOME_ORDER)
    @example(block=(*ALL_ZERO_AMID_WEIGHTED, 0.05 * ALL_ZERO_AMID_WEIGHTED[1].sum(axis=1, keepdims=True)))
    @settings(max_examples=300, deadline=None)
    def test_every_row_admits_what_the_walk_admits_alone(self, block):
        log_g, mass, allowance = block
        allowances = np.broadcast_to(allowance, (len(log_g), 1))
        for j, (included, log_threshold, rejected) in enumerate(zip(*_rank(log_g, mass, allowance))):
            want = oracle_admit_tie_groups(log_g[j], mass[j], allowances[j, 0])
            assert np.array_equal(included, want[0]), j
            assert rejected == want[1], j
            with np.errstate(over="ignore"):
                assert np.exp(log_threshold) == want[2], j
            alone = _rank(log_g[j : j + 1], mass[j : j + 1], allowances[j : j + 1])
            assert np.array_equal(included, alone[0][0]), j
            assert (log_threshold, rejected) == (alone[1][0], alone[2][0]), j
            # Every row admits its top outcome, however much of its mass fits the allowance.
            assert included[np.argmax(log_g[j])], j

    @pytest.mark.parametrize(
        "log_g, mass, allowance, flags",
        [
            (*OVER_IN_OUTCOME_ORDER, [False, True, False, True]),
            (*TIED_OVER_IN_OUTCOME_ORDER, [True, True, False, True]),
        ],
        ids=["tie_free", "tied"],
    )
    def test_rows_over_in_outcome_order_step_back(self, log_g, mass, allowance, flags):
        # Summed from the bottom in rank order the three lowest outcomes fit the allowance, but summed
        # in outcome order they pass it, so the row hands back its highest rejected tie group.
        ranked = mass[0, np.argsort(log_g[0], kind="stable")]
        assert np.cumsum(ranked)[2] <= allowance < mass[0, :3].sum()
        ((included, _, rejected),) = zip(*_rank(log_g, mass, allowance))
        assert included.tolist() == flags
        assert rejected == mass[0, ~included].sum() <= allowance


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
            # The rejected mass is summed directly, not as 1 - coverage, which keeps only the digits
            # of the complement.
            for j, eta in enumerate(matrix.config.grid.points):
                rejected = float(binom_pmf_support(matrix.config.model, eta)[~matrix.included[j]].sum())
                assert type1_error(matrix, j) == rejected, j
                assert matrix.achieved_coverage[j] == 1.0 - rejected, j
                assert rejected <= matrix.config.level, j

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

    def test_round_trip_below_the_pmf_rounding(self):
        # At n=1e4 the pmf sums to about 1 - 1.1e-11, so a row that rejects at most 1e-11 admits less
        # than 1 - 1e-11 of it; the reader checks the rejected mass and reads the row back.
        config = TestConfig(1e-11, BinomialModel(10**4), BetaPrior(0.5, 0.5), ParameterGrid([0.5]))
        included, _, _ = build_decision_row(0.5, config)
        assert binom_pmf_support(config.model, 0.5)[included].sum() < 1.0 - 1e-11
        assert_reads_back(config)

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

        # Withholding an admitted outcome makes the row reject more than level;
        # an empty row covers nothing. Admitting one more lowers the threshold,
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

        # Only the writer's own text reads back, down to its line ends.
        with pytest.raises(ValueError, match="^the text lacks the final newline that the writer ends it with$"):
            decision_matrix_from_csv(text[:-1], config)
        for end in ("\r\n", "\x1e"):
            message = f"line 1 is {lines[0] + end!r}, but the matrix it encodes writes {lines[0] + chr(10)!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                decision_matrix_from_csv(text.replace("\n", end), config)

    def test_names_the_first_differing_line(self):
        # A CRLF end on line 2 comes before a garbled threshold on line 9: line 2 is named, with
        # its ends, since nothing else on it differs.
        config = small_config(n=3)
        lines = decision_matrix_to_csv(build_decision_matrix(config)).splitlines(keepends=True)
        written = lines[1]
        lines[1] = written.replace("\n", "\r\n")
        lines[8] = ",".join([*lines[8].split(",")[:3], "abc\n"])
        message = f"line 2 is {lines[1]!r}, but the matrix it encodes writes {written!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decision_matrix_from_csv("".join(lines), config)


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
