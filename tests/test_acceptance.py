"""End-to-end checks, one per release criterion.

Each test records a PASS/FAIL line through the ``acceptance_log`` fixture
before asserting, so the terminal summary lists every criterion even when
one of them fails.
"""

from __future__ import annotations

import os
import time

import numpy as np

from avgpower import (
    BetaPrior,
    BinomialModel,
    McConfig,
    ParameterGrid,
    TestConfig,
    agreement_with_matrix,
    average_power_report,
    build_decision_matrix,
    cli,
    clopper_pearson,
    compare_lengths,
    confidence_region,
    make_binomial_plugin,
    mc_decision_rows,
    mixed_power_given_eta,
    overall_power_grid,
    power,
    type1_error,
)
from avgpower.distributions import beta_log_pdf, beta_pdf, posterior_density_support

from oracles import oracle_cp_interval, oracle_threshold_rows

LEVEL = 0.05


def test_criterion_01_table_reproduction(acceptance_log, grid499, model100, prior_non, prior_inf):
    started = time.perf_counter()
    m_non = build_decision_matrix(TestConfig(LEVEL, model100, prior_non, grid499))
    m_inf = build_decision_matrix(TestConfig(LEVEL, model100, prior_inf, grid499))
    cells = overall_power_grid([m_inf, m_non], [p for p in (prior_inf, prior_non)])
    elapsed = time.perf_counter() - started
    expected = np.array([[0.185, 0.154], [0.664, 0.798]])
    worst = float(np.max(np.abs(cells - expected)))
    passed = worst <= 0.01 and elapsed < 10.0
    acceptance_log(
        1,
        "four overall average powers within 0.01",
        passed,
        f"max deviation {worst:.4f}, built in {elapsed:.2f}s",
    )
    assert worst <= 0.01
    assert elapsed < 10.0


def test_criterion_02_power_at_nearby_null(acceptance_log, matrix_non, matrix_inf, grid499):
    j = grid499.nearest_index(0.45)
    p_inf = power(matrix_inf, 0.55, j)
    p_non = power(matrix_non, 0.55, j)
    passed = abs(p_inf - 0.62) <= 0.01 and abs(p_non - 0.46) <= 0.01
    acceptance_log(
        2,
        "power at theta 0.55 against null 0.45",
        passed,
        f"informative {p_inf:.4f}, non-informative {p_non:.4f}",
    )
    assert abs(p_inf - 0.62) <= 0.01
    assert abs(p_non - 0.46) <= 0.01


def test_criterion_03_level_guarantee(acceptance_log, matrix_non, matrix_inf):
    violations = 0
    worst = 0.0
    for matrix in (matrix_non, matrix_inf):
        for j in range(len(matrix.included)):
            err = type1_error(matrix, j)
            worst = max(worst, err)
            if err > LEVEL:
                violations += 1
    passed = violations == 0
    acceptance_log(
        3,
        "exact type I error at most 0.05 on every null",
        passed,
        f"{violations} violations, worst {worst:.6f}",
    )
    assert violations == 0


def test_criterion_04_contiguity(acceptance_log, matrix_non, matrix_inf, model100):
    gaps = 0
    for matrix in (matrix_non, matrix_inf):
        for x in range(model100.n + 1):
            if not confidence_region(matrix, x).contiguous:
                gaps += 1
    passed = gaps == 0
    acceptance_log(4, "every confidence region is contiguous", passed, f"{gaps} regions with gaps")
    assert gaps == 0


def test_criterion_05_region_geometry(acceptance_log, matrix_non, matrix_inf):
    non_mask = matrix_non.included[:, 50]
    inf_mask = matrix_inf.included[:, 50]
    strict_subset = bool(np.all(non_mask[inf_mask])) and int(non_mask.sum()) > int(inf_mask.sum())
    at_zero = confidence_region(matrix_inf, 0).upper > confidence_region(matrix_non, 0).upper
    at_n = confidence_region(matrix_inf, 100).lower < confidence_region(matrix_non, 100).lower
    passed = strict_subset and at_zero and at_n
    acceptance_log(
        5,
        "informative region nested at x=50 and stretched toward 0.5 at x=0, 100",
        passed,
        f"subset {strict_subset}, x=0 {at_zero}, x=100 {at_n}",
    )
    assert strict_subset
    assert at_zero
    assert at_n


def test_criterion_06_baseline_lengths(acceptance_log, matrix_non, model100):
    comparison = compare_lengths(matrix_non)
    margin = comparison.mean_proposed_length - comparison.mean_cp_length
    central_lower, central_upper = clopper_pearson(50, model100, LEVEL)
    lo, hi = oracle_cp_interval(50, 100, LEVEL)
    endpoint_err = max(abs(central_lower - lo), abs(central_upper - hi))
    passed = margin <= 0.002 and endpoint_err <= 1e-6
    acceptance_log(
        6,
        "mean proposed length within one grid step of the equal-tail baseline",
        passed,
        f"margin {margin:+.6f}, central endpoint error {endpoint_err:.2e}",
    )
    assert margin <= 0.002
    assert endpoint_err <= 1e-6


def test_criterion_07_small_instance_optimality(acceptance_log):
    grid = ParameterGrid.regular(99, 0.01, 0.99)
    # Rows whose exact coverage lands within BAND of the target are resolved
    # arbitrarily by double arithmetic, so the built row must only be
    # feasible up to BAND and must beat every row clearly above the target.
    target = 1.0 - LEVEL
    band = 1e-13
    counterexamples = 0
    checked = 0
    for n in range(1, 11):
        model = BinomialModel(n)
        for a, b in ((0.5, 0.5), (100.0, 100.0)):
            matrix = build_decision_matrix(TestConfig(LEVEL, model, BetaPrior(a, b), grid))
            for j, eta in enumerate(grid.points):
                built = frozenset(np.flatnonzero(matrix.included[j]).tolist())
                achieved = mixed_power_given_eta(matrix, j)
                rows = oracle_threshold_rows(float(eta), n, LEVEL, a, b)
                built_cov = next((cov for members, cov, _ in rows if members == built), None)
                best = max(p for _, cov, p in rows if cov >= target + band)
                checked += 1
                if built_cov is None or built_cov < target - band or achieved < best - 1e-12:
                    counterexamples += 1
    passed = counterexamples == 0
    acceptance_log(
        7,
        "greedy rows maximize mixed power on all small instances",
        passed,
        f"{counterexamples} counterexamples in {checked} rows",
    )
    assert counterexamples == 0


def test_criterion_08_identity_suite(acceptance_log, grid499, model100, prior_non, prior_inf, matrix_non, matrix_inf):
    n = model100.n
    # Ratio identity, linear for the flat prior.
    worst_linear = 0.0
    denom_cache = [beta_pdf(float(e), prior_non) for e in grid499.points]
    for e, denom in zip(grid499.points, denom_cache):
        g = posterior_density_support(float(e), model100, prior_non)
        ref = np.array([beta_pdf(float(e), BetaPrior(0.5 + x, 0.5 + n - x)) for x in range(n + 1)]) / denom
        worst_linear = max(worst_linear, float(np.max(np.abs(g - ref) / ref)))
    # Log space for the peaked prior, whose tail densities underflow.
    worst_log = 0.0
    for e in grid499.points:
        e = float(e)
        lg = np.log(posterior_density_support(e, model100, prior_inf))
        lden = beta_log_pdf(e, prior_inf)
        ref = np.array([beta_log_pdf(e, BetaPrior(100.0 + x, 100.0 + n - x)) for x in range(n + 1)]) - lden
        rel = np.abs(lg - ref) / np.maximum(1.0, np.abs(ref))
        worst_log = max(worst_log, float(rel.max()))
    # Order-of-integration consistency of the averaged powers.
    worst_fubini = 0.0
    for matrix in (matrix_non, matrix_inf):
        for prior in (prior_non, prior_inf):
            report = average_power_report(matrix, prior)
            worst_fubini = max(
                worst_fubini,
                abs(report.overall - float(report.weights @ report.per_theta)),
                abs(report.overall - float(report.weights @ report.per_eta)),
            )
    passed = worst_linear <= 1e-10 and worst_log <= 1e-10 and worst_fubini <= 1e-9
    acceptance_log(
        8,
        "density-ratio and averaging identities",
        passed,
        f"ratio rel {max(worst_linear, worst_log):.2e}, order swap {worst_fubini:.2e}",
    )
    assert worst_linear <= 1e-10
    assert worst_log <= 1e-10
    assert worst_fubini <= 1e-9


def test_criterion_09_monte_carlo_agreement(acceptance_log, grid499):
    started = time.perf_counter()
    model = BinomialModel(20)
    prior = BetaPrior(0.5, 0.5)
    plugin = make_binomial_plugin(model, prior)
    exact = build_decision_matrix(TestConfig(LEVEL, model, prior, grid499))
    etas = [float(e) for e in grid499.points]
    base = McConfig(seed=20260817, n_params=1000, n_data_per_param=100, level=LEVEL)
    more = McConfig(seed=20260817, n_params=10000, n_data_per_param=100, level=LEVEL)
    small = agreement_with_matrix(mc_decision_rows(plugin, base, etas), exact).overall
    large = agreement_with_matrix(mc_decision_rows(plugin, more, etas), exact).overall
    elapsed = time.perf_counter() - started
    passed = small >= 0.95 and large >= small and elapsed < 60.0
    acceptance_log(
        9,
        "Monte Carlo rows track the exact matrix",
        passed,
        f"agreement {small:.4f} then {large:.4f} at 10x draws, {elapsed:.1f}s",
    )
    assert small >= 0.95
    assert large >= small
    assert elapsed < 60.0


def test_criterion_10_deterministic_reruns(acceptance_log, tmp_path):
    commands = {
        "construct": ["construct"],
        "ci": ["ci", "--x", "50"],
        "power": ["power"],
        "table1": ["table1"],
        "compare-cp": ["compare-cp"],
        "mc-validate": [
            "mc-validate",
            "--n", "20",
            "--grid-points", "49",
            "--grid-min", "0.02",
            "--grid-max", "0.98",
            "--seed", "11",
            "--mc-params", "400",
            "--mc-data-per-param", "40",
            "--min-agreement", "0.8",
        ],
    }
    mismatches = []
    files = 0
    for name, argv in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            out = str(tmp_path / f"{name}-{attempt}")
            code = cli.main([*argv, "--out", out])
            if code != 0:
                mismatches.append(f"{name} exited {code}")
            outputs.append(out)
        first, second = outputs
        names = sorted(os.listdir(first))
        if names != sorted(os.listdir(second)):
            mismatches.append(f"{name} wrote different file sets")
            continue
        for fname in names:
            files += 1
            with open(os.path.join(first, fname), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(second, fname), "rb") as fh:
                blob_b = fh.read()
            if blob_a != blob_b:
                mismatches.append(f"{name}/{fname} differs between reruns")
    passed = not mismatches
    acceptance_log(
        10,
        "all commands rerun byte-identically",
        passed,
        "; ".join(mismatches) if mismatches else f"{files} files compared",
    )
    assert not mismatches
