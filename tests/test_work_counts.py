"""How often each quantity is evaluated: the binomial kernel once per grid, the prior measure once per average.

Counters wrap the module bindings that the callers read, so a call made
through any of them is counted.
"""

from __future__ import annotations

import importlib

import pytest

from avgpower import BetaPrior, BinomialModel, ParameterGrid, TestConfig
from avgpower.decisions import build_decision_matrix, decision_matrix_from_csv, decision_matrix_to_csv
from avgpower.power import average_power_report, avg_power_csv, overall_power_grid

# The package exports a function named power, which hides the module of that name.
decisions = importlib.import_module("avgpower.decisions")
distributions = importlib.import_module("avgpower.distributions")
power = importlib.import_module("avgpower.power")

GRID = ParameterGrid.regular(49)
PRIORS = (BetaPrior(100.0, 100.0), BetaPrior(0.5, 0.5))


def config(prior: BetaPrior) -> TestConfig:
    return TestConfig(level=0.05, model=BinomialModel(20), prior=prior, grid=GRID)


def counter(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that appends to the returned list on every call."""
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def support_calls(monkeypatch):
    """Scalar kernel calls from the decisions module and from inside distributions."""
    calls = counter(monkeypatch, decisions, "binom_log_pmf_support")
    calls_inside = counter(monkeypatch, distributions, "binom_log_pmf_support")
    return calls, calls_inside


@pytest.fixture(scope="module")
def matrices():
    return [build_decision_matrix(config(prior)) for prior in PRIORS]


@pytest.mark.parametrize("prior", PRIORS)
def test_build_evaluates_the_kernel_once(monkeypatch, support_calls, prior):
    rows = counter(monkeypatch, decisions, "binom_log_pmf_rows")
    row_builds = counter(monkeypatch, decisions, "build_decision_row")
    build_decision_matrix(config(prior))
    assert len(rows) == 1
    assert len(row_builds) == len(GRID)
    assert support_calls == ([], [])


def test_csv_reader_evaluates_the_kernel_once(monkeypatch, support_calls, matrices):
    text = decision_matrix_to_csv(matrices[0])
    rows = counter(monkeypatch, decisions, "binom_log_pmf_rows")
    decision_matrix_from_csv(text, matrices[0].config)
    assert len(rows) == 1
    assert support_calls == ([], [])


def test_power_grid_evaluates_one_kernel_per_matrix(monkeypatch, matrices):
    pmf_rows = counter(monkeypatch, power, "binom_pmf_rows")
    log_rows = counter(monkeypatch, distributions, "binom_log_pmf_rows")
    measures = counter(monkeypatch, power, "beta_log_pdf")
    overall_power_grid(matrices, PRIORS)
    assert len(pmf_rows) == len(log_rows) == len(matrices)
    assert len(measures) == len(matrices) * len(PRIORS)


@pytest.mark.parametrize(
    "evaluate",
    [lambda m: average_power_report(m, PRIORS[0]), avg_power_csv],
    ids=["average_power_report", "avg_power_csv"],
)
def test_one_measure_evaluation_per_average(monkeypatch, matrices, evaluate):
    measures = counter(monkeypatch, power, "beta_log_pdf")
    pmf_rows = counter(monkeypatch, power, "binom_pmf_rows")
    evaluate(matrices[1])
    assert len(measures) == 1
    assert len(pmf_rows) == 1
