"""Shared fixtures and the acceptance summary printed after the run."""

from __future__ import annotations

import numpy as np
import pytest

from avgpower import (
    BetaPrior,
    BinomialModel,
    ParameterGrid,
    TestConfig,
    build_decision_matrix,
)
from avgpower.decisions import DecisionMatrix

# The library type is named like a test class; tell pytest not to collect it.
TestConfig.__test__ = False


@pytest.fixture(scope="session")
def make_full_acceptance():
    """Factory for the limiting matrix whose rows accept every outcome."""

    def build(n: int = 20) -> DecisionMatrix:
        config = TestConfig(
            level=0.05, model=BinomialModel(n), prior=BetaPrior(0.5, 0.5), grid=ParameterGrid.regular()
        )
        g = len(config.grid)
        return DecisionMatrix(
            config=config,
            included=np.ones((g, n + 1), dtype=bool),
            log_threshold=np.zeros(g),
            achieved_coverage=np.ones(g),
        )

    return build


@pytest.fixture(scope="session")
def full_rejection() -> DecisionMatrix:
    """The n=2 matrix whose rows reject every outcome, so every region is empty."""
    config = TestConfig(level=0.05, model=BinomialModel(2), prior=BetaPrior(0.5, 0.5), grid=ParameterGrid.regular())
    g = len(config.grid)
    return DecisionMatrix(
        config=config,
        included=np.zeros((g, 3), dtype=bool),
        log_threshold=np.zeros(g),
        achieved_coverage=np.zeros(g),
    )


@pytest.fixture(scope="session")
def grid499() -> ParameterGrid:
    return ParameterGrid.regular()


@pytest.fixture(scope="session")
def model100() -> BinomialModel:
    return BinomialModel(n=100)


@pytest.fixture(scope="session")
def prior_non() -> BetaPrior:
    return BetaPrior(a=0.5, b=0.5)


@pytest.fixture(scope="session")
def prior_inf() -> BetaPrior:
    return BetaPrior(a=100.0, b=100.0)


@pytest.fixture(scope="session")
def matrix_non(model100, prior_non, grid499):
    return build_decision_matrix(TestConfig(level=0.05, model=model100, prior=prior_non, grid=grid499))


@pytest.fixture(scope="session")
def matrix_inf(model100, prior_inf, grid499):
    return build_decision_matrix(TestConfig(level=0.05, model=model100, prior=prior_inf, grid=grid499))


def pytest_configure(config):
    config._acceptance_lines = {}


@pytest.fixture(scope="session")
def acceptance_log(request):
    """Record one summary line per acceptance criterion.

    Tests log their verdict before asserting, so a failing criterion still
    shows up as FAIL in the end-of-run summary.
    """

    def log(number: int, label: str, passed: bool, detail: str = "") -> None:
        request.config._acceptance_lines[number] = (label, bool(passed), detail)

    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(lines):
        label, passed, detail = lines[number]
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {number:2d} {status}  {label}{suffix}")
