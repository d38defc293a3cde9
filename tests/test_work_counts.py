"""How often each quantity is evaluated: the mixture once per build, ln f and ln g and the ranking once
per block of rows, exact or Monte Carlo, the plug-in likelihood once per block of sampled parameters and
once per block of nulls, the binomial kernel once per distinct grid, the prior measure once per average,
each inclusion matrix once per grid of averages, and one bit generator per Monte Carlo stage; and which
rows of a block pass walk their cut down a tie group or step it back.

Counters wrap the module bindings that the callers read, so a call made
through any of them is counted.
"""

from __future__ import annotations

import contextlib
import importlib
import io

import numpy as np
import pytest

from avgpower import (
    BetaPrior,
    BinomialModel,
    GenericModel,
    McConfig,
    ParameterGrid,
    TestConfig,
    make_binomial_plugin,
    mc_decision_rows,
    mc_sample_data,
    mc_sample_params,
    pool_samples,
)
from avgpower import cli
from avgpower.decisions import (
    build_decision_matrix,
    build_decision_row,
    decision_matrix_from_csv,
    decision_matrix_to_csv,
)
from avgpower.distributions import posterior_density_support
from avgpower.power import average_power_report, avg_power_csv, overall_power_grid

# The package exports a function named power, which hides the module of that name.
decisions = importlib.import_module("avgpower.decisions")
distributions = importlib.import_module("avgpower.distributions")
monte_carlo = importlib.import_module("avgpower.monte_carlo")
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
    """Scalar kernel calls, made through the distributions module (decisions does not import the kernel)."""
    return counter(monkeypatch, distributions, "binom_log_pmf_support")


@pytest.fixture
def ln_g_calls(monkeypatch):
    """Evaluations of ln f and ln g, and of the kernel rows and the mixture they are made from."""
    return (
        counter(monkeypatch, decisions, "_log_f_and_g"),
        counter(monkeypatch, distributions, "binom_log_pmf_rows"),
        counter(monkeypatch, distributions, "beta_binom_log_pmf_support"),
    )


@pytest.fixture(scope="module")
def matrices():
    return [build_decision_matrix(config(prior)) for prior in PRIORS]


@pytest.mark.parametrize("prior", PRIORS)
def test_build_evaluates_the_kernel_once(monkeypatch, support_calls, ln_g_calls, prior):
    row_builds = counter(monkeypatch, decisions, "build_decision_row")
    build_decision_matrix(config(prior))
    assert list(map(len, ln_g_calls)) == [1, 1, 1]
    assert len(row_builds) == len(GRID)
    assert support_calls == []


def test_a_row_built_alone_evaluates_ln_g_once(support_calls, ln_g_calls):
    build_decision_row(0.3, config(PRIORS[1]))
    assert list(map(len, ln_g_calls)) == [1, 1, 1]
    assert support_calls == []


def test_posterior_density_is_exp_of_the_same_ln_g(monkeypatch, support_calls):
    calls = counter(monkeypatch, distributions, "_log_f_and_g")
    posterior_density_support(0.3, BinomialModel(20), PRIORS[1])
    assert len(calls) == 1
    assert support_calls == []


@pytest.mark.parametrize("prior", PRIORS)
def test_build_ranks_every_row_in_one_pass(monkeypatch, prior):
    ranks = counter(monkeypatch, decisions, "_rank")
    row_builds = counter(monkeypatch, decisions, "build_decision_row")
    build_decision_matrix(config(prior))
    assert len(ranks) == 1
    assert len(row_builds) == len(GRID)


def walked(monkeypatch, module) -> tuple:
    """Wrap ``module._rank`` to record, from its calls of ``decisions._whole_groups``, which rows move their cut.

    Returns two lists: the ln g of every row whose first cut the tie walk
    moves down, and of every row that steps its cut back because its
    outcome-order rejected sum passes its allowance.
    """
    walks: list = []
    steps_back: list = []
    rank = module._rank

    def ranked(log_g, mass, allowance):
        cuts: list = []
        whole_groups = decisions._whole_groups

        def recorded(ranked, firsts, cut):
            moved = whole_groups(ranked, firsts, cut)
            cuts.append((cut.copy(), moved))
            return moved

        with monkeypatch.context() as m:
            m.setattr(decisions, "_whole_groups", recorded)
            result = rank(log_g, mass, allowance)
        walks.extend(log_g[cuts[0][0] != cuts[0][1]])
        for (_, before), (after, _) in zip(cuts, cuts[1:]):
            steps_back.extend(log_g[before != after])
        return result

    monkeypatch.setattr(module, "_rank", ranked)
    return walks, steps_back


def ln_g_at_half(model: BinomialModel, prior: BetaPrior) -> np.ndarray:
    return distributions._log_f_and_g(model, prior)(np.array([0.5]))[1][0]


def test_build_walks_only_the_tied_row(monkeypatch):
    # At n=100 and G=499 under Beta(0.5, 0.5) only the row at eta 0.5, whose mirrored outcomes tie,
    # has a first cut inside a tie group; no row steps back, and every row still goes through
    # build_decision_row.
    walks, steps_back = walked(monkeypatch, decisions)
    row_builds = counter(monkeypatch, decisions, "build_decision_row")
    build_decision_matrix(TestConfig(0.05, BinomialModel(100), PRIORS[1], ParameterGrid.regular(499)))
    assert len(walks) == 1
    assert np.array_equal(walks[0], ln_g_at_half(BinomialModel(100), PRIORS[1]))
    assert steps_back == []
    assert len(row_builds) == 499


def test_mc_validate_defaults_walk_no_monte_carlo_row(monkeypatch, tmp_path):
    # At the mc-validate defaults (n=100, G=499, Beta(0.5, 0.5), 1000 x 100 draws, seed 1729) no
    # Monte Carlo row's cut falls inside a tie group and none steps back; the exact matrix walks
    # its tied row and steps none back.
    mc_walks, mc_steps_back = walked(monkeypatch, monte_carlo)
    exact_walks, exact_steps_back = walked(monkeypatch, decisions)
    mc_row_builds = counter(monkeypatch, monte_carlo, "mc_build_decision_row")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["mc-validate", "--out", str(tmp_path)]) == 0
    assert (len(mc_walks), len(exact_walks), len(mc_row_builds)) == (0, 1, 499)
    assert (mc_steps_back, exact_steps_back) == ([], [])
    assert np.array_equal(exact_walks[0], ln_g_at_half(BinomialModel(100), PRIORS[1]))


MC_PLUGIN = make_binomial_plugin(BinomialModel(20), PRIORS[1])
MC_CONFIG = McConfig(seed=7, n_params=300, n_data_per_param=30, level=0.05)


def counted_likelihood(plugin):
    """The plug-in, and the list of parameter lists its likelihood is called with."""
    likelihoods = []
    counted = GenericModel(
        likelihood=lambda x, ps: likelihoods.append(list(ps)) or plugin.likelihood(x, ps),
        sample_param=plugin.sample_param,
        sample_data=plugin.sample_data,
    )
    return counted, likelihoods


def test_mc_rows_rank_every_null_in_one_pass(monkeypatch):
    # 49 nulls of at most 21 sampled outcomes fit in one block.
    counted, likelihoods = counted_likelihood(MC_PLUGIN)
    ranks = counter(monkeypatch, monte_carlo, "_rank")
    row_builds = counter(monkeypatch, monte_carlo, "mc_build_decision_row")
    mc_decision_rows(counted, MC_CONFIG, GRID.points.tolist())
    assert len(ranks) == 1
    assert len(row_builds) == len(GRID)
    # Once for every sampled parameter to pool the samples, then once for the block of nulls.
    assert likelihoods == [mc_sample_params(MC_PLUGIN, MC_CONFIG), GRID.points.tolist()]


def test_mc_rows_build_two_bit_generators(monkeypatch):
    # One generator keyed by SeedSequence((seed, 0)) for the parameters; one keyed by
    # SeedSequence((seed, 1)) for all data rows, its counter set before each.
    bit_generators = counter(monkeypatch, monte_carlo, "Philox")
    seed_sequences = counter(monkeypatch, monte_carlo, "SeedSequence")
    mc_decision_rows(MC_PLUGIN, MC_CONFIG, GRID.points.tolist())
    assert (len(bit_generators), len(seed_sequences)) == (2, 2)


def test_mc_rows_call_the_likelihood_once_per_block():
    # 787 nulls of 21 sampled outcomes make two full blocks of 390 and a partial third.
    counted, likelihoods = counted_likelihood(MC_PLUGIN)
    etas = [i / 788 for i in range(1, 788)]
    rows = mc_decision_rows(counted, MC_CONFIG, etas)
    step = monte_carlo._RANK_BLOCK // rows.outcomes.size
    assert (rows.outcomes.size, step) == (21, 390)
    assert likelihoods == [mc_sample_params(MC_PLUGIN, MC_CONFIG), etas[:390], etas[390:780], etas[780:]]


def recorder(monkeypatch, module, name: str, arg: int) -> list:
    """Replace ``module.name`` by a wrapper that records its positional argument ``arg`` on every call."""
    seen: list = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        seen.append(args[arg])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return seen


def test_large_supports_rank_a_block_of_rows_per_pass(monkeypatch, ln_g_calls):
    # At n=1000 a pass holds the 8 rows that fit in _RANK_BLOCK outcomes: 49 rows take 7 passes, and
    # each evaluates ln f and ln g for its own rows only, against the mixture evaluated once.
    log_f_and_g, _rows, mixtures = ln_g_calls
    ranks = counter(monkeypatch, decisions, "_rank")
    row_builds = counter(monkeypatch, decisions, "build_decision_row")
    kernel_etas = recorder(monkeypatch, distributions, "binom_log_pmf_rows", 1)
    build_decision_matrix(TestConfig(level=0.05, model=BinomialModel(1000), prior=PRIORS[1], grid=GRID))
    assert decisions._RANK_BLOCK // 1001 == 8
    assert len(ranks) == 7
    assert [len(etas) for etas in kernel_etas] == [8] * 6 + [1]
    assert np.concatenate(kernel_etas).tobytes() == GRID.points.tobytes()
    assert len(row_builds) == len(GRID)
    assert (len(log_f_and_g), len(mixtures)) == (1, 1)


def test_pooling_calls_the_likelihood_once_per_block():
    # 1000 parameters against the 101 outcomes of n=100: blocks of 81 parameters, 13 calls, the
    # last one of 28, in parameter order.
    plugin = make_binomial_plugin(BinomialModel(100), PRIORS[1])
    config = McConfig(seed=7, n_params=1000, n_data_per_param=100, level=0.05)
    params = mc_sample_params(plugin, config)
    data = mc_sample_data(plugin, params, config)
    counted, likelihoods = counted_likelihood(plugin)
    pooled = pool_samples(counted, params, data)
    assert (pooled.outcomes.size, monte_carlo._RANK_BLOCK // pooled.outcomes.size) == (101, 81)
    assert [len(ps) for ps in likelihoods] == [81] * 12 + [28]
    assert sum(likelihoods, []) == params


def test_csv_reader_evaluates_the_kernel_once(support_calls, ln_g_calls, matrices):
    text = decision_matrix_to_csv(matrices[0])
    decision_matrix_from_csv(text, matrices[0].config)
    assert list(map(len, ln_g_calls)) == [1, 1, 1]
    assert support_calls == []


def test_power_grid_evaluates_one_kernel_per_matrix(monkeypatch, matrices):
    # One kernel per distinct model and grid: the two matrices on GRID share one, and a matrix
    # on another grid has its own.
    other = build_decision_matrix(TestConfig(0.05, BinomialModel(20), PRIORS[0], ParameterGrid.regular(25)))
    pmf_rows = counter(monkeypatch, power, "binom_pmf_rows")
    log_rows = counter(monkeypatch, distributions, "binom_log_pmf_rows")
    measures = counter(monkeypatch, power, "beta_log_pdf")
    overall_power_grid(matrices, PRIORS)
    assert len(pmf_rows) == len(log_rows) == 1
    assert len(measures) == len(matrices) * len(PRIORS)
    overall_power_grid([matrices[0], other], PRIORS)
    assert len(pmf_rows) == len(log_rows) == 1 + 2


def test_power_grid_casts_each_inclusion_matrix_once(monkeypatch, matrices):
    # Each matrix's inclusion matrix is read and cast to floats once for both priors, and no cell
    # goes through the public average.
    reads = counter(monkeypatch, decisions.DecisionMatrix, "inclusion_matrix")
    averages = counter(monkeypatch, power, "average_power_report")
    pmf_rows = counter(monkeypatch, power, "binom_pmf_rows")
    log_rows = counter(monkeypatch, distributions, "binom_log_pmf_rows")
    overall_power_grid(matrices, PRIORS)
    assert (len(reads), len(averages)) == (len(matrices), 0)
    assert len(pmf_rows) == len(log_rows) == 1


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
