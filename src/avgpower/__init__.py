"""Binomial confidence regions with maximal prior-averaged power.

The construction inverts a family of acceptance tests, one per null value on
a grid, each rejecting the outcomes of lowest posterior density while their
null mass stays within the requested level. Power evaluation, an equal-tail
baseline, and a sampling-based construction path round out the package.
"""

from .clopper_pearson import (
    LengthComparison,
    clopper_pearson,
    compare_lengths,
    cp_intervals,
)
from .decisions import (
    ConfidenceRegion,
    DecisionMatrix,
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
from .distributions import (
    BetaPrior,
    BinomialModel,
    beta_log_pdf,
    beta_pdf,
    binom_pmf,
)
from .monte_carlo import (
    AgreementReport,
    DegenerateWeightsError,
    GenericModel,
    LowEffectiveSampleError,
    McConfig,
    McDecisionMatrix,
    agreement_with_matrix,
    make_binomial_plugin,
    mc_build_decision_row,
    mc_decision_rows,
    mc_sample_data,
    mc_sample_params,
    pool_samples,
)
from .power import (
    AveragePowerReport,
    average_power_report,
    avg_power_given_theta,
    mixed_power_given_eta,
    overall_avg_power,
    overall_power_grid,
    power,
    power_curve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BetaPrior",
    "BinomialModel",
    "beta_log_pdf",
    "beta_pdf",
    "binom_pmf",
    "ConfidenceRegion",
    "DecisionMatrix",
    "ParameterGrid",
    "TestConfig",
    "build_decision_matrix",
    "build_decision_row",
    "confidence_region",
    "coverage",
    "decision_matrix_from_csv",
    "decision_matrix_to_csv",
    "type1_error",
    "AveragePowerReport",
    "average_power_report",
    "avg_power_given_theta",
    "mixed_power_given_eta",
    "overall_avg_power",
    "overall_power_grid",
    "power",
    "power_curve",
    "LengthComparison",
    "clopper_pearson",
    "compare_lengths",
    "cp_intervals",
    "AgreementReport",
    "DegenerateWeightsError",
    "GenericModel",
    "LowEffectiveSampleError",
    "McConfig",
    "McDecisionMatrix",
    "agreement_with_matrix",
    "make_binomial_plugin",
    "mc_build_decision_row",
    "mc_decision_rows",
    "mc_sample_data",
    "mc_sample_params",
    "pool_samples",
]
