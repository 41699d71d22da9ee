"""Sparse-vector queries under differential privacy.

The package answers "which of these m scores clear a threshold?" while
spending a fixed privacy budget, using exponential query noise with a
numerically optimized threshold correction, plus the classical Laplace,
Gaussian, and Gumbel baselines for comparison.
"""

from .allocation import BudgetSplit, Variant, comparison_variance, optimal_w, split
from .correction import (
    CorrectionQuery,
    correction_sweep,
    optimal_correction,
    success_probability_analytical,
)
from .data import (
    ScoredDataset,
    gen_binary,
    gen_zipf,
    ingest_transactions,
    shuffle_and_stream,
)
from .metrics import (
    GroundTruth,
    accuracy_alpha_bound,
    alpha_beta_estimate,
    f1,
    failure_rate,
    ncr,
)
from .noise import NoiseDist, exponential, gaussian, gumbel, laplace
from .svt import (
    HaltReason,
    QueryStream,
    SvtConfig,
    SvtOutcome,
    effective_lambda,
    privacy_cost,
    run_svt,
    run_trials,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetSplit",
    "CorrectionQuery",
    "GroundTruth",
    "HaltReason",
    "NoiseDist",
    "QueryStream",
    "ScoredDataset",
    "SvtConfig",
    "SvtOutcome",
    "Variant",
    "accuracy_alpha_bound",
    "alpha_beta_estimate",
    "comparison_variance",
    "correction_sweep",
    "effective_lambda",
    "exponential",
    "f1",
    "failure_rate",
    "gaussian",
    "gen_binary",
    "gen_zipf",
    "gumbel",
    "ingest_transactions",
    "laplace",
    "ncr",
    "optimal_correction",
    "optimal_w",
    "privacy_cost",
    "run_svt",
    "run_trials",
    "shuffle_and_stream",
    "split",
    "success_probability_analytical",
    "__version__",
]
