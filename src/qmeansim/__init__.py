"""Desk-scale simulator and benchmark harness for quantum mean estimation.

Simulates amplitude amplification and estimation exactly on known finite
distributions, runs the derived mean/quantile estimators with full
experiment-cost accounting, and benchmarks them against classical baselines.
"""

from .baselines import classical_truncated_mean, empirical_mean, median_of_means
from .bounds import (
    BoundReport,
    bound_report,
    distinguish_T_lower,
    fidelity,
    helstrom_success,
    kl_divergence,
)
from .dist import (
    FiniteDist,
    Moments,
    conditional_above,
    hard_instance_statebased,
    hard_instance_subgaussian,
    make_dist,
    moments,
    pair_square_diff,
    quantile,
    sample,
    sample_n,
    shift_split,
    truncated_mean,
)
from .estimators import (
    ConstantProfile,
    EstimateReport,
    bern_est,
    calibrate_constants,
    cond_sample_above,
    default_profile,
    quantile_est,
    relative_est,
    seq_bern_est,
    seq_relative_est,
    subgauss_est,
    theoretical_profile,
)
from .generators import load_dist_file, named_dist, pareto_discretized, resolve_distribution
from .harness import (
    ConfigError,
    SweepConfig,
    SweepRow,
    fit_loglog_slope,
    run_sweep,
    summarize,
    verify_ae,
    write_csv,
)
from .kernels import (
    ExperimentCounter,
    QVar,
    ae_outcome_dist,
    aest_median,
    aest_sample,
    grover_angle,
    seq_aamp,
    seq_aamp_law,
    seq_aest,
)
from .qpe_ref import qpe_statevector_dist, total_variation
from .rng import RandomSource

__version__ = "0.1.0"
