"""Distribution regression by adaptive closest-point search, with a
Monte Carlo harness that checks the nearest-member distance theory."""

__version__ = "0.1.0"

from .kernels import (
    BOXCAR,
    EPANECHNIKOV,
    GAUSSIAN,
    KERNELS,
    DensityEstimate,
    KernelSpec,
    kde_build,
    kde_eval,
    kde_eval_many,
    kde_fit,
    kernel_value,
    select_bandwidth,
)
from .density_distance import GridCoverageError, GridSpec, default_grid, grid_integral, l1_distance
from .meta_world import (
    DistributionHandle,
    MetaDistribution,
    ball_mass,
    draw_distribution,
    draw_samples,
    make_box_meta,
    oracle_label,
    true_distance,
)
from .regression import (
    AdaptiveResult,
    CalibrationResult,
    LabeledEstimate,
    adaptive_closest_point,
    calibrate_sample_size,
    calibration_target,
    default_max_iter,
    family_grid,
    kernel_kernel_estimate,
)
from .theory_checks import (
    ScalingReport,
    SmallBallReport,
    check_small_ball_bound,
    dyadic_expectation_check,
    expected_min_distance,
    fit_scaling_exponent,
    lemma1_sums,
    telescoping_sums,
    theorem1_rhs_bound,
)
from .experiments import ExperimentConfig, RunReport, parse_config, run_experiment
