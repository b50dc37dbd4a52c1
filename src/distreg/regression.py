"""Regression over sampled distributions.

Two estimators:

  - kernel_kernel_estimate: the static two-stage baseline.  Every training
    distribution is represented by a density estimate; the prediction is a
    kernel-weighted average of training labels, weighted by the L1 distance
    from each training estimate to the query estimate.

  - adaptive_closest_point: draws fresh candidate distributions until one's
    estimated density lands within epsilon/(3L) of the target's.  The oracle
    is asked once: for the accepted candidate, or for the closest one seen
    when max_iter runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .density_distance import (
    GridSpec,
    box_grid,
    default_points_per_axis,
    grid_values,
    l1_distance,
    l1_from_values,
)
from .kernels import (
    EPANECHNIKOV,
    DensityEstimate,
    KernelSpec,
    kde_fit,
    kernel_value,
    plug_in_bandwidth,
)
from .meta_world import (
    DistributionHandle,
    MetaDistribution,
    check_counts,
    check_positive,
    draw_distribution,
    draw_samples,
    oracle_label,
)

__all__ = [
    "LabeledEstimate",
    "AdaptiveResult",
    "CalibrationResult",
    "UnreachableTargetError",
    "kernel_kernel_estimate",
    "adaptive_closest_point",
    "calibrate_sample_size",
    "check_calibration",
    "calibration_target",
    "default_max_iter",
    "family_grid",
    "draw_labeled_dataset",
]

CALIBRATION_N_MIN = 2**4
CALIBRATION_N_MAX = 2**16


class UnreachableTargetError(ValueError):
    """Calibration target below what the quadrature grid can resolve."""


@dataclass(frozen=True)
class LabeledEstimate:
    """A training pair: estimated distribution plus its oracle label."""

    estimate: DensityEstimate
    label: float
    handle: DistributionHandle | None = None


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of the adaptive closest-point loop."""

    label: float
    iterations: int
    accepted_distance: float
    converged: bool
    samples_drawn: int


@dataclass(frozen=True)
class CalibrationResult:
    """Chosen per-distribution sample size with the doubling-search trace."""

    n: int
    capped: bool
    # (candidate n, mean L1 to the 16n reference, stderr, passed)
    history: tuple[tuple[int, float, float, bool], ...]


def kernel_kernel_estimate(
    dataset: list[LabeledEstimate],
    query: DensityEstimate,
    h: float,
    kernel: KernelSpec,
    grid: GridSpec,
) -> float:
    """Kernel-weighted average of training labels by distance to the query.

    Returns sum_i Y_i K(D_i/h) / sum_i K(D_i/h) when the denominator is
    positive and exactly 0.0 otherwise, with D_i the L1 distance between
    training estimate i and the query on the given grid.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    check_positive(h=h)
    num = 0.0
    den = 0.0
    for item in dataset:
        w = kernel_value(kernel, l1_distance(item.estimate, query, grid) / h)
        num += item.label * w
        den += w
    return num / den if den > 0 else 0.0


def default_max_iter(epsilon: float, meta: MetaDistribution) -> int:
    """Draw budget heuristic 10 * (6L/epsilon)^d, with L and d from meta; ValueError on bad input or overflow."""
    check_positive(epsilon=epsilon)
    try:
        return math.ceil(10.0 * (6.0 * meta.lipschitz_const / epsilon) ** meta.dim)
    except OverflowError:
        raise ValueError(f"the default max_iter 10 * (6L/epsilon)^{meta.dim} is not finite; set max_iter") from None


def calibration_target(epsilon: float, meta: MetaDistribution) -> float:
    """The calibration target_err epsilon/(9L) of an adaptive run, with L from meta."""
    check_positive(epsilon=epsilon)
    return epsilon / (9.0 * meta.lipschitz_const)


def family_grid(meta: MetaDistribution, n: int) -> GridSpec:
    """Quadrature grid covering every member's samples at sample size n.

    Uniform members are contained exactly; gaussian members are covered out
    to eight standard deviations, ample for any realistic draw count.  The pad
    adds three plug-in bandwidths at the largest member spread, so that holds
    for the estimates too, at n or more samples.  ValueError unless n is an
    integer >= 1.
    """
    check_counts(n=n)
    default_points_per_axis(meta.dim)  # rejects dim > 3 before any array of dim entries is built
    # Hard spread bound for uniform members; generous tail bound for gaussian.
    sigma_cap = meta.base_width / 2.0 if meta.family == "uniform_location" else 3.0 * meta.base_width
    reach = meta.base_width / 2.0 if meta.family == "uniform_location" else 8.0 * meta.base_width
    lo, hi = np.full(meta.dim, meta.lo), np.full(meta.dim, meta.hi)
    return box_grid(lo, hi, reach + 3.0 * plug_in_bandwidth(sigma_cap, n, meta.dim))


def draw_labeled_dataset(
    meta: MetaDistribution,
    m: int,
    n: int,
    rng: np.random.Generator,
    kernel: KernelSpec = EPANECHNIKOV,
) -> list[LabeledEstimate]:
    """m labeled members, each estimated from n fresh samples."""
    check_counts(m=m, n=n)
    dataset = []
    for _ in range(m):
        handle = draw_distribution(meta, rng)
        dataset.append(
            LabeledEstimate(
                estimate=kde_fit(draw_samples(meta, handle, n, rng), kernel),
                label=oracle_label(meta, handle),
                handle=handle,
            )
        )
    return dataset


def adaptive_closest_point(
    meta: MetaDistribution,
    target_samples,
    epsilon: float,
    n: int,
    max_iter: int,
    rng: np.random.Generator,
    grid: GridSpec,
    kernel: KernelSpec = EPANECHNIKOV,
) -> AdaptiveResult:
    """Draw members until one's density estimate is epsilon/(3L)-close to the target's.

    L is meta.lipschitz_const.  The target estimate is built once from target_samples.
    Each iteration draws a member, samples n points, estimates it, and accepts on the
    first distance at or below the threshold.  The oracle is asked once: for the
    accepted candidate, or, with converged False, for the closest one seen when
    max_iter runs out.
    A compact-support target or candidate outside the grid raises GridCoverageError.
    """
    check_positive(epsilon=epsilon)
    check_counts(n=n, max_iter=max_iter)
    target = kde_fit(target_samples, kernel)
    if target.dim != meta.dim:
        raise ValueError("target samples must match the meta-distribution dimension")
    threshold = epsilon / (3.0 * meta.lipschitz_const)
    target_values = grid_values(target, grid)

    best_handle, best_distance = None, math.inf
    for i in range(1, max_iter + 1):
        handle = draw_distribution(meta, rng)
        candidate = kde_fit(draw_samples(meta, handle, n, rng), kernel)
        distance = l1_from_values(grid_values(candidate, grid), target_values, grid)
        if distance < best_distance:
            best_handle, best_distance = handle, distance
        if distance <= threshold:  # every earlier candidate was above it, so this one is the closest
            break
    return AdaptiveResult(
        label=oracle_label(meta, best_handle),
        iterations=i,
        accepted_distance=best_distance,
        converged=best_distance <= threshold,
        samples_drawn=n * i,
    )


def check_calibration(target_err: float, confidence: float, grid: GridSpec, trials: int) -> None:
    """Raise ValueError for arguments calibrate_sample_size rejects.

    A target_err below the grid resolution raises UnreachableTargetError.
    """
    check_positive(target_err=target_err, confidence=confidence)
    if target_err > 2:
        raise ValueError("target_err must lie in (0, 2]")
    if confidence >= 1:
        raise ValueError("confidence must lie in (0, 1)")
    check_counts(2, trials=trials)
    resolution = 2.0 / (grid.points_per_axis - 1)  # smallest L1 separation the grid can certify
    if target_err < resolution:
        raise UnreachableTargetError(
            f"target_err {target_err:.3g} is below the grid resolution {resolution:.3g}"
        )


def calibrate_sample_size(
    meta: MetaDistribution,
    target_err: float,
    confidence: float,
    rng: np.random.Generator,
    grid: GridSpec,
    trials: int = 50,
    kernel: KernelSpec = EPANECHNIKOV,
) -> CalibrationResult:
    """Smallest power-of-two sample size whose estimates track a 16x reference.

    Doubling search over n in {16, ..., 65536}: accept the first n whose mean
    L1 distance between an n-sample estimate and a 16n-sample reference of
    the same member stays below target_err with the requested one-sided
    confidence.  Returns the cap flagged as capped when nothing passes.
    """
    check_calibration(target_err, confidence, grid, trials)
    z = NormalDist().inv_cdf(confidence)
    history = []
    n = CALIBRATION_N_MIN
    while True:
        dists = np.empty(trials)
        for t in range(trials):
            handle = draw_distribution(meta, rng)
            est = kde_fit(draw_samples(meta, handle, n, rng), kernel)
            ref = kde_fit(draw_samples(meta, handle, 16 * n, rng), kernel)
            dists[t] = l1_distance(est, ref, grid)
        mean = float(dists.mean())
        stderr = float(dists.std(ddof=1) / math.sqrt(trials))
        passed = mean + z * stderr <= target_err
        history.append((n, mean, stderr, passed))
        if passed or n >= CALIBRATION_N_MAX:
            return CalibrationResult(n=n, capped=not passed, history=tuple(history))
        n *= 2
