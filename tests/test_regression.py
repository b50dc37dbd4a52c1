import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distreg as dr
from distreg import regression
from distreg.density_distance import GridCoverageError, grid_values, l1_distance, l1_from_values
from distreg.kernels import kde_fit
from distreg.regression import (
    UnreachableTargetError,
    calibrate_sample_size,
    default_max_iter,
    draw_labeled_dataset,
    family_grid,
)
from distreg.kernels import kernel_value
from distreg.theory_checks import lemma1_rhs


META_1D = dr.make_box_meta(1)
GRID_1D = family_grid(META_1D, 16)


def _labeled(samples, label, bandwidth=1.0, kernel=dr.BOXCAR):
    return dr.LabeledEstimate(estimate=dr.kde_build(samples, bandwidth, kernel), label=label)


def test_kernel_kernel_zero_when_boxcar_weights_vanish():
    dataset = [_labeled([[0.0]], 5.0), _labeled([[0.3]], -2.0)]
    query = dr.kde_build([[10.0]], 1.0, dr.BOXCAR)
    grid = dr.GridSpec(lo=(-5.0,), hi=(15.0,), points_per_axis=2048)
    # distances are ~2 (disjoint supports); h = 0.5 pushes every D/h past 1
    assert dr.kernel_kernel_estimate(dataset, query, 0.5, dr.BOXCAR, grid) == 0.0


def test_kernel_kernel_exact_hit_returns_its_label():
    est = dr.kde_build([[0.0]], 1.0, dr.BOXCAR)
    dataset = [dr.LabeledEstimate(estimate=est, label=7.5)]
    grid = dr.GridSpec(lo=(-3.0,), hi=(3.0,), points_per_axis=2048)
    assert dr.kernel_kernel_estimate(dataset, est, 1.0, dr.BOXCAR, grid) == 7.5


def test_kernel_kernel_equal_weights_average():
    est = dr.kde_build([[0.0]], 1.0, dr.BOXCAR)
    dataset = [
        dr.LabeledEstimate(estimate=est, label=1.0),
        dr.LabeledEstimate(estimate=est, label=3.0),
    ]
    grid = dr.GridSpec(lo=(-3.0,), hi=(3.0,), points_per_axis=2048)
    assert dr.kernel_kernel_estimate(dataset, est, 1.0, dr.GAUSSIAN, grid) == 2.0


def test_kernel_kernel_validation():
    est = dr.kde_build([[0.0]], 1.0, dr.BOXCAR)
    grid = dr.GridSpec(lo=(-3.0,), hi=(3.0,), points_per_axis=64)
    with pytest.raises(ValueError):
        dr.kernel_kernel_estimate([], est, 1.0, dr.BOXCAR, grid)
    other = dr.kde_build([[0.0, 0.0]], 1.0, dr.BOXCAR)
    with pytest.raises(ValueError):
        dr.kernel_kernel_estimate([dr.LabeledEstimate(estimate=other, label=0.0)], est, 1.0, dr.BOXCAR, grid)


def test_kernel_kernel_output_bounded_by_labels():
    rng = np.random.default_rng(30)
    for _ in range(60):
        m = int(rng.integers(1, 6))
        dataset = draw_labeled_dataset(META_1D, m, 64, rng)
        handle = dr.draw_distribution(META_1D, rng)
        samples = dr.draw_samples(META_1D, handle, 64, rng)
        query = dr.kde_build(samples, dr.select_bandwidth(samples), dr.EPANECHNIKOV)
        h = float(rng.uniform(0.05, 1.0))
        pred = dr.kernel_kernel_estimate(dataset, query, h, dr.GAUSSIAN, GRID_1D)
        labels = [item.label for item in dataset]
        assert min(labels) - 1e-12 <= pred <= max(labels) + 1e-12


def test_adaptive_atom_meta_converges_immediately():
    meta = dr.make_box_meta(1, lo=0.3, hi=0.3)
    rng = np.random.default_rng(31)
    target = dr.draw_samples(meta, dr.DistributionHandle((0.3,)), 4096, rng)
    result = dr.adaptive_closest_point(
        meta, target, epsilon=0.6, n=4096, max_iter=50,
        rng=rng, grid=family_grid(meta, 16),
    )
    assert result.converged
    assert result.iterations == 1
    assert result.label == pytest.approx(0.3)


def test_adaptive_huge_epsilon_accepts_first_draw():
    rng = np.random.default_rng(32)
    target = dr.draw_samples(META_1D, dr.draw_distribution(META_1D, rng), 64, rng)
    result = dr.adaptive_closest_point(
        META_1D, target, epsilon=6.0, n=64, max_iter=10,
        rng=rng, grid=GRID_1D,
    )
    assert result.converged and result.iterations == 1
    assert result.samples_drawn == 64


def test_adaptive_invariants_and_budget_identity():
    rng = np.random.default_rng(33)
    eps, n = 0.5, 256
    for t in range(8):
        trial_rng = np.random.default_rng([33, t])
        handle = dr.draw_distribution(META_1D, trial_rng)
        target = dr.draw_samples(META_1D, handle, n, trial_rng)
        result = dr.adaptive_closest_point(
            META_1D, target, eps, n, max_iter=default_max_iter(eps, META_1D),
            rng=trial_rng, grid=GRID_1D,
        )
        assert result.samples_drawn == n * result.iterations
        if result.converged:
            assert result.accepted_distance <= eps / (3.0 * META_1D.lipschitz_const)


def test_adaptive_determinism():
    def run():
        rng = np.random.default_rng([34, 0])
        handle = dr.draw_distribution(META_1D, rng)
        target = dr.draw_samples(META_1D, handle, 128, rng)
        return dr.adaptive_closest_point(
            META_1D, target, 0.4, 128, 60, rng, GRID_1D
        )

    assert run() == run()


def test_adaptive_max_iter_fallback_returns_best_seen():
    rng = np.random.default_rng(35)
    handle = dr.draw_distribution(META_1D, rng)
    target = dr.draw_samples(META_1D, handle, 64, rng)
    # impossible threshold: estimation noise floor sits far above eps/(3L)
    result = dr.adaptive_closest_point(
        META_1D, target, epsilon=1e-6, n=64, max_iter=5,
        rng=rng, grid=GRID_1D,
    )
    assert not result.converged
    assert result.iterations == 5
    assert result.samples_drawn == 320
    assert np.isfinite(result.label) and np.isfinite(result.accepted_distance)


@pytest.mark.parametrize(
    "seed,epsilon,n,max_iter",
    [(42, 0.5, 256, 100), (35, 1e-6, 64, 5)],
    ids=["converged-after-improvements", "max-iter-fallback"],
)
def test_adaptive_asks_the_oracle_once_for_the_closest_candidate(monkeypatch, seed, epsilon, n, max_iter):
    """One label query per call: for the accepted candidate, or the closest seen when max_iter runs out."""
    rng = np.random.default_rng(seed)
    target = dr.draw_samples(META_1D, dr.draw_distribution(META_1D, rng), n, rng)
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    asked = []

    def counted(meta, handle):
        asked.append(handle)
        return dr.oracle_label(meta, handle)

    monkeypatch.setattr(regression, "oracle_label", counted)
    result = dr.adaptive_closest_point(META_1D, target, epsilon, n, max_iter, rng, GRID_1D)
    assert len(asked) == 1

    target_values = grid_values(kde_fit(target, dr.EPANECHNIKOV), GRID_1D)
    handles, distances = [], []
    for _ in range(result.iterations):
        handles.append(dr.draw_distribution(META_1D, replay))
        candidate = kde_fit(dr.draw_samples(META_1D, handles[-1], n, replay), dr.EPANECHNIKOV)
        distances.append(l1_from_values(grid_values(candidate, GRID_1D), target_values, GRID_1D))
    best = int(np.argmin(distances))
    assert asked == [handles[best]]
    assert result.label == dr.oracle_label(META_1D, handles[best])
    assert result.accepted_distance == distances[best]
    assert result.converged == (distances[best] <= epsilon / 3.0)
    records = sum(d < min(distances[:i], default=math.inf) for i, d in enumerate(distances))
    if result.converged:  # the accepted candidate is the last; the best improved more than once before it
        assert best == result.iterations - 1 and records >= 3
    else:
        assert result.iterations == max_iter


def test_adaptive_rejects_a_grid_that_misses_a_compact_support():
    """The acceptance distance is only sound on a grid that holds both supports."""
    narrow = dr.GridSpec(lo=(0.2,), hi=(0.8,), points_per_axis=256)
    rng = np.random.default_rng(37)
    target = dr.draw_samples(META_1D, dr.draw_distribution(META_1D, rng), 256, rng)
    with pytest.raises(GridCoverageError):  # the target escapes
        dr.adaptive_closest_point(META_1D, target, 6.0, 64, 10, rng, narrow)
    inside = [[0.45], [0.5], [0.55]]
    with pytest.raises(GridCoverageError):  # the target fits, every candidate escapes
        dr.adaptive_closest_point(META_1D, inside, 6.0, 64, 10, rng, narrow)


def test_adaptive_parameter_validation():
    target = [[0.5]]
    with pytest.raises(ValueError):
        dr.adaptive_closest_point(META_1D, target, 0.0, 8, 8, np.random.default_rng(0), GRID_1D)
    with pytest.raises(ValueError):
        dr.adaptive_closest_point(META_1D, [[0.5]] * 4, 0.1, 0, 8, np.random.default_rng(0), GRID_1D)
    with pytest.raises(ValueError):
        dr.adaptive_closest_point(META_1D, [[0.5]] * 4, 0.1, 8, 0, np.random.default_rng(0), GRID_1D)
    with pytest.raises(ValueError, match="meta-distribution dimension"):
        dr.adaptive_closest_point(META_1D, [[0.5, 0.5]] * 4, 0.1, 8, 8, np.random.default_rng(0), GRID_1D)


def test_default_max_iter_heuristic():
    assert default_max_iter(0.2, META_1D) == 300
    assert default_max_iter(0.2, dr.make_box_meta(2)) == 9000
    # Used to return -60, 0 and to raise ZeroDivisionError.
    for epsilon in (-1.0, math.inf, 0.0):
        with pytest.raises(ValueError):
            default_max_iter(epsilon, META_1D)
    with pytest.raises(ValueError, match="default max_iter"):
        default_max_iter(1e-120, dr.make_box_meta(3))


def test_threshold_budget_and_lemma1_bound_read_the_world():
    """L and d come from MetaDistribution alone: epsilon/(3L), 10(6L/epsilon)^d, epsilon/(9L) and lemma1's rhs at meta.dim."""
    meta = dr.make_box_meta(1, lipschitz_const=2.0)
    assert default_max_iter(0.2, meta) == 600
    assert dr.calibration_target(0.9, meta) == pytest.approx(0.05, rel=1e-15)
    rng = np.random.default_rng([50, 0])
    target = dr.draw_samples(meta, dr.draw_distribution(meta, rng), 16384, rng)
    result = dr.adaptive_closest_point(meta, target, 0.2, 16384, default_max_iter(0.2, meta), rng, family_grid(meta, 16))
    assert result.converged and result.accepted_distance <= 0.2 / 6
    meta_2d = dr.make_box_meta(2, lipschitz_const=2.0)
    res = dr.lemma1_sums(meta_2d, meta_2d.center(), 16, 40, 200, np.random.default_rng(51))
    assert res.rhs == lemma1_rhs(2, 16, 40)


def test_family_grid_covers_member_estimates():
    rng = np.random.default_rng(36)
    for n in (16, 64, 256):
        grid = family_grid(META_1D, n)
        for _ in range(5):
            handle = dr.draw_distribution(META_1D, rng)
            samples = dr.draw_samples(META_1D, handle, n, rng)
            est = dr.kde_build(samples, dr.select_bandwidth(samples), dr.EPANECHNIKOV)
            l1_distance(est, est, grid)  # raises GridCoverageError on escape


def test_family_grid_rejects_a_bad_sample_size():
    # 0 used to raise ZeroDivisionError, -3 TypeError, and 2.5 built a grid.
    for n in (0, -3, 2.5, 16.0, math.nan, "16"):
        with pytest.raises(ValueError, match="integer >= 1"):
            family_grid(META_1D, n)
    assert family_grid(META_1D, np.int64(16)) == family_grid(META_1D, 16)


def test_family_grid_rejects_a_large_dim_before_building_arrays():
    """dim 10**12 used to allocate two arrays of 10**12 floats before the dim <= 3 check."""
    with pytest.raises(ValueError, match="dim <= 3 only"):
        family_grid(dr.MetaDistribution(dim=10**12), 16)


@given(
    dim=st.integers(1, 3),
    n=st.integers(2, 4096),
    lo=st.floats(-100.0, 100.0),
    side=st.floats(0.0, 1.0),
    base_width=st.floats(1e-3, 10.0),
    kind=st.sampled_from(list(dr.KERNELS)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_family_grid_contains_every_uniform_member_estimate(dim, n, lo, side, base_width, kind, seed):
    """family_grid pads by the plug-in rule at the largest spread a uniform member can have."""
    meta = dr.make_box_meta(dim, lo=lo, hi=lo + side, base_width=base_width)
    rng = np.random.default_rng(seed)
    samples = dr.draw_samples(meta, dr.draw_distribution(meta, rng), n, rng)
    low, high = dr.kde_fit(samples, dr.KERNELS[kind]).support_box()
    grid = family_grid(meta, n)
    assert np.all(low >= grid.lo) and np.all(high <= grid.hi)


def test_calibrate_trivial_target_takes_first_candidate():
    result = calibrate_sample_size(META_1D, 2.0, 0.9, np.random.default_rng([100, 0]), GRID_1D)
    assert result.n == 16
    assert not result.capped
    assert len(result.history) == 1


def test_calibrate_monotone_in_target():
    loose = calibrate_sample_size(META_1D, 0.4, 0.9, np.random.default_rng([100, 0]), GRID_1D)
    tight = calibrate_sample_size(META_1D, 0.1, 0.9, np.random.default_rng([100, 0]), GRID_1D)
    assert loose.n <= tight.n


def test_calibrate_gaussian_snapshot():
    """Regression snapshot: gaussian members, unit spread, target 0.1."""
    meta = dr.make_box_meta(1, family="gaussian_location", base_width=1.0, distance_scale=0.79)
    result = calibrate_sample_size(meta, 0.1, 0.9, np.random.default_rng([100, 0]), family_grid(meta, 16))
    assert result.n == 1024
    assert not result.capped


# One estimate per kernel in dims 1-3 and one tiny calibration, then print
# the scipy modules loaded.
_NO_SCIPY = """
import sys
import numpy as np
import distreg as dr
from distreg.regression import calibrate_sample_size, family_grid
for kernel in dr.KERNELS.values():
    for dim in (1, 2, 3):
        dr.kde_eval(dr.kde_build(np.zeros((2, dim)), 1.0, kernel), np.zeros(dim))
meta = dr.make_box_meta(1)
calibrate_sample_size(meta, 2.0, 0.9, np.random.default_rng(0), family_grid(meta, 16), trials=2)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_library_runs_without_scipy():
    """numpy and pyyaml are the only runtime dependencies; scipy is for the tests."""
    src = str(Path(dr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-c", _NO_SCIPY]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_calibrate_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        calibrate_sample_size(META_1D, 0.0, 0.9, rng, GRID_1D)
    with pytest.raises(ValueError):
        calibrate_sample_size(META_1D, 2.5, 0.9, rng, GRID_1D)
    with pytest.raises(ValueError):
        calibrate_sample_size(META_1D, 0.5, 1.5, rng, GRID_1D)
    with pytest.raises(UnreachableTargetError):
        calibrate_sample_size(META_1D, 1e-4, 0.9, rng, GRID_1D)


def test_draw_labeled_dataset_shapes_and_labels():
    rng = np.random.default_rng(37)
    dataset = draw_labeled_dataset(META_1D, 5, 32, rng)
    assert len(dataset) == 5
    for item in dataset:
        assert item.estimate.count == 32
        assert item.label == pytest.approx(dr.oracle_label(META_1D, item.handle))


def test_boxcar_weight_zero_case_consistency():
    # kernel_value drives the two-case formula: weight zero exactly past u = 1
    assert kernel_value(dr.BOXCAR, 1.0) == 0.5
    assert kernel_value(dr.BOXCAR, 1.0 + 1e-12) == 0.0
