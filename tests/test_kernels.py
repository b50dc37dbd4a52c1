import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import distreg as dr
from distreg import kernels
from distreg.density_distance import default_grid, grid_integral
from distreg.kernels import _eval_compact_1d, _eval_dense, radial_normalizer
from kde_reference import reference_eval, reference_normalizer, reference_profile


def test_kernel_values_at_origin():
    assert dr.kernel_value(dr.BOXCAR, 0.0) == 0.5
    assert dr.kernel_value(dr.EPANECHNIKOV, 0.0) == 0.75
    assert dr.kernel_value(dr.GAUSSIAN, 0.0) == pytest.approx(0.398942, abs=1e-6)


@given(st.sampled_from(list(dr.KERNELS)), st.floats(0.0, 50.0))
def test_kernel_nonnegative(kind, u):
    assert dr.kernel_value(dr.KERNELS[kind], u) >= 0.0


@given(st.sampled_from(["boxcar", "epanechnikov"]), st.floats(1.0, 50.0, exclude_min=True))
def test_compact_kernels_vanish_past_one(kind, u):
    assert dr.kernel_value(dr.KERNELS[kind], u) == 0.0


def test_kernel_rejects_negative_argument():
    with pytest.raises(ValueError):
        dr.kernel_value(dr.BOXCAR, -0.1)
    # nan is rejected too: a nan distance must not become a zero weight.
    for kernel in dr.KERNELS.values():
        with pytest.raises(ValueError):
            dr.kernel_value(kernel, math.nan)
        with pytest.raises(ValueError):
            kernel.profile([0.5, math.nan])


@pytest.mark.parametrize("kind", list(dr.KERNELS))
def test_profile_matches_reference_formula(kind):
    u = np.concatenate([np.linspace(0.0, 6.0, 6001), [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e300, np.inf]])
    with np.errstate(over="ignore"):
        assert np.array_equal(dr.KERNELS[kind].profile(u), reference_profile(kind, u))
        assert dr.kernel_value(dr.KERNELS[kind], 1.0) == float(reference_profile(kind, 1.0))


@pytest.mark.parametrize("kind", list(dr.KERNELS))
def test_profile_is_a_density_on_the_line(kind):
    kernel = dr.KERNELS[kind]
    upper = kernel.support_radius if math.isfinite(kernel.support_radius) else np.inf
    integral, _ = quad(lambda u: dr.kernel_value(kernel, u), 0.0, upper)
    assert 2.0 * integral == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_normalizer_matches_closed_forms(dim):
    sphere = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    expected = {
        "boxcar": sphere * 0.5 / dim,
        "epanechnikov": sphere * 1.5 / (dim * (dim + 2)),
        "gaussian": (2.0 * math.pi) ** ((dim - 1) / 2.0),
    }
    for kind, value in expected.items():
        assert radial_normalizer(kind, dim) == pytest.approx(value, rel=1e-9)


def test_radial_normalizer_equals_reference():
    for kind in dr.KERNELS:
        for dim in (1, 2, 3):
            assert radial_normalizer(kind, dim) == reference_normalizer(kind, dim), (kind, dim)


def test_kde_build_single_boxcar_bump():
    est = dr.kde_build([[0.0]], 1.0, dr.BOXCAR)
    assert dr.kde_eval(est, [0.5]) == 0.5


def test_kde_build_two_point_average():
    est = dr.kde_build([[0.0], [2.0]], 1.0, dr.BOXCAR)
    assert dr.kde_eval(est, [0.0]) == 0.25


def test_kde_build_bandwidth_scaling():
    est = dr.kde_build([[0.0]], 0.5, dr.BOXCAR)
    assert dr.kde_eval(est, [0.0]) == 1.0


def test_kde_eval_outside_compact_support_is_zero():
    est = dr.kde_build([[0.0]], 1.0, dr.BOXCAR)
    assert dr.kde_eval(est, [2.0]) == 0.0


def test_kde_eval_gaussian_at_sample():
    est = dr.kde_build([[0.0]], 1.0, dr.GAUSSIAN)
    assert dr.kde_eval(est, [0.0]) == pytest.approx(0.398942, abs=1e-6)


def test_kde_eval_boundary_counts_both_kernels():
    est = dr.kde_build([[0.0], [2.0]], 1.0, dr.BOXCAR)
    assert dr.kde_eval(est, [1.0]) == 0.5


def test_kde_build_errors():
    with pytest.raises(ValueError):
        dr.kde_build([], 1.0, dr.BOXCAR)
    with pytest.raises(ValueError):
        dr.kde_build([[0.0]], 0.0, dr.BOXCAR)
    with pytest.raises(ValueError):
        dr.kde_build([[0.0, 1.0], [2.0]], 1.0, dr.BOXCAR)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            dr.kde_build([[0.0], [bad], [1.0]], 0.5, dr.EPANECHNIKOV)


@pytest.mark.parametrize("kind", list(dr.KERNELS))
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kde_eval_many_rejects_non_finite_queries(kind, dim, bad):
    """nan or inf queries used to give nan or 0.0 depending on the kernel and path."""
    est = dr.kde_build(np.linspace(0.0, 1.0, 3 * dim).reshape(3, dim), 1.0, dr.KERNELS[kind])
    x = np.full((2, dim), 0.5)
    x[1, -1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dr.kde_eval_many(est, x)


def test_kde_eval_dimension_mismatch():
    est = dr.kde_build([[0.0, 0.0]], 1.0, dr.GAUSSIAN)
    with pytest.raises(ValueError):
        dr.kde_eval(est, [0.0])


def _random_estimate(rng, kind, dim):
    n = int(rng.integers(400, 600))
    x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), size=(n, dim))
    if kind == "boxcar":
        # jump discontinuities need bandwidths at the spread scale for the
        # 1024/128-point trapezoid grids to resolve the mass to 1e-3
        bandwidth = float(rng.uniform(1.2, 2.0) * x.std(axis=0).mean())
    else:
        bandwidth = dr.select_bandwidth(x)
    return dr.kde_build(x, bandwidth, dr.KERNELS[kind])


def test_normalization_on_default_grids():
    rng = np.random.default_rng(0)
    checked = 0
    for kind in dr.KERNELS:
        for dim in (1, 2):
            for _ in range(10):
                est = _random_estimate(rng, kind, dim)
                integral = grid_integral(est, default_grid(est))
                assert integral == pytest.approx(1.0, abs=1e-3), (kind, dim)
                checked += 1
    assert checked >= 50


def test_nonnegative_everywhere():
    rng = np.random.default_rng(1)
    for kind in dr.KERNELS:
        for dim in (1, 2):
            est = _random_estimate(rng, kind, dim)
            queries = rng.uniform(-12, 12, size=(200, dim))
            assert np.all(dr.kde_eval_many(est, queries) >= 0.0)


def test_translation_equivariance():
    rng = np.random.default_rng(2)
    for kind in dr.KERNELS:
        for dim in (1, 2):
            n = int(rng.integers(50, 150))
            x = rng.normal(0, 1, size=(n, dim))
            shift = rng.uniform(-10, 10, size=dim)
            b = dr.select_bandwidth(x)
            base = dr.kde_build(x, b, dr.KERNELS[kind])
            moved = dr.kde_build(x + shift, b, dr.KERNELS[kind])
            queries = rng.normal(0, 1, size=(100, dim))
            v0 = dr.kde_eval_many(base, queries)
            v1 = dr.kde_eval_many(moved, queries + shift)
            scale = v0.max()
            assert np.allclose(v0, v1, rtol=1e-12, atol=1e-12 * scale)


def test_compact_support_is_exact():
    rng = np.random.default_rng(3)
    for kind in ("boxcar", "epanechnikov"):
        x = rng.normal(0, 1, size=(40, 1))
        b = 0.5
        est = dr.kde_build(x, b, dr.KERNELS[kind])
        far = x.max() + b + 1e-9
        assert dr.kde_eval(est, [far]) == 0.0
        assert dr.kde_eval(est, [x.min() - b - 1e-9]) == 0.0


def _queries_around(est, rng, count):
    """Random queries over the padded support box, its corners, and points one bandwidth from a sample."""
    lo, hi = est.support_box()
    b = est.bandwidth
    corners = np.where(rng.random((4, est.dim)) < 0.5, lo, hi)
    step = np.zeros((4, est.dim))
    step[np.arange(4), rng.integers(0, est.dim, size=4)] = [b, -b, b, -b]
    one_bandwidth = est.points[rng.integers(0, est.count, size=4)] + step
    spread = rng.uniform(lo - 2 * b, hi + 2 * b, size=(count, est.dim))
    return np.concatenate([corners, one_bandwidth, spread])


@given(
    kind=st.sampled_from(list(dr.KERNELS)),
    dim=st.integers(1, 3),
    n=st.integers(1, 300),
    centre=st.sampled_from([0.0, 3.0, -1e3, 1e6, -1e6]),
    small_blocks=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_dense_path_equals_reference_bit_for_bit(kind, dim, n, centre, small_blocks, seed):
    """Tiles and the skipped rows outside a compact support change no bit of any value.

    With small_blocks the sample-block cap is shrunk so that a few hundred
    queries already split the samples into many blocks.
    """
    rng = np.random.default_rng(seed)
    points = centre + rng.normal(0.0, rng.uniform(0.1, 3.0), size=(n, dim))
    est = dr.kde_build(points, float(rng.uniform(0.05, 2.0)), dr.KERNELS[kind])
    x = _queries_around(est, rng, int(rng.integers(0, 400)))
    block_elements = 2_000 if small_blocks else kernels._BLOCK_ELEMENTS
    with mock.patch.object(kernels, "_BLOCK_ELEMENTS", block_elements):
        expected = reference_eval(est, x)
        assert np.array_equal(_eval_dense(est, x), expected)
        if dim > 1 or kind == "gaussian":  # kde_eval_many's dense cases
            assert np.array_equal(dr.kde_eval_many(est, x), expected)


def test_dense_path_equals_reference_over_several_full_blocks():
    rng = np.random.default_rng(5)
    for kind, dim in (("epanechnikov", 2), ("boxcar", 3)):
        points = rng.normal(0.0, 1.0, size=(900, dim))
        est = dr.kde_build(points, 0.4, dr.KERNELS[kind])
        x = _queries_around(est, rng, 4_500 - 8)
        assert kernels._BLOCK_ELEMENTS // x.shape[0] < est.count  # two sample blocks
        assert np.array_equal(dr.kde_eval_many(est, x), reference_eval(est, x))


def test_fast_path_matches_dense_path():
    rng = np.random.default_rng(4)
    for kind in ("boxcar", "epanechnikov"):
        x = rng.normal(4.0, 1.3, size=(500, 1))
        est = dr.kde_build(x, dr.select_bandwidth(x), dr.KERNELS[kind])
        q = rng.uniform(0, 8, size=(800, 1))
        assert np.allclose(_eval_compact_1d(est, q), reference_eval(est, q), rtol=1e-9, atol=1e-12)
    # The prefix sums are not exact: their window differences cancel.  The
    # error is pinned at offset 1e6 with 200k samples, where it measured
    # 1.7e-11 of the peak, and 3.7e-10 relative where the density is above
    # 1e-3 of its peak.
    x = rng.normal(1e6, 1.3, size=(200_000, 1))
    est = dr.kde_build(x, dr.select_bandwidth(x), dr.EPANECHNIKOV)
    q = rng.uniform(1e6 - 6, 1e6 + 6, size=(100, 1))
    fast, dense = _eval_compact_1d(est, q), reference_eval(est, q)
    peak = dense.max()
    assert np.abs(fast - dense).max() <= 5e-11 * peak
    high = dense > 1e-3 * peak
    assert np.all(np.abs(fast - dense)[high] <= 1e-9 * dense[high])


def test_select_bandwidth_floor_on_degenerate_samples():
    assert dr.select_bandwidth(np.zeros((100, 1))) == 1e-3


def test_select_bandwidth_stated_rule():
    x = np.array([1.0, -1.0] * 16)[:, None]  # population sd exactly 1, n = 32
    assert dr.select_bandwidth(x) == pytest.approx(0.5, rel=1e-12)
    assert dr.select_bandwidth(2.0 * x) == pytest.approx(1.0, rel=1e-12)


def test_select_bandwidth_needs_two_samples():
    with pytest.raises(ValueError):
        dr.select_bandwidth([[0.0]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            dr.select_bandwidth([[0.0], [bad], [1.0]])


@given(st.floats(0.5, 4.0), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_select_bandwidth_scales_linearly(scale, seed):
    x = np.random.default_rng(seed).normal(0, 1, size=(64, 1))
    assert dr.select_bandwidth(scale * x) == pytest.approx(
        scale * dr.select_bandwidth(x), rel=1e-9
    )
