import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

import distreg as dr
from distreg.density_distance import default_grid, l1_distance
from distreg.meta_world import draw_thetas, sup_distances


def test_atom_meta_always_returns_its_point():
    meta = dr.make_box_meta(1, lo=0.3, hi=0.3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert dr.draw_distribution(meta, rng).theta == (0.3,)


def test_draw_determinism():
    meta = dr.make_box_meta(2)
    a = dr.draw_distribution(meta, np.random.default_rng(123))
    b = dr.draw_distribution(meta, np.random.default_rng(123))
    assert a == b


def test_draw_mean_of_unit_box():
    meta = dr.make_box_meta(2)
    thetas = draw_thetas(meta, 10_000, np.random.default_rng(1))
    # stderr = sqrt(1/12)/100 ~ 0.003, so 0.02 is a ~7-sigma band
    assert np.all(np.abs(thetas.mean(axis=0) - 0.5) <= 0.02)


def test_uniform_samples_stay_in_member_support():
    meta = dr.make_box_meta(1, lo=0.0, hi=0.0, base_width=1.0)
    samples = dr.draw_samples(meta, dr.DistributionHandle((0.0,)), 500, np.random.default_rng(2))
    assert samples.min() >= -0.5 and samples.max() <= 0.5


def test_gaussian_sample_mean_clt():
    w = 0.7
    meta = dr.make_box_meta(1, family="gaussian_location", lo=0.0, hi=0.0, base_width=w)
    samples = dr.draw_samples(meta, dr.DistributionHandle((0.0,)), 10_000, np.random.default_rng(3))
    assert abs(samples.mean()) <= 3.0 * w / 100.0


def test_sample_determinism():
    meta = dr.make_box_meta(1)
    h = dr.DistributionHandle((0.5,))
    a = dr.draw_samples(meta, h, 100, np.random.default_rng(9))
    b = dr.draw_samples(meta, h, 100, np.random.default_rng(9))
    assert np.array_equal(a, b)


@given(
    st.integers(1, 3),
    st.floats(-1e3, 1e3),
    st.floats(0.0, 50.0),
    st.floats(1e-6, 1e3),
    st.integers(1, 2000),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_uniform_draws_match_rng_uniform_bit_for_bit(dim, lo, side, width, n, seed):
    """draw_samples' uniform members, draw_distribution and draw_thetas equal rng.uniform
    with array bounds, and leave the same generator state."""
    meta = dr.make_box_meta(dim, lo=lo, hi=lo + side, base_width=width, distance_scale=1.0 / max(side, 1.0))
    handle = dr.draw_distribution(meta, np.random.default_rng(seed))
    theta = np.asarray(handle.theta)
    ours, theirs = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    got = dr.draw_samples(meta, handle, n, ours)
    want = theirs.uniform(theta - width / 2.0, theta + width / 2.0, size=(n, dim))
    assert np.array_equal(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.random() == theirs.random()
    ours, theirs = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
    assert np.array_equal(dr.draw_distribution(meta, ours).theta, theirs.uniform(meta.lo, meta.hi, size=dim))
    got = draw_thetas(meta, (n, 2), ours)
    assert np.array_equal(got, theirs.uniform(meta.lo, meta.hi, size=(n, 2, dim)))
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_base_width_must_be_positive():
    with pytest.raises(ValueError):
        dr.make_box_meta(1, base_width=0.0)


def test_oracle_label_examples():
    meta2 = dr.make_box_meta(2, hi=0.5)
    assert dr.oracle_label(meta2, dr.DistributionHandle((0.0, 0.0))) == 0.0
    assert dr.oracle_label(meta2, dr.DistributionHandle((0.2, 0.3))) == pytest.approx(0.5)
    norm2 = dr.make_box_meta(2, hi=0.5, label_fn="euclidean_norm")
    assert dr.oracle_label(norm2, dr.DistributionHandle((0.3, 0.4))) == pytest.approx(0.5)


def test_true_distance_identity():
    meta = dr.make_box_meta(1)
    h = dr.DistributionHandle((0.25,))
    assert dr.true_distance(meta, h, h) == 0.0


def test_true_distance_matches_exact_uniform_l1():
    # width-1 members, scale 2/width: distance c*delta equals the exact L1
    meta = dr.make_box_meta(1, lo=0.0, hi=0.5, base_width=1.0, distance_scale=2.0)
    h1, h2 = dr.DistributionHandle((0.1,)), dr.DistributionHandle((0.35,))
    assert dr.true_distance(meta, h1, h2) == pytest.approx(0.5)
    p1 = dr.kde_build([[0.1]], 0.5, dr.BOXCAR)  # exact Uniform[-0.4, 0.6]
    p2 = dr.kde_build([[0.35]], 0.5, dr.BOXCAR)
    grid = dr.GridSpec(lo=(-2.0,), hi=(3.0,), points_per_axis=20001)
    assert l1_distance(p1, p2, grid) == pytest.approx(0.5, abs=1e-3)


def test_true_distance_tracks_gaussian_l1_of_large_sample_estimates():
    sigma = 1.0
    scale = math.sqrt(2.0 / math.pi) / sigma  # d/d(delta) of the exact gaussian L1 at 0
    meta = dr.make_box_meta(
        1, family="gaussian_location", base_width=sigma, distance_scale=scale
    )
    h1, h2 = dr.DistributionHandle((0.35,)), dr.DistributionHandle((0.65,))
    delta = 0.3
    exact_l1 = 2.0 * (2.0 * norm.cdf(delta / (2.0 * sigma)) - 1.0)
    rng = np.random.default_rng(4)
    p1 = dr.kde_build(dr.draw_samples(meta, h1, 100_000, rng), 0.08, dr.EPANECHNIKOV)
    p2 = dr.kde_build(dr.draw_samples(meta, h2, 100_000, rng), 0.08, dr.EPANECHNIKOV)
    estimated = l1_distance(p1, p2, default_grid(p1, p2))
    assert estimated == pytest.approx(exact_l1, abs=0.02)
    assert dr.true_distance(meta, h1, h2) == pytest.approx(estimated, abs=0.05)


def test_handle_outside_box_rejected():
    meta = dr.make_box_meta(1)
    with pytest.raises(ValueError):
        dr.oracle_label(meta, dr.DistributionHandle((1.5,)))
    with pytest.raises(ValueError):
        dr.true_distance(meta, dr.DistributionHandle((0.5,)), dr.DistributionHandle((0.5, 0.5)))


@pytest.mark.parametrize("label_fn", ["coordinate_sum", "euclidean_norm"])
@pytest.mark.parametrize("dim", [1, 3])
def test_lipschitz_audit_in_parameter_one_norm(label_fn, dim):
    lip = 1.7
    meta = dr.make_box_meta(dim, label_fn=label_fn, lipschitz_const=lip)
    rng = np.random.default_rng(5)
    t1 = draw_thetas(meta, 1000, rng)
    t2 = draw_thetas(meta, 1000, rng)
    for a, b in zip(t1, t2):
        ga = dr.oracle_label(meta, dr.DistributionHandle(tuple(a)))
        gb = dr.oracle_label(meta, dr.DistributionHandle(tuple(b)))
        assert abs(ga - gb) <= lip * np.abs(a - b).sum() + 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_diameter_audit(dim):
    meta = dr.make_box_meta(dim)
    rng = np.random.default_rng(6)
    t1 = draw_thetas(meta, 1000, rng)
    t2 = draw_thetas(meta, 1000, rng)
    dists = meta.distance_scale * np.max(np.abs(t1 - t2), axis=-1)
    assert dists.max() <= 1.0


def test_scaled_diameter_above_one_rejected():
    with pytest.raises(ValueError):
        dr.make_box_meta(1, distance_scale=1.5)


def test_ball_mass_interval_geometry():
    meta = dr.make_box_meta(1)
    center = dr.DistributionHandle((0.5,))
    for i in range(6):
        r = 2.0**-i
        assert dr.ball_mass(meta, center, r) == pytest.approx(min(2 * r, 1.0))
    assert dr.ball_mass(meta, dr.DistributionHandle((0.25,)), 0.5) == pytest.approx(0.75)


def test_ball_mass_square_geometry():
    meta = dr.make_box_meta(2)
    center = dr.DistributionHandle((0.5, 0.5))
    for i in range(1, 6):
        r = 2.0**-i
        assert dr.ball_mass(meta, center, r) == pytest.approx((2 * r) ** 2)


def test_ball_mass_atom_is_total():
    meta = dr.make_box_meta(1, lo=0.3, hi=0.3)
    assert dr.ball_mass(meta, dr.DistributionHandle((0.3,)), 0.0) == 1.0
    assert dr.ball_mass(meta, dr.DistributionHandle((0.3,)), 0.125) == 1.0


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=50)
def test_ball_mass_bounded_and_matches_sampling_bound(s, r):
    meta = dr.make_box_meta(1)
    mass = dr.ball_mass(meta, dr.DistributionHandle((s,)), r)
    assert 0.0 <= mass <= 1.0
    # guarantee behind the dyadic bound; tight (equality) at box corners
    assert mass >= min(r, 1.0) - 1e-12


@given(
    st.integers(1, 3),
    st.floats(-1e3, 1e3),
    st.just(0.0) | st.floats(0.0, 50.0),
    st.floats(0.05, 1.0),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    st.floats(0.0, 2.0),
)
@settings(max_examples=300)
def test_ball_mass_matches_the_per_axis_formula_bit_for_bit(dim, lo, side, scale_frac, fracs, r):
    """ball_mass equals the per-axis product of clipped window over side, in axis order, and
    1 for an atom; radii up to 2 reach past the cube, whose scaled diameter is at most 1."""
    hi = lo + side
    c = scale_frac / max(side, 1.0)
    meta = dr.make_box_meta(dim, lo=lo, hi=hi, distance_scale=c)
    theta = tuple(lo + u * side for u in fracs[:dim])
    want = 1.0
    for t in theta:
        if hi - lo > 0:
            want *= max(min(t + r / c, hi) - max(t - r / c, lo), 0.0) / (hi - lo)
    assert dr.ball_mass(meta, dr.DistributionHandle(theta), r).hex() == want.hex()


def test_sup_distances_vectorization():
    meta = dr.make_box_meta(2, distance_scale=0.5)
    s = dr.DistributionHandle((0.5, 0.5))
    thetas = np.array([[0.5, 0.5], [1.0, 0.75]])
    got = sup_distances(meta, thetas, s)
    assert got == pytest.approx([0.0, 0.25])
    assert dr.true_distance(meta, dr.DistributionHandle((1.0, 0.75)), s) == pytest.approx(0.25)
