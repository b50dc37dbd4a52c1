import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

import distreg as dr
from distreg import theory_checks
from distreg.density_distance import box_grid, default_points_per_axis, l1_from_values
from distreg.kernels import plug_in_bandwidth, radial_normalizer
from distreg.meta_world import draw_thetas, sup_distances
from distreg.regression import draw_labeled_dataset
from distreg.theory_checks import dyadic_weights, lemma1_rhs


def unit_meta(dim):
    return dr.make_box_meta(dim)


def test_expected_min_distance_closed_forms():
    """Nearest of m uniform draws to the interval midpoint has mean (1/2)/(m+1)."""
    meta = unit_meta(1)
    s = dr.DistributionHandle((0.5,))
    for m, expected in [(1, 0.25), (3, 0.125), (9, 0.05)]:
        rng = np.random.default_rng([17, m])
        mean, stderr = dr.expected_min_distance(meta, s, m, 10_000, rng)
        assert abs(mean - expected) <= 3.0 * stderr


def test_expected_min_distance_decreases_with_m():
    meta = unit_meta(2)
    s = meta.center()
    prev_mean, prev_se = math.inf, 0.0
    for m in (4, 8, 16, 32, 64):
        mean, se = dr.expected_min_distance(meta, s, m, 2000, np.random.default_rng([18, m]))
        assert mean < prev_mean + 3.0 * (se + prev_se)
        prev_mean, prev_se = mean, se


@pytest.mark.parametrize("chunk", [1, 7, 2**20])
def test_min_distances_do_not_depend_on_the_block_size(chunk, monkeypatch):
    """Blocks split at whole trials: any block size, a partial last block included, gives one draw's values."""
    monkeypatch.setattr(theory_checks, "_CHUNK_ELEMENTS", chunk)
    for dim, m, trials in [(1, 1, 10), (2, 1, 10), (1, 3, 11), (2, 3, 11), (2, 5, 1)]:
        meta = unit_meta(dim)
        s = meta.center()
        ours, theirs = np.random.default_rng([19, dim, m]), np.random.default_rng([19, dim, m])
        got = theory_checks._min_distances(meta, s, m, trials, ours)
        want = sup_distances(meta, draw_thetas(meta, (trials, m), theirs), s).min(axis=1)
        assert np.array_equal(got, want), (dim, m, trials)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_fit_scaling_exponent_exact_power_law():
    m = np.array([4, 16, 64, 256])
    assert dr.fit_scaling_exponent(m, 3.7 * m**-0.5) == pytest.approx(-0.5, abs=1e-12)
    assert dr.fit_scaling_exponent(m, np.full(4, 2.0)) == pytest.approx(0.0, abs=1e-12)


def test_fit_scaling_exponent_rejects_bad_input():
    with pytest.raises(ValueError):
        dr.fit_scaling_exponent([2, 4], [1.0, 0.0])
    with pytest.raises(ValueError):
        dr.fit_scaling_exponent([2], [1.0])
    # m = 0 or < 0 used to warn from log, inf from divide, and nan to fail in LAPACK.
    for bad in (0, -1, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and > 0"):
            dr.fit_scaling_exponent([bad, 2], [1.0, 0.5])


def test_monte_carlo_slope_near_minus_half_in_2d():
    meta = unit_meta(2)
    m_values, rng = [16, 64, 256, 1024, 4096], np.random.default_rng(19)
    means = [dr.expected_min_distance(meta, meta.center(), m, 200, rng)[0] for m in m_values]
    assert -0.65 <= dr.fit_scaling_exponent(m_values, means) <= -0.35


def test_theorem1_rhs_bound_values():
    assert dr.theorem1_rhs_bound(1.0, 1) == pytest.approx(3.78442, abs=1e-5)
    assert dr.theorem1_rhs_bound(3.0, 1) == pytest.approx(3.78442, abs=1e-5)
    assert dr.theorem1_rhs_bound(1.0, 16) == pytest.approx(0.236526, abs=1e-6)
    with pytest.raises(ValueError):
        dr.theorem1_rhs_bound(0.5, 4)
    # A d in (0, 1) passes the positivity rule and fails the bounds' own d >= 1.
    with pytest.raises(ValueError, match="^d must be >= 1$"):
        lemma1_rhs(0.5, 4, 3)


def test_monte_carlo_means_stay_below_theorem1_bound():
    for d in (1, 2):
        meta = unit_meta(d)
        s = meta.center()
        for m in (4, 64, 1024):
            mean, _ = dr.expected_min_distance(meta, s, m, 500, np.random.default_rng([20, d, m]))
            assert mean <= dr.theorem1_rhs_bound(d, m)


def test_small_ball_interval_geometry():
    meta = unit_meta(1)
    report = dr.check_small_ball_bound(meta, meta.center(), 8, 10_000, np.random.default_rng(21))
    assert all(report.holds)
    for i, r in enumerate(report.radii):
        assert report.bound[i] == 2.0 ** (-i)
        assert report.exact_mass[i] == pytest.approx(min(2 * r, 1.0))


def test_small_ball_square_geometry():
    meta = unit_meta(2)
    report = dr.check_small_ball_bound(meta, meta.center(), 8, 10_000, np.random.default_rng(22))
    assert all(report.holds)
    for i, r in enumerate(report.radii):
        assert report.bound[i] == 2.0 ** (-2 * i)
        assert report.exact_mass[i] == pytest.approx(min(2 * r, 1.0) ** 2)


def test_two_sided_binomial_p_matches_scipy():
    """The exact tail 2 * min(P(X <= k), P(X >= k)) against scipy, masses down to 1e-7, up to 130 000 trials."""
    rng = np.random.default_rng(29)
    for _ in range(40):
        trials = int(rng.integers(1, 130_001))
        mass = 10.0 ** rng.uniform(-7.0, 0.0, size=6)
        mass[::2] = 1.0 - mass[::2] / 2.0
        spread = np.ceil(6.0 * np.sqrt(trials * mass * (1.0 - mass))) + 3
        hits = np.clip(rng.binomial(trials, mass) + rng.integers(-spread, spread + 1), 0, trials)
        got = theory_checks._two_sided_binomial_p(hits, trials, mass)
        tails = np.minimum(binom.cdf(hits, trials, mass), binom.sf(hits - 1, trials, mass))
        assert got == pytest.approx(np.minimum(1.0, 2.0 * tails), rel=1e-8, abs=1e-300), trials
    # A mass of 0 or 1 admits one count.
    got = theory_checks._two_sided_binomial_p(np.array([0, 1, 7, 6]), 7, np.array([0.0, 0.0, 1.0, 1.0]))
    assert got.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_small_ball_off_center_point():
    meta = unit_meta(1)
    report = dr.check_small_ball_bound(
        meta, dr.DistributionHandle((0.25,)), 3, 10_000, np.random.default_rng(23)
    )
    assert report.exact_mass[1] == pytest.approx(0.75)
    assert report.holds[1]  # 0.75 >= 0.5


def _lemma1_rhs_fraction(d: int, m: int, i_max: int) -> Fraction:
    total = Fraction(0)
    for i in range(i_max + 1):
        hi = (1 - Fraction(1, 2 ** ((i + 1) * d))) ** m
        lo = (1 - Fraction(1, 2 ** (i * d))) ** m
        total += Fraction(1, 2**i) * (hi - lo)
    return total


def test_lemma1_rhs_geometric_series_value():
    # d=1, m=1 collapses to (1/2) * sum 4^-i = 2/3
    value = lemma1_rhs(1, 1, 30)
    assert abs(value - 2.0 / 3.0) <= 1e-6
    exact = _lemma1_rhs_fraction(1, 1, 30)
    assert abs(value - float(exact)) <= 1e-12
    assert abs(float(exact) - 2.0 / 3.0) <= 2.0**-30


@pytest.mark.parametrize("d,m", [(1, 4), (2, 16), (3, 5)])
def test_lemma1_rhs_matches_exact_rational_sum(d, m):
    assert lemma1_rhs(d, m, 40) == pytest.approx(float(_lemma1_rhs_fraction(d, m, 40)), rel=1e-12)


def test_lemma1_holds_on_small_grid():
    for d in (1, 2):
        meta = unit_meta(d)
        s = meta.center()
        for m in (1, 4, 16):
            res = dr.lemma1_sums(meta, s, m, 40, 10_000, np.random.default_rng([24, d, m]))
            assert res.holds, (d, m, res)
            assert res.rhs > 0


def test_lemma1_atom_meta_lhs_zero():
    meta = dr.make_box_meta(1, lo=0.4, hi=0.4)
    s = dr.DistributionHandle((0.4,))
    res = dr.lemma1_sums(meta, s, 3, 40, 500, np.random.default_rng(25))
    assert res.lhs == 0.0
    assert res.holds


def test_lemma1_rejects_i_max_and_m_below_one():
    # i_max < 1 used to give lhs = rhs = 0 and holds, a pass over no terms; it fails before any draw.
    meta1 = unit_meta(1)
    for i_max in (0, -1):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="i_max"):
            dr.lemma1_sums(meta1, meta1.center(), 4, i_max, 10, rng)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match="i_max"):
            lemma1_rhs(1, 4, i_max)
    # m = 0 used to give 0.0, a bound over no draws, as lemma1_sums does not allow.
    for m in (0, -2):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            lemma1_rhs(1, m, 5)


def test_dyadic_check_degenerate_inputs():
    assert dr.dyadic_expectation_check([0.0, 0.0]) == (0.0, 0.0)
    assert dr.dyadic_expectation_check([0.5, 0.5]) == (0.5, 0.5)
    assert dr.dyadic_expectation_check([1.0]) == (1.0, 1.0)


def test_dyadic_check_rejects_out_of_range():
    with pytest.raises(ValueError):
        dr.dyadic_expectation_check([1.5])
    with pytest.raises(ValueError):
        dr.dyadic_expectation_check([-0.1])


def test_dyadic_check_uniform_samples():
    # analytic dyadic sum for U(0,1): sum over i of 2^-i * 2^-(i+1) = 2/3
    analytic = sum(Fraction(1, 2**i) * Fraction(1, 2 ** (i + 1)) for i in range(60))
    assert float(analytic) == pytest.approx(2.0 / 3.0, abs=1e-12)
    t = np.random.default_rng(26).uniform(size=100_000)
    exp, dyadic = dr.dyadic_expectation_check(t)
    assert exp == pytest.approx(0.5, abs=0.01)
    assert 0.5 <= dyadic <= 1.0
    assert dyadic == pytest.approx(float(analytic), abs=0.01)


@given(
    st.lists(
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False, allow_subnormal=True),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=300)
def test_dyadic_sum_brackets_the_mean(samples):
    exp, dyadic = dr.dyadic_expectation_check(samples)
    assert exp <= dyadic <= 2.0 * exp


NAN_META = unit_meta(1)
NAN_HANDLE = dr.DistributionHandle((math.nan,))
NAN_CASES = {
    "dyadic_weights": (dyadic_weights, ([math.nan],)),
    "dyadic_expectation_check": (dr.dyadic_expectation_check, ([math.nan, 0.3],)),
    "ball_mass": (dr.ball_mass, (NAN_META, NAN_META.center(), math.nan)),
    "theorem1_rhs_bound": (dr.theorem1_rhs_bound, (math.nan, 4)),
    "lemma1_rhs": (lemma1_rhs, (math.nan, 4, 3)),
    "fit_scaling_exponent": (dr.fit_scaling_exponent, ([1, 2], [math.nan, 1])),
    "fit_scaling_exponent_m": (dr.fit_scaling_exponent, ([math.nan, 2], [1.0, 0.5])),
    "fit_scaling_exponent_one_distinct_m": (dr.fit_scaling_exponent, ([16, 16], [0.5, 0.4])),
    "fit_scaling_exponent_inf_mean": (dr.fit_scaling_exponent, ([16, 64], [math.inf, 1.0])),
    "oracle_label": (dr.oracle_label, (NAN_META, NAN_HANDLE)),
    "true_distance": (dr.true_distance, (NAN_META, NAN_HANDLE, NAN_META.center())),
}


@pytest.mark.parametrize("fn,args", NAN_CASES.values(), ids=NAN_CASES.keys())
def test_nan_is_rejected_at_the_public_boundary(fn, args):
    """A nan argument fails the range check instead of coming back as a number or nan."""
    with pytest.raises(ValueError):
        fn(*args)


M1 = unit_meta(1)
S1 = M1.center()
GRID_1D = dr.family_grid(M1, 16)
TARGET = [[0.5]] * 4
DATASET = draw_labeled_dataset(M1, 2, 8, np.random.default_rng(1))
# name of the count, the bad value, and a call that passes it where that count goes
COUNT_CASES = {
    "expected_min_distance-m": ("m", 2.5, lambda v, rng: dr.expected_min_distance(M1, S1, v, 10, rng)),
    "expected_min_distance-trials": ("trials", 10.0, lambda v, rng: dr.expected_min_distance(M1, S1, 4, v, rng)),
    "check_small_ball_bound-i_max": ("i_max", 2.5, lambda v, rng: dr.check_small_ball_bound(M1, S1, v, 100, rng)),
    "check_small_ball_bound-trials": ("trials", 1e2, lambda v, rng: dr.check_small_ball_bound(M1, S1, 3, v, rng)),
    "lemma1_sums-i_max": ("i_max", 2.5, lambda v, rng: dr.lemma1_sums(M1, S1, 4, v, 10, rng)),
    "lemma1_sums-m": ("m", 4.0, lambda v, rng: dr.lemma1_sums(M1, S1, v, 5, 10, rng)),
    "telescoping_sums-m": ("m", 2.5, lambda v, rng: dr.telescoping_sums(1, v, 3)),
    "adaptive-n": ("n", 8.0, lambda v, rng: dr.adaptive_closest_point(M1, TARGET, 0.5, v, 8, rng, GRID_1D)),
    "adaptive-max_iter": ("max_iter", 2.5, lambda v, rng: dr.adaptive_closest_point(M1, TARGET, 0.5, 8, v, rng, GRID_1D)),
    "adaptive-max_iter-bool": ("max_iter", True, lambda v, rng: dr.adaptive_closest_point(M1, TARGET, 6.0, 8, v, rng, GRID_1D)),
    "calibrate_sample_size-trials": ("trials", 2.5, lambda v, rng: dr.calibrate_sample_size(M1, 0.5, 0.9, rng, GRID_1D, v)),
    "draw_samples-n": ("n", 8.0, lambda v, rng: dr.draw_samples(M1, S1, v, rng)),
    "draw_labeled_dataset-m": ("m", 2.5, lambda v, rng: draw_labeled_dataset(M1, v, 8, rng)),
    "draw_labeled_dataset-m-zero": ("m", 0, lambda v, rng: draw_labeled_dataset(M1, v, 8, rng)),
    "draw_labeled_dataset-n": ("n", 2.5, lambda v, rng: draw_labeled_dataset(M1, 2, v, rng)),
    "lemma1_rhs-m": ("m", 2.5, lambda v, rng: lemma1_rhs(1, v, 5)),
    "lemma1_rhs-i_max": ("i_max", 2.5, lambda v, rng: lemma1_rhs(1, 4, v)),
    "theorem1_rhs_bound-m": ("m", 2.5, lambda v, rng: dr.theorem1_rhs_bound(1, v)),
    "MetaDistribution-dim": ("dim", True, lambda v, rng: dr.MetaDistribution(dim=v)),
    "MetaDistribution-dim-float": ("dim", 1.5, lambda v, rng: dr.MetaDistribution(dim=v)),
    "MetaDistribution-dim-zero": ("dim", 0, lambda v, rng: dr.MetaDistribution(dim=v)),
    "GridSpec-points_per_axis-str": ("points_per_axis", "8", lambda v, rng: dr.GridSpec((0.0,), (1.0,), v)),
    "plug_in_bandwidth-n-zero": ("n", 0, lambda v, rng: plug_in_bandwidth(1.0, v, 1)),
    "plug_in_bandwidth-dim-bool": ("dim", True, lambda v, rng: plug_in_bandwidth(1.0, 10, v)),
}


@pytest.mark.parametrize("name,value,call", COUNT_CASES.values(), ids=COUNT_CASES.keys())
def test_non_integer_counts_are_rejected_at_the_public_boundary(name, value, call):
    """A float, bool or too small count is a ValueError before any draw, not a numpy TypeError or a quiet result."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= [12], got {value!r}$"):
        call(value, rng)
    assert rng.bit_generator.state == state


# name of the value, the bad value, and a call that passes it where that value goes
POSITIVE_CASES = {
    "MetaDistribution-base_width": ("base_width", math.inf, lambda v, rng: dr.MetaDistribution(base_width=v)),
    "MetaDistribution-base_width-str": ("base_width", "2", lambda v, rng: dr.MetaDistribution(base_width=v)),
    "MetaDistribution-base_width-bool": ("base_width", True, lambda v, rng: dr.MetaDistribution(base_width=v)),
    "MetaDistribution-lipschitz_const": ("lipschitz_const", math.inf, lambda v, rng: dr.MetaDistribution(lipschitz_const=v)),
    "MetaDistribution-lipschitz_const-zero": ("lipschitz_const", 0.0, lambda v, rng: dr.MetaDistribution(lipschitz_const=v)),
    "MetaDistribution-lipschitz_const-nan": ("lipschitz_const", math.nan, lambda v, rng: dr.MetaDistribution(lipschitz_const=v)),
    "MetaDistribution-lipschitz_const-negative": (
        "lipschitz_const", -1.0, lambda v, rng: dr.MetaDistribution(lipschitz_const=v)
    ),
    "MetaDistribution-distance_scale": ("distance_scale", math.inf, lambda v, rng: dr.MetaDistribution(hi=0.0, distance_scale=v)),
    "MetaDistribution-distance_scale-nan": ("distance_scale", math.nan, lambda v, rng: dr.MetaDistribution(distance_scale=v)),
    "kernel_kernel_estimate-h": (
        "h", math.inf, lambda v, rng: dr.kernel_kernel_estimate(DATASET, DATASET[0].estimate, v, dr.EPANECHNIKOV, GRID_1D)
    ),
    "adaptive-epsilon": ("epsilon", math.inf, lambda v, rng: dr.adaptive_closest_point(M1, TARGET, v, 8, 8, rng, GRID_1D)),
    "calibration_target-epsilon-bool": ("epsilon", True, lambda v, rng: dr.calibration_target(v, M1)),
    "DensityEstimate-bandwidth-bool": ("bandwidth", True, lambda v, rng: dr.DensityEstimate([[0.0]], v, dr.BOXCAR)),
    "DensityEstimate-bandwidth-str": ("bandwidth", "0.5", lambda v, rng: dr.DensityEstimate([[0.0]], v, dr.BOXCAR)),
    "kde_build-bandwidth-bool": ("bandwidth", True, lambda v, rng: dr.kde_build([0.0, 1.0], v, dr.EPANECHNIKOV)),
    "kde_build-bandwidth-str": ("bandwidth", "0.5", lambda v, rng: dr.kde_build([0.0, 1.0], v, dr.EPANECHNIKOV)),
    "calibrate_sample_size-target_err-bool": (
        "target_err", True, lambda v, rng: dr.calibrate_sample_size(M1, v, 0.9, rng, GRID_1D, 2)
    ),
    "calibrate_sample_size-target_err-str": (
        "target_err", "0.1", lambda v, rng: dr.calibrate_sample_size(M1, v, 0.9, rng, GRID_1D, 2)
    ),
    "calibrate_sample_size-confidence-bool": (
        "confidence", True, lambda v, rng: dr.calibrate_sample_size(M1, 0.5, v, rng, GRID_1D, 2)
    ),
    "calibrate_sample_size-confidence-str": (
        "confidence", "0.9", lambda v, rng: dr.calibrate_sample_size(M1, 0.5, v, rng, GRID_1D, 2)
    ),
    "theorem1_rhs_bound-d-bool": ("d", True, lambda v, rng: dr.theorem1_rhs_bound(v, 4)),
    "theorem1_rhs_bound-d-str": ("d", "2", lambda v, rng: dr.theorem1_rhs_bound(v, 4)),
    "lemma1_rhs-d-bool": ("d", True, lambda v, rng: lemma1_rhs(v, 4, 3)),
    "lemma1_rhs-d-str": ("d", "2", lambda v, rng: lemma1_rhs(v, 4, 3)),
    "MetaDistribution-base_width-int-beyond-float": ("base_width", 10**400, lambda v, rng: dr.MetaDistribution(base_width=v)),
    "box_grid-pad-negative": ("pad", -0.2, lambda v, rng: box_grid([0.0], [1.0], v)),
}


@pytest.mark.parametrize("name,value,call", POSITIVE_CASES.values(), ids=POSITIVE_CASES.keys())
def test_infinite_or_nan_values_are_rejected_at_the_public_boundary(name, value, call):
    """An inf or nan where a finite value > 0 goes is a ValueError before any draw, not an inf, nan or quiet result."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {value!r}$"):
        call(value, rng)
    assert rng.bit_generator.state == state


# the rule's message, the bad value, and a call that passes it where a real number that may be 0 goes
REAL_CASES = {
    "ball_mass-r-bool": ("radius must be nonnegative", True, lambda v: dr.ball_mass(M1, S1, v)),
    "ball_mass-r-str": ("radius must be nonnegative", "0.1", lambda v: dr.ball_mass(M1, S1, v)),
    "MetaDistribution-lo-bool": ("parameter box requires finite lo <= hi", True, lambda v: dr.MetaDistribution(lo=v, hi=1.0)),
    "MetaDistribution-lo-str": ("parameter box requires finite lo <= hi", "0", lambda v: dr.MetaDistribution(lo=v)),
    "MetaDistribution-hi-bool": ("parameter box requires finite lo <= hi", True, lambda v: dr.MetaDistribution(hi=v)),
    "MetaDistribution-hi-str": ("parameter box requires finite lo <= hi", "1", lambda v: dr.MetaDistribution(hi=v)),
    "MetaDistribution-hi-int-beyond-float": ("parameter box requires finite lo <= hi", 10**400, lambda v: dr.MetaDistribution(hi=v)),
    "DistributionHandle-str": ("theta must be a sequence of real numbers, got '0.5'", "0.5", dr.DistributionHandle),
    "DistributionHandle-bool": ("theta must be a sequence of real numbers, got True", True, dr.DistributionHandle),
    "DistributionHandle-bool-pair": (
        "theta must be a sequence of real numbers, got (True, 0.5)", (True, 0.5), dr.DistributionHandle
    ),
    "GridSpec-lo-str": ("lo must be a sequence of real numbers, got '0.5'", "0.5", lambda v: dr.GridSpec(v, (1.0,), 8)),
    "GridSpec-hi-bool": ("hi must be a sequence of real numbers, got True", True, lambda v: dr.GridSpec((0.0,), v, 8)),
    "GridSpec-hi-bool-pair": (
        "hi must be a sequence of real numbers, got (True, 0.5)", (True, 0.5), lambda v: dr.GridSpec((0.0, 0.0), v, 8)
    ),
    "DistributionHandle-int-beyond-float": (
        f"theta must be a sequence of real numbers, got ({10**400},)", (10**400,), dr.DistributionHandle
    ),
    "GridSpec-hi-int-beyond-float": (
        f"hi must be a sequence of real numbers, got ({10**400},)", (10**400,), lambda v: dr.GridSpec((0.0,), v, 8)
    ),
    # Sample arrays take one dtype rule: a real, non-bool numeric dtype after np.asarray.
    "kde_build-samples-bool": (
        "samples must be an array of real numbers, got dtype bool", [True, False, True],
        lambda v: dr.kde_build(v, 0.5, dr.EPANECHNIKOV),
    ),
    "kde_build-samples-str": (
        "samples must be an array of real numbers, got dtype <U3", np.array(["0.1", "0.2", "0.3"]),
        lambda v: dr.kde_build(v, 0.5, dr.EPANECHNIKOV),
    ),
    "select_bandwidth-samples-bool": (
        "samples must be an array of real numbers, got dtype bool", [True, False, True], dr.select_bandwidth
    ),
    "DensityEstimate-points-bool": (
        "points must be an array of real numbers, got dtype bool", [[True], [False]],
        lambda v: dr.DensityEstimate(v, 0.5, dr.EPANECHNIKOV),
    ),
    "kde_eval-x-str": (
        "x must be an array of real numbers, got dtype <U3", "0.5", lambda v: dr.kde_eval(DATASET[0].estimate, v)
    ),
    "kde_eval_many-x-bool": (
        "samples must be an array of real numbers, got dtype bool", [True],
        lambda v: dr.kde_eval_many(DATASET[0].estimate, v),
    ),
    "fit_scaling_exponent-m-str": (
        "m values must be an array of real numbers, got dtype <U2", ["16", "64"],
        lambda v: dr.fit_scaling_exponent(v, [1.0, 0.5]),
    ),
    "fit_scaling_exponent-means-bool": (
        "means must be an array of real numbers, got dtype bool", [True, True],
        lambda v: dr.fit_scaling_exponent([16, 64], v),
    ),
    # A list with a bool among numbers converts to a numeric dtype; its entries are checked.
    "kde_build-samples-bool-among-numbers": (
        "samples must be an array of real numbers, got dtype bool", [True, 0.5, 0.25],
        lambda v: dr.kde_build(v, 0.5, dr.EPANECHNIKOV),
    ),
    "DensityEstimate-points-numpy-bool-among-numbers": (
        "points must be an array of real numbers, got dtype bool", [[0.5, np.True_], [0.25, 1.0]],
        lambda v: dr.DensityEstimate(v, 0.5, dr.EPANECHNIKOV),
    ),
    "fit_scaling_exponent-m-bool-among-numbers": (
        "m values must be an array of real numbers, got dtype bool", [True, 4],
        lambda v: dr.fit_scaling_exponent(v, [1.0, 0.5]),
    ),
    "dyadic_expectation_check-bool": (
        "samples must be an array of real numbers, got dtype bool", [True, False], dr.dyadic_expectation_check
    ),
    "KernelSpec.profile-u-str": (
        "kernel argument must be an array of real numbers, got dtype <U3", "0.5", dr.EPANECHNIKOV.profile
    ),
    "kernel_value-u-bool": (
        "kernel argument must be an array of real numbers, got dtype bool", True,
        lambda v: dr.kernel_value(dr.EPANECHNIKOV, v),
    ),
    "dyadic_weights-str-and-bool": ("samples must be an array of real numbers, got dtype bool", ["0.5", True], dyadic_weights),
    "box_grid-lo-str": ("lo must be an array of real numbers, got dtype <U1", ["0"], lambda v: box_grid(v, ["1"], 0.1)),
    "l1_from_values-pv-bool": (
        "pv must be an array of real numbers, got dtype bool", [True, False, True, True],
        lambda v: l1_from_values(v, np.zeros(4), dr.GridSpec((0.0,), (1.0,), 4)),
    ),
    # A spread may be 0 (a degenerate sample), so its rule is one finite number >= 0.
    "plug_in_bandwidth-spread-nan": ("spread must be a finite number >= 0, got nan", math.nan, lambda v: plug_in_bandwidth(v, 10, 1)),
    "plug_in_bandwidth-spread-negative": (
        "spread must be a finite number >= 0, got -5.0", -5, lambda v: plug_in_bandwidth(v, 10, 1)
    ),
    "plug_in_bandwidth-spread-list": ("spread must be a finite number >= 0, got [1.]", [1.0], lambda v: plug_in_bandwidth(v, 10, 1)),
    # Counts that may be 0 take check_counts(0, ...); a table lookup then rejects a dim it has no entry for.
    "radial_normalizer-dim-bool": ("dim must be an integer >= 0, got True", True, lambda v: radial_normalizer("gaussian", v)),
    "radial_normalizer-dim-float": ("dim must be an integer >= 0, got 1.5", 1.5, lambda v: radial_normalizer("gaussian", v)),
    "default_points_per_axis-dim-float": ("dim must be an integer >= 0, got 2.0", 2.0, default_points_per_axis),
    "dyadic_weights-i_max-negative": ("i_max must be an integer >= 0, got -1", -1, lambda v: dyadic_weights([0.5], i_max=v)),
}


@pytest.mark.parametrize("message,value,call", REAL_CASES.values(), ids=REAL_CASES.keys())
def test_a_bool_or_a_string_is_not_taken_for_a_real_number(message, value, call):
    """A bool, a numeric string or an integer beyond float range where a real number goes is the rule's ValueError.

    Not a TypeError, an OverflowError or a cast.
    """
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def _small_ball_by_radius(meta, s, i_max, trials, rng):
    """The report's columns, each radius on its own, in plain Python floats."""
    dists = theory_checks._min_distances(meta, s, 1, trials, rng)
    rows = []
    for i in range(i_max + 1):
        r = 2.0**-i
        p_emp = float(np.mean(dists <= r))
        p_exact = dr.ball_mass(meta, s, r)
        sig = math.sqrt(p_exact * (1.0 - p_exact) / trials)
        b = 2.0 ** (-i * meta.dim)
        rows.append((r, p_emp, b, p_exact, sig, p_emp >= b - 3.0 * sig))
    return tuple(zip(*rows))


@pytest.mark.parametrize("i_max", [1, 10])
@pytest.mark.parametrize("offset", [0.0, 0.3], ids=["centre", "off-centre"])
@pytest.mark.parametrize("dim", [1, 2])
def test_small_ball_report_matches_the_per_radius_formulas_bit_for_bit(dim, offset, i_max):
    meta = unit_meta(dim)
    s = dr.DistributionHandle(tuple(0.5 + offset * (k + 1) / dim for k in range(dim)))
    seed = [28, dim, i_max, int(offset * 10)]
    report = dr.check_small_ball_bound(meta, s, i_max, 3000, np.random.default_rng(seed))
    columns = (report.radii, report.empirical_mass, report.bound, report.exact_mass, report.stderr, report.holds)
    expected = _small_ball_by_radius(meta, s, i_max, 3000, np.random.default_rng(seed))
    assert columns == expected
    for column in columns[:5]:
        assert len(column) == i_max + 1 and all(type(v) is float for v in column)
    assert all(type(v) is bool for v in report.holds)


def test_dyadic_weights_bucket_edges():
    t = np.array([1.0, 0.5, 0.25, 0.75, 0.3, 0.0])
    w = dyadic_weights(t)
    assert list(w) == [1.0, 0.5, 0.25, 1.0, 0.5, 0.0]
    capped = dyadic_weights(np.array([2.0**-12]), i_max=10)
    assert capped[0] == 0.0
    # Bucket i_max itself, (2^-(i_max+1), 2^-i_max], is kept; only the buckets past it are cut.
    edge = dyadic_weights(np.array([2.0**-10, 0.75 * 2.0**-10, 2.0**-11]), i_max=10)
    assert edge.tolist() == [2.0**-10, 2.0**-10, 0.0]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 10, 100])
def test_telescoping_identity_is_exact(d, m):
    for i in (1, 7, 40):
        partial, direct = dr.telescoping_sums(d, m, i)
        assert partial == direct  # exact rational equality


def test_telescoping_rejects_non_integer_d():
    with pytest.raises(ValueError):
        dr.telescoping_sums(1.5, 3, 10)
