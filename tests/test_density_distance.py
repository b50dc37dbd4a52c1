import numpy as np
import pytest

import distreg as dr
from distreg.density_distance import (
    GridCoverageError,
    GridSpec,
    default_grid,
    default_points_per_axis,
    grid_integral,
    l1_distance,
)

UNIFORM_01 = dr.kde_build([[0.5]], 0.5, dr.BOXCAR)  # density 1 on [0, 1]
UNIFORM_23 = dr.kde_build([[2.5]], 0.5, dr.BOXCAR)
UNIFORM_0515 = dr.kde_build([[1.0]], 0.5, dr.BOXCAR)
FINE_GRID = GridSpec(lo=(-1.0,), hi=(4.0,), points_per_axis=20001)


def test_identical_estimates_have_zero_distance():
    assert l1_distance(UNIFORM_01, UNIFORM_01, FINE_GRID) == 0.0


def test_disjoint_uniforms():
    assert l1_distance(UNIFORM_01, UNIFORM_23, FINE_GRID) == pytest.approx(2.0, abs=1e-3)


def test_half_overlapping_uniforms():
    assert l1_distance(UNIFORM_01, UNIFORM_0515, FINE_GRID) == pytest.approx(1.0, abs=1e-3)


def _random_estimates(rng, count, dim=1):
    out = []
    for _ in range(count):
        n = int(rng.integers(30, 120))
        x = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 1.5), size=(n, dim))
        out.append(dr.kde_build(x, dr.select_bandwidth(x), dr.KERNELS[rng.choice(list(dr.KERNELS))]))
    return out


def test_symmetry_is_exact():
    rng = np.random.default_rng(10)
    for _ in range(25):
        p, q = _random_estimates(rng, 2)
        grid = default_grid(p, q)
        assert l1_distance(p, q, grid) == l1_distance(q, p, grid)


def test_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p, q, r = _random_estimates(rng, 3)
        grid = default_grid(p, q, r)
        dpr = l1_distance(p, r, grid)
        dpq = l1_distance(p, q, grid)
        dqr = l1_distance(q, r, grid)
        assert dpr <= dpq + dqr + 1e-9


def test_range_of_normalized_densities():
    rng = np.random.default_rng(12)
    for _ in range(40):
        p, q = _random_estimates(rng, 2)
        grid = default_grid(p, q)
        assert 0.0 <= l1_distance(p, q, grid) <= 2.0 + 1e-3


def test_dimension_mismatch_raises():
    p1 = dr.kde_build([[0.0]], 1.0, dr.GAUSSIAN)
    p2 = dr.kde_build([[0.0, 0.0]], 1.0, dr.GAUSSIAN)
    with pytest.raises(ValueError):
        l1_distance(p1, p2, FINE_GRID)
    with pytest.raises(ValueError):
        l1_distance(p2, p2, FINE_GRID)


def test_coverage_error_for_escaping_compact_support():
    outside = dr.kde_build([[6.0]], 0.5, dr.BOXCAR)  # support [5.5, 6.5]
    with pytest.raises(GridCoverageError):
        l1_distance(UNIFORM_01, outside, FINE_GRID)
    # gaussian tails may escape without error
    far_gaussian = dr.kde_build([[6.0]], 0.5, dr.GAUSSIAN)
    l1_distance(dr.kde_build([[0.5]], 0.5, dr.GAUSSIAN), far_gaussian, FINE_GRID)
    # every grid evaluation of a compact estimate is checked, the integral too
    with pytest.raises(GridCoverageError):
        grid_integral(outside, FINE_GRID)


def test_default_grid_pads_three_bandwidths():
    p = dr.kde_build([[0.0], [1.0]], 0.25, dr.BOXCAR)
    q = dr.kde_build([[2.0]], 0.5, dr.BOXCAR)
    grid = default_grid(p, q)
    assert grid.lo == (0.0 - 1.5,)
    assert grid.hi == (2.0 + 1.5,)
    assert grid.points_per_axis == 1024


def test_default_points_per_axis_table():
    assert [default_points_per_axis(k) for k in (1, 2, 3)] == [1024, 128, 48]
    with pytest.raises(ValueError):
        default_points_per_axis(4)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(lo=(0.0,), hi=(0.0,), points_per_axis=8)
    with pytest.raises(ValueError):
        GridSpec(lo=(0.0, 0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0, 1.0), points_per_axis=8)
    with pytest.raises(ValueError):
        GridSpec(lo=(0.0,), hi=(1.0,), points_per_axis=1)
    for lo, hi in [((-np.inf,), (0.0,)), ((0.0,), (np.inf,)), ((np.nan,), (0.0,)), ((0.0, -np.inf), (1.0, 1.0))]:
        with pytest.raises(ValueError, match="finite"):
            GridSpec(lo=lo, hi=hi, points_per_axis=8)


def test_quadrature_weights_sum_to_volume():
    grid = GridSpec(lo=(0.0, -1.0), hi=(2.0, 1.0), points_per_axis=17)
    assert grid.quadrature_weights().sum() == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mesh_and_weights_are_built_once_and_read_only(dim):
    grid = GridSpec(lo=(-1.0, 0.0, 2.0)[:dim], hi=(1.0, 3.0, 2.5)[:dim], points_per_axis=9)
    mesh, weights = grid.mesh(), grid.quadrature_weights()
    assert mesh is grid.mesh() and weights is grid.quadrature_weights()
    assert not mesh.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        mesh[0, 0] = 5.0
    axes = [np.linspace(a, b, 9) for a, b in zip(grid.lo, grid.hi)]
    fresh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert np.array_equal(mesh, fresh)
    trapezoid = [np.diff(a).mean() * np.r_[0.5, np.ones(7), 0.5] for a in axes]
    assert np.allclose(weights, np.prod(np.meshgrid(*trapezoid, indexing="ij"), axis=0).ravel(), rtol=1e-15)


def test_grid_integral_of_exact_uniform():
    assert grid_integral(UNIFORM_01, FINE_GRID) == pytest.approx(1.0, abs=1e-3)


def test_two_dimensional_distance_of_disjoint_blobs():
    p = dr.kde_build([[0.0, 0.0]], 0.5, dr.EPANECHNIKOV)
    q = dr.kde_build([[4.0, 4.0]], 0.5, dr.EPANECHNIKOV)
    grid = default_grid(p, q)
    assert l1_distance(p, q, grid) == pytest.approx(2.0, abs=5e-3)
