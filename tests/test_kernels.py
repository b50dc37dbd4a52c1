import ast
import math
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import distreg as dr
from distreg import kernels
from distreg.density_distance import grid_values
from distreg.kernels import _eval_compact_1d, _eval_dense, radial_normalizer
from distreg.regression import draw_labeled_dataset
import kde_reference
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
    # At 5e-324, 1e-160 and 1.5e154 only exp's argument differs between the
    # library's (u * u) * -0.5 and the reference's (-0.5 * u) * u.
    edges = [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 5e-324, 1e-160, 1.5e154, 1e300, np.inf]
    u = np.concatenate([np.linspace(0.0, 6.0, 6001), edges])
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_distreg_names(source: str) -> list[str]:
    """Private names (_x, not dunders) that the source imports from distreg or reads as attributes, each once.

    Imports count whether absolute or relative (``from .kernels import _x``,
    as inside distreg).  An attribute counts when it is read from a distreg
    name, or when the source itself defines no function, class, variable or
    attribute of that name.
    """
    tree, bound, defined, private = ast.parse(source), set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "distreg":
                    bound.add((alias.asname or alias.name).split(".")[0])
                    private += [part for part in alias.name.split(".") if _private(part)]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "distreg"):
            bound.update(alias.asname or alias.name for alias in node.names)
            private += [part for part in (node.module or "").split(".") if _private(part)]
            private += [alias.name for alias in node.names if _private(alias.name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            defined.add(node.id if isinstance(node, ast.Name) else node.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if (isinstance(root, ast.Name) and root.id in bound) or node.attr not in defined:
                private.append(node.attr)
    return list(dict.fromkeys(private))


def test_reference_reads_no_private_name():
    """tests/kde_reference.py stays independent of the code it checks: no private distreg name."""
    assert _private_distreg_names(Path(kde_reference.__file__).read_text()) == []
    leaky = "import distreg.kernels as k\nfrom distreg import kernels, _x\nfrom distreg.kernels import _TILE\nk._sum_rows\nkernels.KERNELS._p\n"
    assert sorted(_private_distreg_names(leaky)) == ["_TILE", "_p", "_sum_rows", "_x"]


def test_no_distreg_module_reads_another_modules_private_names():
    """Private state stays in its module: no src/distreg file imports or reads another's _ name, so _last_eval stays in kernels."""
    sources = sorted(Path(kernels.__file__).parent.glob("*.py"))
    assert {"kernels.py", "density_distance.py", "regression.py"} <= {path.name for path in sources}
    assert {path.name: _private_distreg_names(path.read_text()) for path in sources} == {path.name: [] for path in sources}
    leaky = (
        "from . import __version__, kernels, _x\nfrom .kernels import _TILE\nfrom ._paths import grid\n"
        "class A:\n    _mine: int = 0\n    def f(self, est):\n        self._own = 1\n"
        "        return self._mine, self._own, est._last_eval, kernels._p, kernels._p\n"
    )
    assert sorted(_private_distreg_names(leaky)) == ["_TILE", "_last_eval", "_p", "_paths", "_x"]


def _typed_conversions(source: str) -> list[int]:
    """Line of each np.asarray or np.array call that names a dtype, by keyword or as its second argument."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("array", "asarray")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and (len(node.args) > 1 or any(keyword.arg == "dtype" for keyword in node.keywords))
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_distreg_module_but_meta_world_converts_an_argument_to_a_dtype_of_its_own():
    """meta_world.real_array is the one float conversion of an argument: no other src/distreg file converts with a dtype."""
    sources = sorted(Path(kernels.__file__).parent.glob("*.py"))
    assert {"kernels.py", "density_distance.py", "theory_checks.py"} <= {path.name for path in sources}
    found = [f"{path.name}:{line}" for path in sources if path.name != "meta_world.py" for line in _typed_conversions(path.read_text())]
    assert found == []
    leaky = (
        "import numpy as np\nnp.asarray(x, dtype=float)\nnp.array(y, float)\nnp.array(z)\n"
        "np.asarray(w, order='C')\nnp.zeros(3, dtype=int)\nz.astype(float)\nnumpy.array(v, dtype=object)\n"
    )
    assert _typed_conversions(leaky) == [2, 3, 8]


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
    with pytest.raises(ValueError, match="unknown kernel kind: 'bogus'"):
        dr.KernelSpec("bogus")
    # A kind that is not a string used to raise TypeError: unhashable type: 'list'.
    with pytest.raises(ValueError, match=r"unknown kernel kind: \['x'\]"):
        dr.KernelSpec(["x"])
    with pytest.raises(ValueError):
        dr.kde_build([], 1.0, dr.BOXCAR)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
            dr.kde_build([[0.0]], bad, dr.BOXCAR)
    with pytest.raises(ValueError):
        dr.kde_build([[0.0, 1.0], [2.0]], 1.0, dr.BOXCAR)
    for points in (np.empty((0, 1)), np.zeros(3)):
        with pytest.raises(ValueError, match="non-empty"):
            dr.DensityEstimate(points, 1.0, dr.BOXCAR)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            dr.kde_build([[0.0], [bad], [1.0]], 0.5, dr.EPANECHNIKOV)
        # The estimate checks its points itself, however it is built.
        with pytest.raises(ValueError, match="non-finite"):
            dr.DensityEstimate(np.array([[0.0, 1.0], [bad, 2.0]]), 0.5, dr.EPANECHNIKOV)
    rows = dr.DensityEstimate([[0, 1], [2, 3]], 0.5, dr.EPANECHNIKOV)
    assert rows.points.dtype == float and np.array_equal(rows.points, [[0.0, 1.0], [2.0, 3.0]])
    assert not rows.points.flags.writeable
    for bandwidth in (1, np.int64(2), np.float64(0.5)):
        assert type(dr.DensityEstimate([[0.0]], bandwidth, dr.BOXCAR).bandwidth) is float
    # The radial constants are tabulated for dims 1-3 only.
    with pytest.raises(ValueError, match="dims 1-3, not 4"):
        dr.kde_build(np.zeros((2, 4)), 1.0, dr.GAUSSIAN)
    for dim in (0, 4):
        with pytest.raises(ValueError, match="dims 1-3"):
            radial_normalizer("gaussian", dim)


def test_estimates_compare_and_hash_by_identity():
    """An estimate holds an ndarray, so field-wise == was ambiguous and hash() failed; both go by identity."""
    a = dr.kde_build([0.0, 1.0], 0.5, dr.EPANECHNIKOV)
    b = dr.kde_build([0.0, 1.0], 0.5, dr.EPANECHNIKOV)
    assert a == a and a != b and a in [b, a] and a not in [b]
    assert len({a, b, a}) == 2
    labeled = dr.LabeledEstimate(a, 1.0)
    assert labeled == dr.LabeledEstimate(a, 1.0) and labeled != dr.LabeledEstimate(b, 1.0)


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
        # drawn as acceptance C06 draws them: jump discontinuities need
        # bandwidths at the spread scale for the 1024/128-point trapezoid
        # grids to resolve the mass to 1e-3
        bandwidth = float(rng.uniform(1.2, 2.0) * x.std(axis=0).mean())
    else:
        bandwidth = dr.select_bandwidth(x)
    return dr.kde_build(x, bandwidth, dr.KERNELS[kind])


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
    small_tiles=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_dense_path_equals_reference_bit_for_bit(kind, dim, n, centre, small_tiles, seed):
    """Tiles change no bit of any value, also in rows that a compact support misses.

    With small_tiles the tile cap is shrunk so that tiles hold one row, or a
    few, and the rows inside a compact support split into many tiles.
    """
    rng = np.random.default_rng(seed)
    points = centre + rng.normal(0.0, rng.uniform(0.1, 3.0), size=(n, dim))
    est = dr.kde_build(points, float(rng.uniform(0.05, 2.0)), dr.KERNELS[kind])
    x = _queries_around(est, rng, int(rng.integers(0, 400)))
    expected = reference_eval(est, x)
    with mock.patch.object(kernels, "_TILE_ELEMENTS", 64 if small_tiles else kernels._TILE_ELEMENTS):
        assert np.array_equal(_eval_dense(est, x), expected)
        if dim > 1 or kind == "gaussian":  # kde_eval_many's dense cases
            assert np.array_equal(dr.kde_eval_many(est, x), expected)


def test_dense_path_equals_reference_with_more_samples_than_a_tile():
    rng = np.random.default_rng(5)
    for kind, dim in (("epanechnikov", 2), ("boxcar", 3)):
        points = rng.normal(0.0, 1.0, size=(40_000, dim))
        est = dr.kde_build(points, 0.4, dr.KERNELS[kind])
        x = _queries_around(est, rng, 200 - 8)
        assert est.count > kernels._TILE_ELEMENTS  # one row per tile
        assert np.array_equal(dr.kde_eval_many(est, x), reference_eval(est, x))


@pytest.mark.parametrize("kind", list(dr.KERNELS))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dense_path_does_not_depend_on_the_tile_size(kind, dim):
    rng = np.random.default_rng(20 + dim)
    est = dr.kde_build(rng.normal(0.0, 1.0, size=(150, dim)), 0.6, dr.KERNELS[kind])
    x = _queries_around(est, rng, 300)
    expected = reference_eval(est, x)
    for tile_elements in (1, 64, 2**15):
        with mock.patch.object(kernels, "_TILE_ELEMENTS", tile_elements):
            assert np.array_equal(_eval_dense(est, x), expected), tile_elements
            if kind != "gaussian":  # a support that misses every query gives exact zeros
                assert np.array_equal(_eval_dense(est, x + 100.0), np.zeros(x.shape[0]))


def _grid_case(rng, kind, dim, n, layout):
    """An estimate and a grid that covers its support; layout places the samples.

    "spread": anywhere inside; "nodes": on grid nodes; "edge": on nodes, with
    the bandwidth the distance to a node (u == 1 exactly, where the boxcar
    counts the node); "gap": on one axis between two nodes, closer than a
    bandwidth, so that a compact support box holds no node on that axis.
    """
    steps = rng.uniform(0.05, 0.5, size=dim if layout in ("spread", "gap") else 1) * np.ones(dim)
    points_per_axis = int(rng.integers(5, 20)) if layout != "gap" else int(rng.integers(2, 5))
    lo = rng.uniform(-5.0, 5.0, size=dim)
    grid = dr.GridSpec(lo=tuple(lo), hi=tuple(lo + steps * (points_per_axis - 1)), points_per_axis=points_per_axis)
    axes = grid.axes()
    if layout == "spread":
        b = float(rng.uniform(0.05, 0.3) * (grid.points_per_axis - 1) * steps.min())
        points = rng.uniform(lo + 1.01 * b, np.asarray(grid.hi) - 1.01 * b, size=(n, dim))
    elif layout == "gap":
        b = float(0.2 * steps.min())
        points = rng.uniform(lo + 1.01 * b, np.asarray(grid.hi) - 1.01 * b, size=(n, dim))
        k = int(rng.integers(0, dim))
        points[:, k] = axes[k][0] + steps[k] * rng.uniform(0.45, 0.55, size=n)
    else:
        reach = int(rng.integers(1, 3)) if points_per_axis >= 7 else 1
        nodes = rng.integers(reach + 1, points_per_axis - reach - 1, size=(n, dim))
        points = np.stack([axes[k][nodes[:, k]] for k in range(dim)], axis=1)
        k, j = int(rng.integers(0, dim)), int(nodes[0, 0])
        b = float(axes[k][j + reach] - axes[k][j]) if layout == "edge" else float(rng.uniform(0.3, 1.0) * steps.min())
    return dr.kde_build(points, b, dr.KERNELS[kind]), grid


@given(
    kind=st.sampled_from(list(dr.KERNELS)),
    dim=st.integers(2, 3),
    n=st.sampled_from([1, 2, 7, 8, 13, 64, 100]),
    layout=st.sampled_from(["spread", "nodes", "edge", "gap"]),
    tile_elements=st.sampled_from([1, 64, kernels._TILE_ELEMENTS]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_grid_values_equal_the_reference_bit_for_bit(kind, dim, n, layout, tile_elements, seed):
    """On a grid every value has the reference's bits, whatever the tile: one node, a stretch of a line or whole lines."""
    est, grid = _grid_case(np.random.default_rng(seed), kind, dim, n, layout)
    with mock.patch.object(kernels, "_TILE_ELEMENTS", tile_elements):
        assert np.array_equal(grid_values(est, grid), reference_eval(est, grid.mesh()))


def test_grid_cases_reach_the_boxcar_edge_and_empty_boxes():
    """The property's layouts reach u == 1 for the boxcar and compact supports that miss every node on an axis."""
    rng = np.random.default_rng(3)
    est, grid = _grid_case(rng, "boxcar", 2, 1, "edge")
    u = np.sqrt(((grid.mesh() - est.points[0]) ** 2).sum(axis=1)) / est.bandwidth
    assert np.any(u == 1.0)
    est, grid = _grid_case(rng, "epanechnikov", 2, 7, "gap")
    assert not np.any(grid_values(est, grid))
    # A support outside the grid on one axis is refused, not evaluated as zeros.
    far = dr.kde_build(est.points + [0.0, 100.0], est.bandwidth, dr.EPANECHNIKOV)
    with pytest.raises(dr.GridCoverageError):
        dr.kde_eval_many(far, grid=grid)


def test_grid_path_memory_stays_at_the_tile_cap():
    """At n samples a tile holds max(2**15 // n, 1) nodes: a tile of the whole grid, or per-axis tables, would need 4 MB or more here."""
    rng = np.random.default_rng(4)
    n = 2**14
    for dim, points_per_axis in ((2, 16), (3, 6)):
        grid = dr.GridSpec(lo=(-3.0,) * dim, hi=(3.0,) * dim, points_per_axis=points_per_axis)
        est = dr.kde_build(rng.uniform(-1.0, 1.0, size=(n, dim)), 0.5, dr.GAUSSIAN)
        expected = reference_eval(est, grid.mesh())
        tracemalloc.start()
        try:
            values = dr.kde_eval_many(est, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(values, expected), dim
        assert peak < 2**20, (dim, peak)


@pytest.mark.parametrize("n", [1, 7, 256, 2**15, 2**16])
def test_tile_scratch_starts_on_a_64_byte_line(n, monkeypatch):
    """Both tiled paths' first tile starts on a 64-byte line, wherever the allocator put the buffer, and keeps its bits.

    Arrays of 0-8 floats are kept alive between the calls to move where the next buffer lands.
    """
    rng = np.random.default_rng(n)
    est = dr.kde_build(rng.normal(0.0, 1.0, size=(n, 2)), 0.5, dr.GAUSSIAN)
    grid = dr.GridSpec(lo=(-3.0, -3.0), hi=(3.0, 3.0), points_per_axis=4)
    expected = reference_eval(est, grid.mesh())
    starts, sum_rows, held = [], kernels._sum_rows, []

    def first_tile(u, *args, **kwargs):
        starts.append(u.ctypes.data)
        return sum_rows(u, *args, **kwargs)

    monkeypatch.setattr(kernels, "_sum_rows", first_tile)
    for size in range(9):
        held.append(np.empty(size))
        for evaluate in (lambda: _eval_dense(est, grid.mesh()), lambda: kernels._eval_grid(est, grid.axes(), None)):
            starts.clear()
            assert np.array_equal(evaluate(), expected)
            assert starts[0] % 64 == 0, (size, starts[0] % 64)


def test_kde_eval_many_takes_points_or_a_grid():
    """Exactly one of x and grid; every estimate of dim >= 2 on a grid skips the dense path.

    Arbitrary points and 1D gaussian grids take it.  The fixed 3D case puts a
    node at d = (0.2, 0.3, 1.0) from the only sample, where the squares added
    as ((d0² + d2²) + d1²) round apart from the reference's axis order: both
    paths follow the axis order there.
    """
    rng = np.random.default_rng(6)
    est = dr.kde_build(rng.normal(0.0, 1.0, size=(9, 2)), 0.8, dr.EPANECHNIKOV)
    grid = dr.GridSpec(lo=(-4.0, -3.0), hi=(4.0, 5.0), points_per_axis=6)
    for args, kwargs in (((), {}), ((grid.mesh(),), {"grid": grid})):
        with pytest.raises(ValueError, match="exactly one of x and grid"):
            dr.kde_eval_many(est, *args, **kwargs)
    with pytest.raises(ValueError, match="dimension 2"):
        dr.kde_eval_many(est, grid=dr.GridSpec(lo=(0.0,) * 3, hi=(1.0,) * 3, points_per_axis=4))
    d = np.array([0.2, 0.3, 1.0])
    sq = d * d
    axis_order, other_order = (sq[0] + sq[1]) + sq[2], (sq[0] + sq[2]) + sq[1]
    assert reference_profile("gaussian", np.sqrt(axis_order)) != reference_profile("gaussian", np.sqrt(other_order))
    cases = [
        (est, grid),
        (dr.kde_build(rng.normal(0.0, 1.0, size=(9, 3)), 0.8, dr.GAUSSIAN), dr.GridSpec(lo=(-4.0,) * 3, hi=(4.0,) * 3, points_per_axis=5)),
        (dr.kde_build([[0.0, 0.0, 0.0]], 1.0, dr.GAUSSIAN), dr.GridSpec(lo=tuple(d), hi=tuple(d + 1.0), points_per_axis=3)),
    ]
    assert np.array_equal(cases[-1][1].mesh()[0] - cases[-1][0].points[0], d)
    with mock.patch.object(kernels, "_eval_dense", side_effect=AssertionError("dense path")):
        for e, g in cases:
            assert np.array_equal(dr.kde_eval_many(e, grid=g), reference_eval(e, g.mesh()))
    dense = mock.Mock(wraps=_eval_dense)
    est1, grid1 = dr.kde_build(rng.normal(0.0, 1.0, size=(9, 1)), 0.8, dr.GAUSSIAN), dr.GridSpec(lo=(-4.0,), hi=(4.0,), points_per_axis=9)
    with mock.patch.object(kernels, "_eval_dense", dense):
        for e, g in cases + [(est1, grid1)]:
            assert np.array_equal(dr.kde_eval_many(e, g.mesh().copy()), reference_eval(e, g.mesh()))
        assert np.array_equal(dr.kde_eval_many(est1, grid=grid1), reference_eval(est1, grid1.mesh()))
    assert dense.call_count == len(cases) + 2


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
    # 1e-3 of its peak, against an oracle that sums each row over all samples.
    x = rng.normal(1e6, 1.3, size=(200_000, 1))
    est = dr.kde_build(x, dr.select_bandwidth(x), dr.EPANECHNIKOV)
    q = rng.uniform(1e6 - 6, 1e6 + 6, size=(100, 1))
    fast, dense = _eval_compact_1d(est, q), reference_eval(est, q)
    peak = dense.max()
    assert np.abs(fast - dense).max() <= 5e-11 * peak
    high = dense > 1e-3 * peak
    assert np.all(np.abs(fast - dense)[high] <= 1e-9 * dense[high])


_EVAL_PATHS = ("_eval_dense", "_eval_grid", "_eval_compact_1d")


def _count_calls(monkeypatch, names) -> list[int]:
    """Counts the calls of the named kernels functions, all together, in a one-element list."""
    calls = [0]
    for name in names:
        def counted(*args, _path=getattr(kernels, name)):
            calls[0] += 1
            return _path(*args)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def _count_dense_calls(monkeypatch) -> list[int]:
    return _count_calls(monkeypatch, ["_eval_dense"])


def test_kernel_kernel_evaluates_the_query_once(monkeypatch):
    """m members and one query on one grid: m + 1 dense evaluations, not 2m."""
    m = 6
    meta = dr.make_box_meta(1)
    rng = np.random.default_rng(12)
    dataset = draw_labeled_dataset(meta, m, 64, rng, dr.GAUSSIAN)
    query = dr.kde_fit(dr.draw_samples(meta, dr.draw_distribution(meta, rng), 64, rng), dr.GAUSSIAN)
    grid = dr.family_grid(meta, 16)
    calls = _count_dense_calls(monkeypatch)
    dr.kernel_kernel_estimate(dataset, query, 0.25, dr.GAUSSIAN, grid)
    assert calls[0] == m + 1


@pytest.mark.parametrize("kind", list(dr.KERNELS))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_repeat_evaluation_on_the_mesh_is_fresh_and_exact(kind, dim, monkeypatch):
    """A repeat call on the same grid is not recomputed; each result is a fresh, writable copy of the values at its mesh."""
    rng = np.random.default_rng(dim)
    est = dr.kde_build(rng.normal(0.0, 1.0, size=(40, dim)), 0.7, dr.KERNELS[kind])
    grid = dr.GridSpec(lo=(-5.0,) * dim, hi=(5.0,) * dim, points_per_axis=9)  # holds every support box here
    mesh = grid.mesh()
    prefix = dim == 1 and kind != "gaussian"
    expected = _eval_compact_1d(est, mesh) if prefix else reference_eval(est, mesh)
    calls = _count_calls(monkeypatch, _EVAL_PATHS)
    first = dr.kde_eval_many(est, grid=grid)
    second = dr.kde_eval_many(est, grid=grid)
    assert calls[0] == 1  # the repeat is not recomputed, on any path
    assert np.array_equal(first, expected) and np.array_equal(second, expected)
    assert second is not first and second.flags.writeable
    first[:] = -1.0
    assert np.array_equal(second, expected)
    second[:] = -2.0  # a copy handed out on a hit is not the kept values either
    assert np.array_equal(dr.kde_eval_many(est, grid=grid), expected)
    assert calls[0] == 1


@pytest.mark.parametrize("kind", list(dr.KERNELS))
def test_only_immutable_query_arrays_are_memoised(kind, monkeypatch):
    """Only grids are memoised: a query array is evaluated afresh on every call.

    That holds for a writable array, a read-only view of a writable base, and
    a read-only array that owns its data, such as a grid's mesh.
    """
    rng = np.random.default_rng(8)
    est = dr.kde_build(rng.normal(0.0, 1.0, size=(30, 2)), 0.8, dr.KERNELS[kind])
    writable = rng.uniform(-3.0, 3.0, size=(50, 2))
    base = rng.uniform(-3.0, 3.0, size=(50, 2))
    view = base[:]
    view.flags.writeable = False
    owned = rng.uniform(-3.0, 3.0, size=(50, 2))
    owned.flags.writeable = False
    mesh = dr.GridSpec(lo=(-3.0, -3.0), hi=(3.0, 3.0), points_per_axis=7).mesh()
    calls = _count_calls(monkeypatch, _EVAL_PATHS)
    for query, owner in ((writable, writable), (view, base), (owned, owned)):
        read_only = not query.flags.writeable
        assert np.array_equal(dr.kde_eval_many(est, query), reference_eval(est, query))
        owner.flags.writeable = True
        owner += 0.5
        query.flags.writeable = not read_only
        assert np.array_equal(dr.kde_eval_many(est, query), reference_eval(est, query))
    assert not owned.flags.writeable and owned.base is None
    for _ in range(2):
        assert np.array_equal(dr.kde_eval_many(est, mesh), reference_eval(est, mesh))
    assert calls[0] == 8


@pytest.mark.parametrize("kind", list(dr.KERNELS))
@pytest.mark.parametrize("dim", [1, 2])
def test_estimate_built_from_a_writable_array_keeps_its_own_points(kind, dim):
    """Mutating the array an estimate was built from changes neither its points nor its grid values, memoised or not."""
    rng = np.random.default_rng(13)
    points = rng.normal(0.0, 1.0, size=(20, dim))
    est = dr.DensityEstimate(points, 0.8, dr.KERNELS[kind])
    assert est.points is not points and not est.points.flags.writeable
    with pytest.raises(ValueError):
        est.points[0, 0] = 1.0
    grid = dr.GridSpec(lo=(-5.0,) * dim, hi=(5.0,) * dim, points_per_axis=17)
    first = grid_values(est, grid)
    unchanged = dr.DensityEstimate(points.copy(), 0.8, dr.KERNELS[kind])
    points += 1.0
    for values in (grid_values(est, grid), dr.kde_eval_many(est, grid.mesh().copy()), grid_values(unchanged, grid)):
        assert np.array_equal(values, first)


def test_memo_shared_between_threads_never_mixes_grids():
    """Threads alternate one estimate between two grids; each result must belong to its own grid."""
    rng = np.random.default_rng(10)
    est = dr.kde_build(rng.normal(0.0, 1.0, size=(5, 1)), 0.5, dr.GAUSSIAN)
    grids = [dr.GridSpec(lo=(-4.0,), hi=(hi,), points_per_axis=8) for hi in (4.0, 5.0)]
    expected = [reference_eval(est, grid.mesh()) for grid in grids]
    mismatches = []

    def work(offset):
        for i in range(3000):
            k = (i + offset) % 2
            if not np.array_equal(dr.kde_eval_many(est, grid=grids[k]), expected[k]):
                mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert mismatches == []


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
