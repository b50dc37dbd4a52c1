"""Smoothing kernels and the kernel density estimator.

A kernel here is a radial profile K: [0, inf) -> [0, inf) applied to
``||x - X_j|| / b``.  The three profiles are normalized so that the induced
1D density integrates to one; in higher dimension the estimator divides by
a per-(kernel, dim) radial constant tabulated for dims 1-3, so the estimate
integrates to one in each; higher dims are rejected, as by quadrature grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .meta_world import check_positive

__all__ = [
    "KernelSpec",
    "BOXCAR",
    "EPANECHNIKOV",
    "GAUSSIAN",
    "KERNELS",
    "kernel_value",
    "radial_normalizer",
    "DensityEstimate",
    "kde_build",
    "kde_fit",
    "kde_eval",
    "kde_eval_many",
    "plug_in_bandwidth",
    "select_bandwidth",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# Radial profiles, each overwriting a float array of u >= 0 (nan excluded) in
# place.  KernelSpec.profile and the dense path both use this table, so each
# formula is written once; the operation order is part of the bit-exact
# contract of kde_eval_many.
def _boxcar(u: np.ndarray) -> None:
    np.less_equal(u, 1.0, out=u)
    np.multiply(u, 0.5, out=u)


def _epanechnikov(u: np.ndarray) -> None:
    # 1 - u*u < 0 for every u > 1, so the clamp alone zeroes the outside.
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    np.maximum(u, 0.0, out=u)
    np.multiply(u, 0.75, out=u)


def _gaussian(u: np.ndarray) -> None:
    np.multiply(u, u, out=u)
    np.multiply(u, -0.5, out=u)
    np.exp(u, out=u)
    np.divide(u, _SQRT_2PI, out=u)


_PROFILES = {"boxcar": _boxcar, "epanechnikov": _epanechnikov, "gaussian": _gaussian}


@dataclass(frozen=True)
class KernelSpec:
    """A named radial smoothing kernel.

    kind : one of "boxcar", "epanechnikov", "gaussian".
    """

    kind: str

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _PROFILES:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")

    @property
    def support_radius(self) -> float:
        """Radius beyond which the profile is exactly zero (inf for gaussian)."""
        return math.inf if self.kind == "gaussian" else 1.0

    def profile(self, u):
        """Evaluate the radial profile at nonnegative u (vectorized); nan is rejected."""
        u = np.array(u, dtype=float)
        if not np.all(u >= 0):
            raise ValueError("kernel argument must be nonnegative and not nan")
        _PROFILES[self.kind](u)
        return u


BOXCAR = KernelSpec("boxcar")
EPANECHNIKOV = KernelSpec("epanechnikov")
GAUSSIAN = KernelSpec("gaussian")
KERNELS = {k.kind: k for k in (BOXCAR, EPANECHNIKOV, GAUSSIAN)}


def kernel_value(kernel: KernelSpec, u: float) -> float:
    """Closed-form kernel profile at a single nonnegative argument."""
    return float(kernel.profile(u))


# Integral of K(||x||) over R^dim for dims 1-3, as radial quadrature gives it (tests/kde_reference.py
# recomputes it); 5 of the 9 closed forms differ in the last bit, which would change estimates.
_RADIAL_NORMALIZERS = {
    "boxcar": (1.0, 1.5707963267948966, 2.0943951023931957),
    "epanechnikov": (0.9999999999999999, 1.1780972450961724, 1.2566370614359172),
    "gaussian": (0.9999999999999998, 2.506628274630997, 6.283185307179592),
}


def radial_normalizer(kind: str, dim: int) -> float:
    """Integral of K(||x||) over R^dim, 1 <= dim <= 3: the kernel sum divided by it integrates to one."""
    if not 1 <= dim <= 3:
        raise ValueError(f"radial constants cover dims 1-3, not {dim}")
    return _RADIAL_NORMALIZERS[kind][dim - 1]


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """A kernel density estimate: sample points (n, dim), bandwidth, kernel.

    Immutable: it keeps a read-only float copy of the points it is given,
    which must be a non-empty, finite (n, dim) array or sequence of rows,
    and its bandwidth as a float.  Equality and hashing are by identity.
    Evaluation is thread-safe; the only state it keeps is the memo of its
    last evaluation on a grid.
    """

    points: np.ndarray
    bandwidth: float
    kernel: KernelSpec
    # One slot holding (grid, values) of the last grid evaluation; kde_eval_many
    # replaces the whole pair in one assignment.
    _last_eval: list = field(default_factory=lambda: [(None, None)], init=False, repr=False)

    def __post_init__(self):
        pts = _checked(np.array(self.points, dtype=float))
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        radial_normalizer(self.kernel.kind, self.dim)  # rejects dim > 3
        check_positive(bandwidth=self.bandwidth)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise [min - b, max + b] box; exact support for compact kernels."""
        b = self.bandwidth
        return self.points.min(axis=0) - b, self.points.max(axis=0) + b


def _checked(pts: np.ndarray) -> np.ndarray:
    """pts itself, once it is a non-empty, finite (n, k) array."""
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("points must be a non-empty (n, dim) array")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite values (nan or inf)")
    return pts


def _promoted(samples) -> np.ndarray:
    """Samples as a float array; 1D scalars are promoted to an (n, 1) column."""
    pts = np.asarray(samples, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


def kde_build(samples, bandwidth: float, kernel: KernelSpec) -> DensityEstimate:
    """Build a density estimate from finite samples in R^k.

    Accepts an (n, k) array or a sequence of length-k vectors; 1D scalars are
    promoted to k = 1.  The estimate checks and copies the points: empty,
    NaN or infinite samples raise ValueError.
    """
    return DensityEstimate(points=_promoted(samples), bandwidth=bandwidth, kernel=kernel)


# Query rows x samples per tile of the dense and grid paths' scratch buffers.
_TILE_ELEMENTS = 2**15
# Relative widening of the support box before the grid nodes outside it are
# skipped; far above the rounding of the box corners and of the distances.
_SUPPORT_MARGIN = 1e-9


def _squared_distances(x: np.ndarray, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from each row of x to each sample, as a (rows, samples) array (written into out if given).

    The per-axis squared differences are added in axis order,
    ((d0**2 + d1**2) + d2**2): every path forms its squared distances here,
    and tests/kde_reference.py writes the same order out.
    """
    out = np.subtract.outer(x[:, 0], points[:, 0], out=out)
    np.multiply(out, out, out=out)
    for k in range(1, x.shape[1]):
        d = np.subtract.outer(x[:, k], points[:, k])
        out += np.multiply(d, d, out=d)
    return out


def _sum_rows(u: np.ndarray, b: float, profile, scale: float, out: np.ndarray) -> None:
    """out = scale * (sum over each row of profile(sqrt(u) / b)) for a (rows, samples) tile of squared distances.

    The float chain both tiled paths share, in the reference's order; u is overwritten.
    """
    np.sqrt(u, out=u)
    np.divide(u, b, out=u)
    profile(u)
    np.multiply(u.sum(axis=1), scale, out=out)


def _eval_dense(est: DensityEstimate, x: np.ndarray) -> np.ndarray:
    """Density at every query row, tile by tile.

    Each row is summed over all samples, by the same float operations, in the
    same order, as a single pass over the whole (queries x samples) array of
    squared distances.  A compact profile is an exact 0 outside its support,
    so rows far from every sample need no special case.
    """
    b, n = est.bandwidth, est.count
    scale = 1.0 / (n * radial_normalizer(est.kernel.kind, est.dim) * b**est.dim)
    profile = _PROFILES[est.kernel.kind]
    tile = max(1, _TILE_ELEMENTS // n)
    u_buf = np.empty(tile * n)  # flat, reshaped per tile, so every operand is C-contiguous
    values = np.empty(x.shape[0])
    for first in range(0, x.shape[0], tile):
        qt = x[first : first + tile]
        u = _squared_distances(qt, est.points, out=u_buf[: qt.shape[0] * n].reshape(qt.shape[0], n))
        _sum_rows(u, b, profile, scale, out=values[first : first + tile])
    return values


def _eval_grid(est: DensityEstimate, axes) -> np.ndarray:
    """Density of an estimate of dim >= 2 at every node of the product of its axes (flattened, C order).

    Equals the dense path at the mesh bit for bit: a node's squared distance
    to a sample is its leading axes' squared distance plus the last axis'
    squared difference, which is the dense path's sum in axis order.  A tile
    is whole lines along the last axis, or one stretch of a line, at the
    dense path's cap; its squared distances are computed per tile, so memory
    does not grow with the grid.  For the compact kernels the nodes outside
    the support box, widened by _SUPPORT_MARGIN, are 0: per axis only the
    nodes inside it are evaluated.
    """
    b, dim, n = est.bandwidth, est.dim, est.count
    scale = 1.0 / (n * radial_normalizer(est.kernel.kind, dim) * b**dim)
    boxes = [slice(None)] * dim
    if math.isfinite(est.kernel.support_radius):
        lo, hi = est.support_box()
        pad = _SUPPORT_MARGIN * np.maximum(np.abs(lo), np.abs(hi))
        boxes = [slice(np.searchsorted(a, l), np.searchsorted(a, h, "right")) for a, l, h in zip(axes, lo - pad, hi + pad)]
    kept = [axis[box] for axis, box in zip(axes, boxes)]
    # The leading axes' nodes in C order, one row each; the last axis runs along a line.
    leading = kept[0][:, None]
    for axis in kept[1:-1]:
        leading = np.column_stack((np.repeat(leading, axis.size, axis=0), np.tile(axis, leading.shape[0])))
    last = kept[-1]
    profile = _PROFILES[est.kernel.kind]
    tile = max(1, _TILE_ELEMENTS // n)
    width = max(1, min(last.size, tile))
    lines = max(1, tile // width)
    u_buf = np.empty(lines * width * n)
    values = np.empty(leading.shape[0] * last.size)  # the box's nodes in C order: a tile's are contiguous
    for start in range(0, last.size, width):
        stretch = last[start : start + width, None]
        sq_last = _squared_distances(stretch, est.points[:, -1:])
        for first in range(0, leading.shape[0], lines):
            rows = leading[first : first + lines]
            sq_leading = _squared_distances(rows, est.points)
            u = u_buf[: rows.shape[0] * stretch.shape[0] * n].reshape(rows.shape[0], stretch.shape[0], n)
            np.add(sq_leading[:, None, :], sq_last[None, :, :], out=u)
            node = first * last.size + start
            _sum_rows(u.reshape(-1, n), b, profile, scale, out=values[node : node + u.shape[0] * u.shape[1]])
    out = np.zeros(tuple(axis.size for axis in axes))
    out[tuple(boxes)] = values.reshape([a.size for a in kept])
    return out.ravel()


def _eval_compact_1d(est: DensityEstimate, x: np.ndarray) -> np.ndarray:
    # Window sums over sorted sample prefix sums; exact for compact kernels.
    pts = np.sort(est.points[:, 0])
    b = est.bandwidth
    q = x[:, 0]
    lo = np.searchsorted(pts, q - b, side="left")
    hi = np.searchsorted(pts, q + b, side="right")
    w = (hi - lo).astype(float)
    scale = 1.0 / (est.count * radial_normalizer(est.kernel.kind, 1) * b)
    if est.kernel.kind == "boxcar":
        return 0.5 * w * scale
    # Centering on the middle sample keeps the expanded quadratic below well
    # conditioned far from the origin.
    center = float(pts[est.count // 2])
    centered = pts - center
    y = q - center
    s1 = np.concatenate(([0.0], np.cumsum(centered)))
    s2 = np.concatenate(([0.0], np.cumsum(centered * centered)))
    sum1 = s1[hi] - s1[lo]
    sum2 = s2[hi] - s2[lo]
    # sum over window of (1 - (q - X_j)^2 / b^2), expanded around the center
    acc = w - (y * y * w - 2.0 * y * sum1 + sum2) / (b * b)
    return 0.75 * np.maximum(acc, 0.0) * scale


def kde_eval_many(est: DensityEstimate, x=None, *, grid=None) -> np.ndarray:
    """Evaluate the estimate at an (m, dim) array of query points, or at every node of a grid.

    Give exactly one of x and ``grid``, a ``GridSpec``: its values are those
    at ``grid.mesh()``, in the same order.  Three paths: 1D compact
    estimates use prefix sums over the sorted samples; an estimate of
    dim >= 2 on a grid is evaluated from per-axis squared differences, with
    the same bits as at the mesh; everything else takes the dense path.  A
    repeat call on the same grid copies the estimate's last grid values
    instead of recomputing them; query points are evaluated on every call.
    The returned array is always fresh and writable.
    """
    if (x is None) == (grid is None):
        raise ValueError("give exactly one of x and grid")
    x = _promoted(grid.mesh() if grid is not None else x)
    last = est._last_eval[0]
    if grid is not None and last[0] is grid:
        return last[1].copy()
    if x.ndim != 2 or x.shape[1] != est.dim:
        raise ValueError(f"query points must have dimension {est.dim}")
    if not np.isfinite(x).all():
        raise ValueError("query points contain non-finite values (nan or inf)")
    if est.dim == 1 and math.isfinite(est.kernel.support_radius):
        values = _eval_compact_1d(est, x)
    elif grid is not None and est.dim > 1:
        values = _eval_grid(est, grid.axes())
    else:
        values = _eval_dense(est, x)
    if grid is not None:
        est._last_eval[0] = (grid, values.copy())
    return values


def kde_eval(est: DensityEstimate, x) -> float:
    """Evaluate the estimate at a single point of length dim."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (est.dim,):
        raise ValueError(f"query point must have length {est.dim}")
    return float(kde_eval_many(est, x[None, :])[0])


def plug_in_bandwidth(spread: float, n: int, dim: int) -> float:
    """Plug-in rule: spread times n^(-1/(4+dim)), floored at 1e-3 so degenerate samples stay usable."""
    return max(spread * n ** (-1.0 / (4 + dim)), 1e-3)


def select_bandwidth(samples) -> float:
    """plug_in_bandwidth at the samples' spread: the population (ddof=0) std averaged over coordinates."""
    pts = _checked(_promoted(samples))
    n, k = pts.shape
    if n < 2:
        raise ValueError("bandwidth selection needs at least 2 samples")
    sigma = float(pts.std(axis=0, ddof=0).mean())
    return plug_in_bandwidth(sigma, n, k)


def kde_fit(samples, kernel: KernelSpec) -> DensityEstimate:
    """Density estimate of the samples at their plug-in bandwidth."""
    return kde_build(samples, select_bandwidth(samples), kernel)
