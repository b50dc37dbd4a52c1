"""Smoothing kernels and the kernel density estimator.

A kernel here is a radial profile K: [0, inf) -> [0, inf) applied to
``||x - X_j|| / b``.  The three profiles are normalized so that the induced
1D density integrates to one; in higher dimension the estimator divides by
a per-(kernel, dim) radial constant computed once by quadrature, so the
estimate integrates to one for every dim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, cached_property

import numpy as np
from scipy.integrate import quad

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
    t = np.multiply(u, -0.5)  # a copy keeps the order (-0.5 * u) * u
    np.multiply(t, u, out=u)
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
        if self.kind not in _PROFILES:
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


def _sphere_area(dim: int) -> float:
    # Surface area of the unit (dim-1)-sphere embedded in R^dim.
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@lru_cache(maxsize=None)
def radial_normalizer(kind: str, dim: int) -> float:
    """Integral of K(||x||) over R^dim, computed by radial quadrature.

    Dividing the raw kernel sum by this constant makes the density estimate
    integrate to one in any dimension.  Equals 1.0 for dim == 1 since the
    profiles are 1D-normalized.
    """
    kernel = KERNELS[kind]
    upper = 1.0 if math.isfinite(kernel.support_radius) else np.inf
    integral, _ = quad(lambda r: float(kernel.profile(r)) * r ** (dim - 1), 0.0, upper)
    return _sphere_area(dim) * integral


@dataclass(frozen=True)
class DensityEstimate:
    """A kernel density estimate: sample points, bandwidth, kernel, dimension.

    Treat as immutable; evaluation is pure and thread-safe.
    """

    points: np.ndarray
    bandwidth: float
    kernel: KernelSpec
    dim: int
    count: int

    def __post_init__(self):
        if self.count < 1 or self.count != self.points.shape[0]:
            raise ValueError("count must equal the number of points and be >= 1")
        if self.dim < 1 or self.points.shape[1] != self.dim:
            raise ValueError("every point must have length dim >= 1")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @cached_property
    def _normalizer(self) -> float:
        return radial_normalizer(self.kernel.kind, self.dim)

    @cached_property
    def _sorted_1d(self) -> np.ndarray:
        return np.sort(self.points[:, 0])

    @cached_property
    def _center_1d(self) -> float:
        # Reference point for the centered window sums; keeps the expanded
        # quadratic in _eval_compact_1d well conditioned far from the origin.
        return float(self._sorted_1d[self.count // 2])

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise [min - b, max + b] box; exact support for compact kernels."""
        b = self.bandwidth
        return self.points.min(axis=0) - b, self.points.max(axis=0) + b


def _as_points(samples) -> np.ndarray:
    """Samples as an (n, k) float array; 1D scalars are promoted to k = 1."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("samples must be a non-empty sequence of equal-length vectors")
    if not np.isfinite(pts).all():
        raise ValueError("samples contain non-finite values (nan or inf)")
    return pts


def kde_build(samples, bandwidth: float, kernel: KernelSpec) -> DensityEstimate:
    """Build a density estimate from finite samples in R^k.

    Accepts an (n, k) array or a sequence of length-k vectors; 1D scalars are
    promoted to k = 1.  NaN or infinite samples raise ValueError.
    """
    pts = _as_points(samples)
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    pts = pts.copy()
    pts.flags.writeable = False
    return DensityEstimate(
        points=pts,
        bandwidth=float(bandwidth),
        kernel=kernel,
        dim=pts.shape[1],
        count=pts.shape[0],
    )


# Cap on pairwise-block size for the dense evaluation path.  Blocks are sized
# from the full query count, so each row sums its samples in the same blocks
# whichever rows are computed.
_BLOCK_ELEMENTS = 4_000_000
# Query rows x samples per tile of the dense path's scratch buffers.
_TILE_ELEMENTS = 2**15
# Relative widening of the support box before rows outside it are skipped;
# far above the rounding of the box corners and of the distances.
_SUPPORT_MARGIN = 1e-9


def _rows_in_support(est: DensityEstimate, x: np.ndarray) -> np.ndarray | None:
    """Indices of the query rows that can see a sample; None means all rows."""
    if not math.isfinite(est.kernel.support_radius):
        return None
    lo, hi = est.support_box()
    pad = _SUPPORT_MARGIN * np.maximum(np.abs(lo), np.abs(hi))
    inside = ((x >= lo - pad) & (x <= hi + pad)).all(axis=1)
    return None if inside.all() else np.flatnonzero(inside)


def _eval_dense(est: DensityEstimate, x: np.ndarray) -> np.ndarray:
    """Density at every query row, tile by tile; rows outside a compact support are 0.

    Each value comes from the same float operations, in the same order, as a
    single pass that materialises the (queries x samples x dim) difference
    tensor of every sample block.
    """
    b, dim = est.bandwidth, est.dim
    scale = 1.0 / (est.count * est._normalizer * b**dim)
    block = max(1, _BLOCK_ELEMENTS // max(1, x.shape[0]))
    rows = _rows_in_support(est, x)
    q = x if rows is None else x[rows]
    profile = _PROFILES[est.kernel.kind]
    width = min(block, est.count)
    tile = max(1, _TILE_ELEMENTS // width)
    # Flat buffers, reshaped per tile and block, keep every operand C-contiguous.
    u_buf = np.empty(tile * width)
    if dim > 1:
        diff_buf = np.empty(u_buf.size * dim)
    values = np.empty(q.shape[0])
    for first in range(0, q.shape[0], tile):
        qt = q[first : first + tile]
        acc = np.zeros(qt.shape[0])
        for start in range(0, est.count, block):
            chunk = est.points[start : start + block]
            shape = (qt.shape[0], chunk.shape[0])
            u = u_buf[: shape[0] * shape[1]].reshape(shape)
            if dim == 1:  # diff * diff equals the one-term einsum bit for bit
                np.subtract(qt, chunk[:, 0], out=u)
                np.multiply(u, u, out=u)
            else:
                diff = diff_buf[: u.size * dim].reshape(*shape, dim)
                np.subtract(qt[:, None, :], chunk[None, :, :], out=diff)
                np.einsum("qjk,qjk->qj", diff, diff, out=u)
            np.sqrt(u, out=u)
            np.divide(u, b, out=u)
            profile(u)
            acc += u.sum(axis=1)
        np.multiply(acc, scale, out=values[first : first + tile])
    if rows is None:
        return values
    out = np.zeros(x.shape[0])
    out[rows] = values
    return out


def _eval_compact_1d(est: DensityEstimate, x: np.ndarray) -> np.ndarray:
    # Window sums over sorted sample prefix sums; exact for compact kernels.
    pts = est._sorted_1d
    b = est.bandwidth
    q = x[:, 0]
    lo = np.searchsorted(pts, q - b, side="left")
    hi = np.searchsorted(pts, q + b, side="right")
    w = (hi - lo).astype(float)
    scale = 1.0 / (est.count * est._normalizer * b)
    if est.kernel.kind == "boxcar":
        return 0.5 * w * scale
    centered = pts - est._center_1d
    y = q - est._center_1d
    s1 = np.concatenate(([0.0], np.cumsum(centered)))
    s2 = np.concatenate(([0.0], np.cumsum(centered * centered)))
    sum1 = s1[hi] - s1[lo]
    sum2 = s2[hi] - s2[lo]
    # sum over window of (1 - (q - X_j)^2 / b^2), expanded around the center
    acc = w - (y * y * w - 2.0 * y * sum1 + sum2) / (b * b)
    return 0.75 * np.maximum(acc, 0.0) * scale


def kde_eval_many(est: DensityEstimate, x) -> np.ndarray:
    """Evaluate the estimate at an (m, dim) array of query points."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] != est.dim:
        raise ValueError(f"query points must have dimension {est.dim}")
    if not np.isfinite(x).all():
        raise ValueError("query points contain non-finite values (nan or inf)")
    if est.dim == 1 and est.kernel.kind in ("boxcar", "epanechnikov"):
        return _eval_compact_1d(est, x)
    return _eval_dense(est, x)


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
    pts = _as_points(samples)
    n, k = pts.shape
    if n < 2:
        raise ValueError("bandwidth selection needs at least 2 samples")
    sigma = float(pts.std(axis=0, ddof=0).mean())
    return plug_in_bandwidth(sigma, n, k)


def kde_fit(samples, kernel: KernelSpec) -> DensityEstimate:
    """Density estimate of the samples at their plug-in bandwidth."""
    return kde_build(samples, select_bandwidth(samples), kernel)
