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
    "kde_eval",
    "kde_eval_many",
    "select_bandwidth",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

_KINDS = ("boxcar", "epanechnikov", "gaussian")


@dataclass(frozen=True)
class KernelSpec:
    """A named radial smoothing kernel.

    kind : one of "boxcar", "epanechnikov", "gaussian".
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")

    @property
    def support_radius(self) -> float:
        """Radius beyond which the profile is exactly zero (inf for gaussian)."""
        return math.inf if self.kind == "gaussian" else 1.0

    def profile(self, u):
        """Evaluate the radial profile at nonnegative u (vectorized)."""
        u = np.asarray(u, dtype=float)
        if np.any(u < 0):
            raise ValueError("kernel argument must be nonnegative")
        if self.kind == "boxcar":
            return np.where(u <= 1.0, 0.5, 0.0)
        if self.kind == "epanechnikov":
            return np.where(u <= 1.0, 0.75 * np.maximum(0.0, 1.0 - u * u), 0.0)
        return np.exp(-0.5 * u * u) / _SQRT_2PI


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


# Cap on pairwise-block size for the dense evaluation path.
_BLOCK_ELEMENTS = 4_000_000


def _eval_dense(est: DensityEstimate, x: np.ndarray) -> np.ndarray:
    b = est.bandwidth
    scale = 1.0 / (est.count * est._normalizer * b**est.dim)
    out = np.zeros(x.shape[0])
    block = max(1, _BLOCK_ELEMENTS // max(1, x.shape[0]))
    for start in range(0, est.count, block):
        chunk = est.points[start : start + block]
        diff = x[:, None, :] - chunk[None, :, :]
        u = np.sqrt(np.einsum("qjk,qjk->qj", diff, diff)) / b
        out += est.kernel.profile(u).sum(axis=1)
    return out * scale


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
    if est.dim == 1 and est.kernel.kind in ("boxcar", "epanechnikov"):
        return _eval_compact_1d(est, x)
    return _eval_dense(est, x)


def kde_eval(est: DensityEstimate, x) -> float:
    """Evaluate the estimate at a single point of length dim."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (est.dim,):
        raise ValueError(f"query point must have length {est.dim}")
    return float(kde_eval_many(est, x[None, :])[0])


def select_bandwidth(samples, min_bandwidth: float = 1e-3) -> float:
    """Plug-in bandwidth: mean per-coordinate spread times n^(-1/(4+k)).

    Spread is the population (ddof=0) standard deviation averaged over
    coordinates, floored at min_bandwidth so degenerate samples stay usable.
    """
    pts = _as_points(samples)
    n, k = pts.shape
    if n < 2:
        raise ValueError("bandwidth selection needs at least 2 samples")
    sigma = float(pts.std(axis=0, ddof=0).mean())
    return max(sigma * n ** (-1.0 / (4 + k)), min_bandwidth)
