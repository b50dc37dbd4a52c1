"""Slow reference for the dense kernel-density evaluation.

This is the straightforward form of ``distreg.kernels``' dense path: the
profile formulas written with ``np.where``, squared distances as the
per-axis squares added in axis order, ((d0**2 + d1**2) + d2**2), and each
query row's profile values summed over every sample at once.  The library's
tiled evaluation, on the dense and the grid path, must reproduce it bit for
bit, so every float operation here (and its order) is the contract.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from distreg import kernels

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def reference_profile(kind: str, u):
    """Radial profile at nonnegative u."""
    u = np.asarray(u, dtype=float)
    if kind == "boxcar":
        return np.where(u <= 1.0, 0.5, 0.0)
    if kind == "epanechnikov":
        return np.where(u <= 1.0, 0.75 * np.maximum(0.0, 1.0 - u * u), 0.0)
    return np.exp(-0.5 * u * u) / _SQRT_2PI


@lru_cache(maxsize=None)
def reference_normalizer(kind: str, dim: int) -> float:
    """Integral of K(||x||) over R^dim by radial quadrature of the reference profile."""
    upper = 1.0 if math.isfinite(kernels.KERNELS[kind].support_radius) else np.inf
    integral, _ = quad(lambda r: float(reference_profile(kind, r)) * r ** (dim - 1), 0.0, upper)
    sphere = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return sphere * integral


# Query rows x samples per chunk, only to bound memory: a row's sum does not
# depend on how many rows share the array.
_CHUNK_ELEMENTS = 2**20


def reference_eval(est, x) -> np.ndarray:
    """Density at every row of the (m, dim) array x, each row summed over all samples."""
    x = np.asarray(x, dtype=float)
    b = est.bandwidth
    scale = 1.0 / (est.count * reference_normalizer(est.kernel.kind, est.dim) * b**est.dim)
    out = np.empty(x.shape[0])
    rows = max(1, _CHUNK_ELEMENTS // est.count)
    for first in range(0, x.shape[0], rows):
        diff = x[first : first + rows, None, :] - est.points[None, :, :]
        squares = diff * diff
        total = squares[:, :, 0]
        for k in range(1, est.dim):
            total = total + squares[:, :, k]
        u = np.sqrt(total) / b
        out[first : first + rows] = reference_profile(est.kernel.kind, u).sum(axis=1) * scale
    return out
