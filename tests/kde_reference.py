"""Slow reference for the dense kernel-density evaluation.

This is the straightforward form of ``distreg.kernels``' dense path: the
profile formulas written with ``np.where`` and one (queries x samples x dim)
difference tensor per sample block.  The library's tiled, row-skipping
evaluation must reproduce it bit for bit, so every float operation here
(and its order) is the contract.
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


def reference_eval(est, x) -> np.ndarray:
    """Density at every row of the (m, dim) array x, summed over blocks of samples."""
    x = np.asarray(x, dtype=float)
    b = est.bandwidth
    scale = 1.0 / (est.count * reference_normalizer(est.kernel.kind, est.dim) * b**est.dim)
    out = np.zeros(x.shape[0])
    block = max(1, kernels._BLOCK_ELEMENTS // max(1, x.shape[0]))
    for start in range(0, est.count, block):
        chunk = est.points[start : start + block]
        diff = x[:, None, :] - chunk[None, :, :]
        u = np.sqrt(np.einsum("qjk,qjk->qj", diff, diff)) / b
        out += reference_profile(est.kernel.kind, u).sum(axis=1)
    return out * scale
