"""L1 distance between density estimates by trapezoid quadrature on a box grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import DensityEstimate, kde_eval_many
from .meta_world import check_counts, real_coordinates

__all__ = [
    "GridSpec",
    "GridCoverageError",
    "default_points_per_axis",
    "box_grid",
    "default_grid",
    "grid_values",
    "grid_integral",
    "l1_from_values",
    "l1_distance",
]

_DEFAULT_POINTS = {1: 1024, 2: 128, 3: 48}


class GridCoverageError(ValueError):
    """A compact-support estimate has mass outside the quadrature grid."""


def default_points_per_axis(dim: int) -> int:
    if dim not in _DEFAULT_POINTS:
        raise ValueError("quadrature grids support dim <= 3 only")
    return _DEFAULT_POINTS[dim]


@dataclass(frozen=True)
class GridSpec:
    """Uniform quadrature grid over the box [lo, hi], dim <= 3."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    points_per_axis: int

    def __post_init__(self):
        lo, hi = real_coordinates(self.lo, "lo"), real_coordinates(self.hi, "hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not 1 <= len(lo) <= 3:
            raise ValueError("lo and hi must have equal length, 1 <= dim <= 3")
        if not all(-math.inf < a < b < math.inf for a, b in zip(lo, hi)):
            raise ValueError("grid requires finite lo < hi componentwise")
        check_counts(2, points_per_axis=self.points_per_axis)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def axes(self) -> tuple[np.ndarray, ...]:
        """The read-only node coordinates of each axis, built once per grid; mesh() is their product."""
        return self._axes

    def mesh(self) -> np.ndarray:
        """All grid nodes as a read-only (N, dim) array in C order, built once per grid."""
        return self._mesh

    def quadrature_weights(self) -> np.ndarray:
        """Read-only composite-trapezoid node weights, flattened to match mesh()."""
        return self._weights

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(np.linspace(a, b, self.points_per_axis)) for a, b in zip(self.lo, self.hi))

    @cached_property
    def _mesh(self) -> np.ndarray:
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return _read_only(np.stack([g.ravel() for g in grids], axis=-1))

    @cached_property
    def _weights(self) -> np.ndarray:
        parts = []
        for a, b in zip(self.lo, self.hi):
            step = (b - a) / (self.points_per_axis - 1)
            w = np.full(self.points_per_axis, step)
            w[0] = w[-1] = step / 2.0
            parts.append(w)
        out = parts[0]
        for w in parts[1:]:
            out = np.multiply.outer(out, w)
        return _read_only(out.ravel())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def box_grid(lo, hi, pad: float) -> GridSpec:
    """Grid over the box [lo - pad, hi + pad] at the default points per axis."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return GridSpec(lo=tuple(lo - pad), hi=tuple(hi + pad), points_per_axis=default_points_per_axis(lo.size))


def default_grid(*estimates: DensityEstimate) -> GridSpec:
    """Union bounding box of the estimates' samples, padded by 3 bandwidths."""
    if not estimates:
        raise ValueError("default_grid needs at least one estimate")
    dim = estimates[0].dim
    if any(e.dim != dim for e in estimates):
        raise ValueError("estimates must share a dimension")
    lo = np.min([e.points.min(axis=0) for e in estimates], axis=0)
    hi = np.max([e.points.max(axis=0) for e in estimates], axis=0)
    return box_grid(lo, hi, 3.0 * max(e.bandwidth for e in estimates))


def grid_values(est: DensityEstimate, grid: GridSpec) -> np.ndarray:
    """Density at every grid node (flattened, C order); GridCoverageError if a compact support escapes."""
    if est.dim != grid.dim:
        raise ValueError("estimate and grid dimensions differ")
    if math.isfinite(est.kernel.support_radius):
        lo, hi = est.support_box()
        if np.any(lo < grid.lo) or np.any(hi > grid.hi):
            raise GridCoverageError(
                f"compact support [{lo}, {hi}] escapes grid [{grid.lo}, {grid.hi}]"
            )
    return kde_eval_many(est, grid=grid)


def grid_integral(est: DensityEstimate, grid: GridSpec) -> float:
    """Trapezoid integral of the estimate over the grid box."""
    return float(grid.quadrature_weights() @ grid_values(est, grid))


def l1_from_values(pv: np.ndarray, qv: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid integral of |pv - qv| for two grid_values arrays of the same grid."""
    weights = grid.quadrature_weights()
    if np.shape(pv) != weights.shape or np.shape(qv) != weights.shape:
        raise ValueError(f"values must have shape {weights.shape}, one per grid node")
    return float(weights @ np.abs(pv - qv))


def l1_distance(p: DensityEstimate, q: DensityEstimate, grid: GridSpec) -> float:
    """Trapezoid approximation of the integral of |p - q| over the grid box.

    Symmetric, zero on identical inputs, and bounded by 2 plus quadrature
    error for normalized densities.  Raises GridCoverageError if a
    compact-support estimate is not contained in the grid.
    """
    return l1_from_values(grid_values(p, grid), grid_values(q, grid), grid)
