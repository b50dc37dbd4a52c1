"""Synthetic distribution-over-distributions worlds with known geometry.

A world draws location parameters uniformly from a box in R^d, so the
measure over members has doubling dimension exactly d in the box interior.
Member distributions are uniform boxes or isotropic gaussians at the drawn
location.  Distances between members are an explicit function of their
parameters, which gives a ground-truth metric for every check downstream.

Metric conventions:
  - parameter distance uses the sup norm, so ball masses over the uniform
    box measure have closed forms (products of clipped interval lengths);
  - true_distance scales parameter distance by distance_scale; construction
    enforces scaled box diameter <= 1, so every member has all meta mass
    within distance 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetaDistribution",
    "DistributionHandle",
    "make_box_meta",
    "draw_distribution",
    "draw_samples",
    "oracle_label",
    "true_distance",
    "ball_mass",
]

_FAMILIES = ("uniform_location", "gaussian_location")
_LABEL_FNS = ("coordinate_sum", "euclidean_norm")


@dataclass(frozen=True)
class MetaDistribution:
    """Uniform measure over location parameters in the box [lo, hi].

    family        member shape: uniform box or isotropic gaussian.
    base_width    member width (uniform) or standard deviation (gaussian).
    label_fn      base regression function applied to the parameter vector.
    lipschitz_const  multiplier on the base function; equals the label's
                  Lipschitz constant in the parameter 1-norm for both
                  built-in base functions.
    distance_scale   factor mapping sup-norm parameter distance to the
                  distance used throughout (true_distance, ball radii).
    """

    family: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    base_width: float
    label_fn: str
    lipschitz_const: float
    distance_scale: float

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family: {self.family!r}")
        if self.label_fn not in _LABEL_FNS:
            raise ValueError(f"unknown label_fn: {self.label_fn!r}")
        if len(lo) != len(hi) or len(lo) < 1:
            raise ValueError("lo and hi must be equal-length, dim >= 1")
        if not all(-np.inf < a <= b < np.inf for a, b in zip(lo, hi)):
            raise ValueError("parameter box requires finite lo <= hi componentwise")
        if not self.base_width > 0:
            raise ValueError("base_width must be positive")
        if not self.lipschitz_const > 0:
            raise ValueError("lipschitz_const must be positive")
        if not self.distance_scale > 0:
            raise ValueError("distance_scale must be positive")
        diameter = self.distance_scale * max(b - a for a, b in zip(lo, hi))
        if diameter > 1.0 + 1e-9:
            raise ValueError(
                f"scaled parameter diameter {diameter:.6g} exceeds 1; "
                "shrink the box or distance_scale"
            )

    @property
    def dim(self) -> int:
        return len(self.lo)

    def center(self) -> "DistributionHandle":
        return DistributionHandle(
            theta=tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))
        )


@dataclass(frozen=True)
class DistributionHandle:
    """Location parameter of one drawn member."""

    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "theta", tuple(float(v) for v in np.atleast_1d(self.theta))
        )


def make_box_meta(
    dim: int,
    family: str = "uniform_location",
    lo: float = 0.0,
    hi: float = 1.0,
    base_width: float = 2.0,
    label_fn: str = "coordinate_sum",
    lipschitz_const: float = 1.0,
    distance_scale: float = 1.0,
) -> MetaDistribution:
    """Meta-distribution on the cube [lo, hi]^dim.

    The defaults give the canonical 1D test world: unit parameter interval,
    width-2 uniform members, identity label.  There the sup-norm parameter
    distance equals the exact L1 distance between members.
    """
    return MetaDistribution(
        family=family,
        lo=(lo,) * dim,
        hi=(hi,) * dim,
        base_width=base_width,
        label_fn=label_fn,
        lipschitz_const=lipschitz_const,
        distance_scale=distance_scale,
    )


def _check_handle(meta: MetaDistribution, handle: DistributionHandle) -> np.ndarray:
    theta = np.asarray(handle.theta, dtype=float)
    lo, hi = np.asarray(meta.lo), np.asarray(meta.hi)
    if theta.shape != lo.shape or np.any(theta < lo - 1e-9) or np.any(theta > hi + 1e-9):
        raise ValueError(f"handle {handle.theta} does not belong to this meta-distribution")
    return theta


def draw_distribution(meta: MetaDistribution, rng: np.random.Generator) -> DistributionHandle:
    """Draw one member location uniformly from the parameter box."""
    theta = rng.uniform(meta.lo, meta.hi)
    return DistributionHandle(theta=tuple(np.atleast_1d(theta)))


def draw_thetas(meta: MetaDistribution, size, rng: np.random.Generator) -> np.ndarray:
    """Vectorized member locations with shape (*size, dim)."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    return rng.uniform(meta.lo, meta.hi, size=shape + (meta.dim,))


def draw_samples(
    meta: MetaDistribution,
    handle: DistributionHandle,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n i.i.d. points from the member at handle, as an (n, dim) array."""
    if n < 1:
        raise ValueError("n must be >= 1")
    theta = _check_handle(meta, handle)
    w = meta.base_width
    if meta.family == "uniform_location":
        return rng.uniform(theta - w / 2.0, theta + w / 2.0, size=(n, meta.dim))
    return theta + w * rng.standard_normal((n, meta.dim))


def oracle_label(meta: MetaDistribution, handle: DistributionHandle) -> float:
    """Regression value of the member at handle.

    Both base functions are 1-Lipschitz in the parameter 1-norm, so the
    label is lipschitz_const-Lipschitz in that norm.
    """
    theta = _check_handle(meta, handle)
    if meta.label_fn == "coordinate_sum":
        base = float(theta.sum())
    else:
        base = float(np.linalg.norm(theta))
    return meta.lipschitz_const * base


def true_distance(
    meta: MetaDistribution, h1: DistributionHandle, h2: DistributionHandle
) -> float:
    """Scaled sup-norm distance between two members' parameters.

    For 1D width-w uniform members with distance_scale = 2/w this equals the
    exact L1 distance between the member densities (shifts up to w).
    """
    t1 = _check_handle(meta, h1)
    t2 = _check_handle(meta, h2)
    return meta.distance_scale * float(np.max(np.abs(t1 - t2)))


def sup_distances(meta: MetaDistribution, thetas: np.ndarray, s: DistributionHandle) -> np.ndarray:
    """true_distance from each row of thetas (..., dim) to the fixed handle s."""
    center = _check_handle(meta, s)
    return meta.distance_scale * np.max(np.abs(thetas - center), axis=-1)


def ball_mass(meta: MetaDistribution, s: DistributionHandle, r: float) -> float:
    """Exact meta mass of the scaled sup-norm ball B(s, r).

    Product over axes of the clipped window length divided by the side
    length; degenerate axes carry mass one.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    theta = _check_handle(meta, s)
    lo, hi = np.asarray(meta.lo), np.asarray(meta.hi)
    half = r / meta.distance_scale
    overlap = np.minimum(theta + half, hi) - np.maximum(theta - half, lo)
    side = hi - lo
    mass = 1.0
    for o, w in zip(overlap, side):
        if w > 0:
            mass *= max(o, 0.0) / w
        # zero-width axis: the atom itself, always inside the ball
    return float(mass)
