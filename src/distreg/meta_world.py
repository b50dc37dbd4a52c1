"""Synthetic distribution-over-distributions worlds with known geometry.

A world draws location parameters uniformly from the cube [lo, hi]^d, so the
measure over members has doubling constant 2^d in the cube interior.  The
MetaDistribution dataclass is the world and the one schema of a config's
meta mapping; make_box_meta is its public name.
Member distributions are uniform boxes or isotropic gaussians at the drawn
location.  Distances between members are an explicit function of their
parameters, which gives a ground-truth metric for every check downstream.

Metric conventions:
  - parameter distance uses the sup norm, so ball masses over the uniform
    cube measure have closed forms (products of clipped interval lengths);
  - true_distance scales parameter distance by distance_scale; construction
    enforces scaled cube diameter <= 1, so every member has all meta mass
    within distance 1.
"""

from __future__ import annotations

import math
import numbers
import sys
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
    "check_counts",
    "check_positive",
    "real_coordinates",
]

_FAMILIES = ("uniform_location", "gaussian_location")
_LABEL_FNS = ("coordinate_sum", "euclidean_norm")
_FLOAT_MAX = sys.float_info.max  # the largest finite float; an integer above it has no float


def check_counts(least: int = 1, **counts) -> None:
    """ValueError unless every count is an integer (not a bool) >= least."""
    for name, value in counts.items():
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _is_real(value) -> bool:
    """A real number that is not a bool, so it can be compared before it is converted."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def real_coordinates(value, name: str) -> tuple[float, ...]:
    """value, a real number or a flat sequence of them, as a tuple of floats; ValueError on a bool or any other entry."""
    coords = np.atleast_1d(np.asarray(value, dtype=object))
    if not all(_is_real(v) for v in coords):  # a row of a nested sequence is not a real number either
        raise ValueError(f"{name} must be a sequence of real numbers, got {value!r}")
    return tuple(float(v) for v in coords)


def check_positive(**values) -> None:
    """ValueError unless every value is a real number (not a bool) that is finite and > 0, so not nan."""
    for name, value in values.items():
        if not (_is_real(value) and 0 < value <= _FLOAT_MAX):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class MetaDistribution:
    """Uniform measure over location parameters in the cube [lo, hi]^dim.

    The defaults give the canonical 1D test world: unit parameter interval,
    width-2 uniform members, identity label.  There the sup-norm parameter
    distance equals the exact L1 distance between members.

    family        member shape: uniform box or isotropic gaussian.
    base_width    member width (uniform) or standard deviation (gaussian).
    label_fn      base regression function applied to the parameter vector.
    lipschitz_const  multiplier on the base function; equals the label's Lipschitz
                  constant in the parameter 1-norm for both built-in base functions.
                  The adaptive threshold epsilon/(3L) and draw budget 10(6L/epsilon)^dim
                  read it here, as the constant in member L1, which agrees only in 1D:
                  width-2 uniform coordinate_sum members have 4/3 in 2D and 12/7 in
                  3D, so a 2D or 3D run's epsilon is not certified.
    distance_scale   factor mapping sup-norm parameter distance to the
                  distance used throughout (true_distance, ball radii).
    """

    dim: int = 1
    family: str = "uniform_location"
    lo: float = 0.0
    hi: float = 1.0
    base_width: float = 2.0
    label_fn: str = "coordinate_sum"
    lipschitz_const: float = 1.0
    distance_scale: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family: {self.family!r}")
        if self.label_fn not in _LABEL_FNS:
            raise ValueError(f"unknown label_fn: {self.label_fn!r}")
        check_counts(dim=self.dim)
        if not (_is_real(self.lo) and _is_real(self.hi) and -_FLOAT_MAX <= self.lo <= self.hi <= _FLOAT_MAX):
            raise ValueError("parameter box requires finite lo <= hi")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        check_positive(**{key: getattr(self, key) for key in ("base_width", "lipschitz_const", "distance_scale")})
        diameter = self.distance_scale * (self.hi - self.lo)
        if diameter > 1.0 + 1e-9:
            raise ValueError(
                f"scaled parameter diameter {diameter:.6g} exceeds 1; "
                "shrink the box or distance_scale"
            )

    def center(self) -> "DistributionHandle":
        return DistributionHandle(theta=((self.lo + self.hi) / 2.0,) * self.dim)


@dataclass(frozen=True)
class DistributionHandle:
    """Location parameter of one drawn member."""

    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", real_coordinates(self.theta, "theta"))


make_box_meta = MetaDistribution  # the public name: the meta-distribution on the cube [lo, hi]^dim


def _check_handle(meta: MetaDistribution, handle: DistributionHandle) -> np.ndarray:
    theta = np.asarray(handle.theta, dtype=float)
    if theta.shape != (meta.dim,) or not np.all((theta >= meta.lo - 1e-9) & (theta <= meta.hi + 1e-9)):
        raise ValueError(f"handle {handle.theta} does not belong to this meta-distribution")
    return theta


def _uniform(rng: np.random.Generator, lo, hi, shape) -> np.ndarray:
    """Bit for bit rng.uniform(lo, hi, shape), generator state included, at a fraction of the cost."""
    lo = np.asarray(lo)
    return lo + (np.asarray(hi) - lo) * rng.random(shape)


def draw_distribution(meta: MetaDistribution, rng: np.random.Generator) -> DistributionHandle:
    """Draw one member location uniformly from the parameter cube."""
    return DistributionHandle(theta=_uniform(rng, meta.lo, meta.hi, meta.dim))


def draw_thetas(meta: MetaDistribution, size, rng: np.random.Generator) -> np.ndarray:
    """Vectorized member locations with shape (*size, dim)."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    return _uniform(rng, meta.lo, meta.hi, shape + (meta.dim,))


def draw_samples(
    meta: MetaDistribution,
    handle: DistributionHandle,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n i.i.d. points from the member at handle, as an (n, dim) array."""
    check_counts(n=n)
    theta = _check_handle(meta, handle)
    w = meta.base_width
    if meta.family == "uniform_location":
        return _uniform(rng, theta - w / 2.0, theta + w / 2.0, (n, meta.dim))
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
    return float(sup_distances(meta, _check_handle(meta, h1), h2))


def sup_distances(meta: MetaDistribution, thetas: np.ndarray, s: DistributionHandle) -> np.ndarray:
    """true_distance from each row of thetas (..., dim) to the fixed handle s."""
    center = _check_handle(meta, s)
    return meta.distance_scale * np.max(np.abs(thetas - center), axis=-1)


def ball_mass(meta: MetaDistribution, s: DistributionHandle, r: float) -> float:
    """Exact meta mass of the scaled sup-norm ball B(s, r).

    Product over axes, in order, of the clipped window length divided by the
    side length; a zero-width cube is an atom, always inside the ball.
    """
    if not (_is_real(r) and r >= 0):
        raise ValueError("radius must be nonnegative")
    theta = _check_handle(meta, s)
    side = meta.hi - meta.lo
    if side == 0:
        return 1.0
    half = r / meta.distance_scale
    overlap = np.minimum(theta + half, meta.hi) - np.maximum(theta - half, meta.lo)
    return float(math.prod(max(o, 0.0) / side for o in overlap))
