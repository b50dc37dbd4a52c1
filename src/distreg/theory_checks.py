"""Monte Carlo and exact-arithmetic checks of the nearest-member theory.

Covers: the m^(-1/d) scaling of the expected distance from a fixed member
to the nearest of m drawn members, the constant-(2/(e-2)+1) upper bound on
that expectation, the small-ball lower bound mass(B(s, 2^-i)) >= 2^(-id),
the dyadic-sum upper bound on the expectation, and the telescoping identity
behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .meta_world import DistributionHandle, MetaDistribution, ball_mass, check_counts, draw_thetas, sup_distances

__all__ = [
    "ScalingReport",
    "SmallBallReport",
    "Lemma1Result",
    "expected_min_distance",
    "scaling_report",
    "fit_scaling_exponent",
    "theorem1_rhs_bound",
    "check_small_ball_bound",
    "lemma1_rhs",
    "lemma1_sums",
    "dyadic_weights",
    "dyadic_expectation_check",
    "telescoping_sums",
]

# Drawn values per trial block: each of a block's three float64 temporaries
# (the draw, the difference from s and its absolute value) stays at 8 MB.
_CHUNK_ELEMENTS = 2**20


@dataclass(frozen=True)
class ScalingReport:
    """Mean nearest-member distance per m, with the fitted log-log slope."""

    m_values: tuple[int, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    slope: float
    d: float

    def __post_init__(self):
        if not (len(self.m_values) == len(self.means) == len(self.stderrs)) or len(self.means) < 2:
            raise ValueError("report needs equal-length sequences of length >= 2")
        if any(s < 0 for s in self.stderrs):
            raise ValueError("stderrs must be nonnegative")


@dataclass(frozen=True)
class SmallBallReport:
    """Empirical vs guaranteed mass of shrinking dyadic balls around s."""

    radii: tuple[float, ...]
    empirical_mass: tuple[float, ...]
    bound: tuple[float, ...]
    exact_mass: tuple[float, ...]
    stderr: tuple[float, ...]
    holds: tuple[bool, ...]


class Lemma1Result(NamedTuple):
    lhs: float
    rhs: float
    stderr: float
    holds: bool


def _min_distances(
    meta: MetaDistribution,
    s: DistributionHandle,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-trial distance from s to the nearest of m freshly drawn members.

    Blocks split at whole trials, so the draws and the result do not depend on
    the block size.
    """
    out = np.empty(trials)
    block = max(1, _CHUNK_ELEMENTS // (m * meta.dim))
    for first in range(0, trials, block):
        thetas = draw_thetas(meta, (min(block, trials - first), m), rng)
        out[first : first + block] = sup_distances(meta, thetas, s).min(axis=1)
    return out


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; the error of a single value is 0."""
    n = values.size
    return float(values.mean()), (float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)


def expected_min_distance(
    meta: MetaDistribution,
    s: DistributionHandle,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean and stderr of the distance from s to the nearest of m draws."""
    check_counts(m=m, trials=trials)
    return _mean_stderr(_min_distances(meta, s, m, trials, rng))


def fit_scaling_exponent(m_values: Sequence[int], means: Sequence[float]) -> float:
    """Least-squares slope of log(mean) against log(m)."""
    m_values = np.asarray(m_values, dtype=float)
    means = np.asarray(means, dtype=float)
    if len(m_values) != len(means) or len(means) < 2:
        raise ValueError("need equal-length sequences of length >= 2")
    if not np.all((m_values > 0) & (m_values < np.inf)):
        raise ValueError("m values must be finite and > 0")
    if not np.all(means > 0):
        raise ValueError("means must be positive for a log-log fit")
    return float(np.polyfit(np.log(m_values), np.log(means), 1)[0])


def scaling_report(
    meta: MetaDistribution,
    s: DistributionHandle,
    m_values: Sequence[int],
    trials: int,
    rng: np.random.Generator,
) -> ScalingReport:
    means, stderrs = [], []
    for m in m_values:
        mean, stderr = expected_min_distance(meta, s, m, trials, rng)
        means.append(mean)
        stderrs.append(stderr)
    return ScalingReport(
        m_values=tuple(int(m) for m in m_values),
        means=tuple(means),
        stderrs=tuple(stderrs),
        slope=fit_scaling_exponent(m_values, means),
        d=float(meta.dim),
    )


def theorem1_rhs_bound(d: float, m: int) -> float:
    """Upper bound (2/(e-2) + 1) * m^(-1/d) on the expected nearest-draw distance."""
    if not d >= 1:
        raise ValueError("d must be >= 1")
    check_counts(m=m)
    return (2.0 / (math.e - 2.0) + 1.0) * m ** (-1.0 / d)


def check_small_ball_bound(
    meta: MetaDistribution,
    s: DistributionHandle,
    i_max: int,
    trials: int,
    rng: np.random.Generator,
) -> SmallBallReport:
    """Empirical mass of B(s, 2^-i) for i = 0..i_max vs the 2^(-id) guarantee.

    holds[i] allows a 3-sigma binomial band around the exact mass, which the
    box geometry provides in closed form.
    """
    check_counts(i_max=i_max, trials=trials)
    i = np.arange(i_max + 1)
    radii = 2.0**-i
    empirical = (_min_distances(meta, s, 1, trials, rng)[:, None] <= radii).mean(axis=0)
    exact = np.array([ball_mass(meta, s, r) for r in radii.tolist()])
    stderr = np.sqrt(exact * (1.0 - exact) / trials)
    bound = 2.0 ** (-i * meta.dim)
    columns = radii, empirical, bound, exact, stderr, empirical >= bound - 3.0 * stderr
    return SmallBallReport(*(tuple(c.tolist()) for c in columns))


def lemma1_rhs(d: float, m: int, i_max: int) -> float:
    """Sum of 2^-i * ((1 - 2^(-(i+1)d))^m - (1 - 2^(-id))^m) for i = 0..i_max."""
    if not d >= 1:
        raise ValueError("d must be >= 1")
    check_counts(m=m, i_max=i_max)
    total = 0.0
    for i in range(i_max + 1):
        inner = (1.0 - 2.0 ** (-(i + 1) * d)) ** m - (1.0 - 2.0 ** (-i * d)) ** m
        total += 2.0**-i * inner
    return total


def dyadic_weights(t: np.ndarray, i_max: int | None = None) -> np.ndarray:
    """Map each t in [0, 1] to 2^-i where t lies in (2^-(i+1), 2^-i]; zero at t = 0.

    frexp gives the bucket exactly, including right endpoints and subnormal
    inputs, so weight >= t holds without floating slop.  Buckets past i_max
    (when given) get weight zero, matching a truncated dyadic sum.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t <= 1)):
        raise ValueError("samples must lie in [0, 1]")
    mant, expo = np.frexp(t)
    idx = np.where(mant == 0.5, 1 - expo, -expo)
    weights = np.ldexp(1.0, -idx)
    weights = np.where(t == 0.0, 0.0, weights)
    if i_max is not None:
        weights = np.where(idx > i_max, 0.0, weights)
    return weights


def lemma1_sums(
    meta: MetaDistribution,
    s: DistributionHandle,
    m: int,
    i_max: int,
    trials: int,
    rng: np.random.Generator,
) -> Lemma1Result:
    """Monte Carlo dyadic sum of nearest-draw distances vs its exact upper bound.

    lhs averages the dyadic bucket weight of each trial's min distance; rhs is the
    closed-form dominating sum at the world's dimension meta.dim.  holds allows 3 sigma
    of Monte Carlo noise on the lhs.  The caller should pick i_max with 2^-i_max below
    the tolerance it cares about (the truncated tail is that small).
    """
    check_counts(m=m, i_max=i_max, trials=trials)
    dists = _min_distances(meta, s, m, trials, rng)
    weights = dyadic_weights(np.clip(dists, 0.0, 1.0), i_max=i_max)
    lhs, stderr = _mean_stderr(weights)
    rhs = lemma1_rhs(meta.dim, m, i_max)
    return Lemma1Result(lhs=lhs, rhs=rhs, stderr=stderr, holds=lhs <= rhs + 3.0 * stderr)


def dyadic_expectation_check(samples: Sequence[float]) -> tuple[float, float]:
    """Sample mean alongside the dyadic-bucket weighted sum that dominates it.

    For samples in [0, 1]: mean <= dyadic_sum <= 2 * mean, since each t in
    bucket i satisfies 2^-(i+1) < t <= 2^-i (zeros carry weight zero).
    """
    t = np.asarray(samples, dtype=float)
    weights = dyadic_weights(t)
    return float(t.mean()), float(weights.mean())


def telescoping_sums(d: int, m: int, i: int) -> tuple[Fraction, Fraction]:
    """Partial telescoping sum and its closed form, in exact rationals.

    Returns (sum over j=1..i of ((1 - 2^(-jd))^m - (1 - 2^(-(j-1)d))^m),
    (1 - 2^(-id))^m); the two are equal exactly.
    """
    check_counts(d=d, m=m, i=i)
    d = int(d)

    def term(j: int) -> Fraction:
        return (1 - Fraction(1, 2 ** (j * d))) ** m

    partial = sum((term(j) - term(j - 1) for j in range(1, i + 1)), Fraction(0))
    return partial, term(i)
