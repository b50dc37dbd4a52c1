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

from .meta_world import DistributionHandle, MetaDistribution, ball_mass, check_counts, check_positive
from .meta_world import draw_thetas, real_array, sup_distances

__all__ = [
    "SmallBallReport",
    "Lemma1Result",
    "expected_min_distance",
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
class SmallBallReport:
    """Empirical vs guaranteed mass of shrinking dyadic balls around s."""

    radii: tuple[float, ...]
    empirical_mass: tuple[float, ...]
    bound: tuple[float, ...]
    exact_mass: tuple[float, ...]
    stderr: tuple[float, ...]
    holds: tuple[bool, ...]
    p_value: tuple[float, ...]  # exact two-sided binomial tail of each row's hit count


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
    """Least-squares slope of log(mean) against log(m), over at least two distinct m."""
    m_values = real_array(m_values, "m values")
    means = real_array(means, "means")
    if len(m_values) != len(means) or len(means) < 2:
        raise ValueError("need equal-length sequences of length >= 2")
    if not np.all((m_values > 0) & (m_values < np.inf)):
        raise ValueError("m values must be finite and > 0")
    if m_values.min() == m_values.max():
        raise ValueError("a slope needs at least two distinct m values")
    if not np.all((means > 0) & (means < np.inf)):
        raise ValueError("means must be finite and > 0 for a log-log fit")
    return float(np.polyfit(np.log(m_values), np.log(means), 1)[0])


def theorem1_rhs_bound(d: float, m: int) -> float:
    """Upper bound (2/(e-2) + 1) * m^(-1/d) on the expected nearest-draw distance."""
    check_positive(d=d)
    if d < 1:
        raise ValueError("d must be >= 1")
    check_counts(m=m)
    return (2.0 / (math.e - 2.0) + 1.0) * m ** (-1.0 / d)


def _two_sided_binomial_p(hits: np.ndarray, trials: int, mass: np.ndarray) -> np.ndarray:
    """2 * min(P(X <= k), P(X >= k)) for X ~ Binomial(trials, p), capped at 1, per (k, p) pair.

    Exact summed tails, not a normal band, so a row that expects only a hit or two is
    tested at its stated level.  A mass of 0 or 1 admits one count: p is 1 there, else 0.
    """
    j = np.arange(trials + 1.0)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((trials - j[:-1]) / j[1:]))))
    out = np.empty(len(hits))
    for row, (k, p) in enumerate(zip(hits.tolist(), mass.tolist())):
        if p in (0.0, 1.0):
            out[row] = float(k == p * trials)
            continue
        pmf = np.exp(log_choose + j * math.log(p) + (trials - j) * math.log1p(-p))
        out[row] = min(1.0, 2.0 * min(pmf[: k + 1].sum(), pmf[k:].sum()))
    return out


def check_small_ball_bound(
    meta: MetaDistribution,
    s: DistributionHandle,
    i_max: int,
    trials: int,
    rng: np.random.Generator,
) -> SmallBallReport:
    """Empirical mass of B(s, 2^-i) for i = 0..i_max vs the 2^(-id) guarantee.

    holds[i] allows a 3-sigma binomial band around the exact mass, which the box geometry
    provides in closed form; p_value[i] is the exact binomial tail of the hit count at that mass.
    """
    check_counts(i_max=i_max, trials=trials)
    i = np.arange(i_max + 1)
    radii = 2.0**-i
    hits = (_min_distances(meta, s, 1, trials, rng)[:, None] <= radii).sum(axis=0)
    empirical = hits / trials
    exact = np.array([ball_mass(meta, s, r) for r in radii.tolist()])
    stderr = np.sqrt(exact * (1.0 - exact) / trials)
    bound = 2.0 ** (-i * meta.dim)
    holds = empirical >= bound - 3.0 * stderr
    columns = radii, empirical, bound, exact, stderr, holds, _two_sided_binomial_p(hits, trials, exact)
    return SmallBallReport(*(tuple(c.tolist()) for c in columns))


def lemma1_rhs(d: float, m: int, i_max: int) -> float:
    """Sum of 2^-i * ((1 - 2^(-(i+1)d))^m - (1 - 2^(-id))^m) for i = 0..i_max."""
    check_positive(d=d)
    if d < 1:
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
    t = real_array(t, "samples")
    if not np.all((t >= 0) & (t <= 1)):
        raise ValueError("samples must lie in [0, 1]")
    mant, expo = np.frexp(t)
    idx = np.where(mant == 0.5, 1 - expo, -expo)
    weights = np.ldexp(1.0, -idx)
    weights = np.where(t == 0.0, 0.0, weights)
    if i_max is not None:
        check_counts(0, i_max=i_max)
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
    t = real_array(samples, "samples")
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
