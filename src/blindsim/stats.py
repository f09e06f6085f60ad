"""Counting-statistics toolkit.

Exact Poisson and binomial tail probabilities, integer-bin histograms
and exact binomial confidence intervals.  One outward walk of pmf ratios
serves both tails: it sums the far side of the mean from a log-space
anchor with compensated summation (stable up to k = 1e6) and gets a
near-side tail as its complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, require
from .units import Count, NonNegative, OpenUnit, Probability

_REL_CUTOFF = 1e-22  # stop summing once terms are this small vs the anchor
_MAX_TERMS = 2_000_000

_LOG_2PI = math.log(2.0 * math.pi)


def _stirling_corr(k: int) -> float:
    """lgamma(k+1) - (k ln k - k + 0.5 ln(2 pi k)), without cancellation."""
    if k < 16:
        return math.lgamma(k + 1) - (
            k * math.log(k) - k + 0.5 * math.log(2.0 * math.pi * k)
        )
    kk = float(k) * float(k)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * kk)) / kk) / kk) / k


def _log_poisson_pmf(mean: float, i: int) -> float:
    """log of the Poisson pmf, accurate in the bulk of large means.

    Saddle-point form i - mean + i ln(mean/i) - 0.5 ln(2 pi i) - corr(i)
    avoids the catastrophic cancellation of -mean + i ln mean - lgamma.
    """
    if i == 0:
        return -mean
    if i < 16:
        return -mean + i * math.log(mean) - math.lgamma(i + 1)
    delta = (mean - i) / i
    if abs(delta) < 0.5:
        entropy = i * math.log1p(delta)
    else:
        entropy = i * math.log(mean / i)
    return (i - mean) + entropy - 0.5 * (_LOG_2PI + math.log(i)) - _stirling_corr(i)


def _log_binomial_pmf(n: int, i: int, p: float) -> float:
    """log of the binomial pmf via the saddle-point (deviance) form."""
    if i == 0:
        return n * math.log1p(-p)
    if i == n:
        return n * math.log(p)
    if n < 16:
        return (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * math.log(p)
            + (n - i) * math.log1p(-p)
        )
    j = n - i
    corr = _stirling_corr(n) - _stirling_corr(i) - _stirling_corr(j)
    scale = 0.5 * (math.log(n) - _LOG_2PI - math.log(i) - math.log(j))

    def side(count: int, prob: float) -> float:
        # count * ln(count / (n * prob)), stable when count is near n*prob
        ratio = count / (n * prob)
        if 0.5 < ratio < 2.0:
            return count * math.log1p((count - n * prob) / (n * prob))
        return count * math.log(ratio)

    return corr + scale - side(i, p) - side(j, 1.0 - p)


def _point_mass(at: int, k: int, side: str) -> float:
    """Tail of the degenerate law that puts all its mass on ``at``."""
    return float(k >= at if side == "lower" else k <= at)


def _tail(k: int, side: str, mean: float, top: int | None, log_pmf, ratio_for) -> float:
    """P(X <= k) for side="lower", P(X >= k) for "upper", on support [0, top].

    ``ratio_for(True)`` returns the step ratio i -> pmf(i-1)/pmf(i) and
    ``ratio_for(False)`` the step ratio i -> pmf(i+1)/pmf(i); it is asked
    at most once, for the direction of a walk that takes a step.  ``top``
    is None for an unbounded support.  Only the far side of the mean is
    summed, outward from its anchor pmf where the terms shrink,
    relative to the anchor and with compensated summation; a near-side
    tail is one minus the far tail that starts next to k.
    """
    if side == "lower":
        near = k >= mean
        kk, downward = (k + 1, False) if near else (k, True)
    else:
        near = k <= mean
        kk, downward = (k - 1, True) if near else (k, False)
    inside = kk >= 0 and (top is None or kk <= top)
    anchor = math.exp(log_pmf(kk)) if inside else 0.0
    terms = [1.0]
    # an anchor that underflows leaves only terms that are smaller still
    if anchor != 0.0:
        if downward:
            indices = range(kk, max(0, kk - _MAX_TERMS), -1)
        else:
            end = kk + _MAX_TERMS if top is None else min(top, kk + _MAX_TERMS)
            indices = range(kk, end)
        ratio = ratio_for(downward) if indices else None  # none from 0 downward
        t = 1.0
        for i in indices:
            t *= ratio(i)
            if t < _REL_CUTOFF:
                break
            terms.append(t)
    far = anchor * math.fsum(terms)
    return min(1.0, max(0.0, 1.0 - far)) if near else far


# a salt verdict asks for the same few hundred tails; typed, so that
# neither True nor 3.0 finds the tail of 1 or 3
@lru_cache(maxsize=1024, typed=True)
def poisson_tail(mean: NonNegative, k: Count, side: str = "lower") -> float:
    """Exact Poisson tail: P(X <= k) for side="lower", P(X >= k) for "upper"."""
    require("mean", mean, NonNegative)
    require("k", k, Count)
    if side not in ("lower", "upper"):
        raise ValidationError("side", "must be 'lower' or 'upper'")
    if mean == 0:
        return _point_mass(0, k, side)
    return _tail(
        k, side, mean, None,
        lambda i: _log_poisson_pmf(mean, i),
        lambda downward: (lambda i: i / mean) if downward else (lambda i: mean / (i + 1)),
    )


def binomial_tail(n: Count, p: Probability, k: Count, side: str = "lower") -> float:
    """Exact binomial tail: P(X <= k) or P(X >= k) for X ~ Binomial(n, p)."""
    require("n", n, Count)
    require("p", p, Probability)
    require("k", k, Count)
    if k > n:
        raise ValidationError("k", "must lie in [0, n]")
    if side not in ("lower", "upper"):
        raise ValidationError("side", "must be 'lower' or 'upper'")
    if p == 0 or p == 1:
        return _point_mass(n * int(p), k, side)
    logit = math.log(p) - math.log1p(-p)

    def ratio_for(downward: bool):
        # the odds factor is computed once per call, and only for the
        # direction walked: exp(-logit) overflows for subnormal p
        if downward:
            odds = math.exp(-logit)
            return lambda i: i / (n - i + 1) * odds
        odds = math.exp(logit)
        return lambda i: (n - i) / (i + 1) * odds

    return _tail(
        k, side, n * p, n, lambda i: _log_binomial_pmf(n, i, p), ratio_for
    )


def clopper_pearson_interval(
    successes: Count, trials: Count, confidence: OpenUnit = 0.95
) -> tuple[float, float]:
    """Exact binomial confidence interval for a success probability.

    Each bound solves its defining tail equation by bisection on
    ``binomial_tail``: P(X >= s | low) = alpha/2 and P(X <= s | high) = alpha/2.
    """
    require("successes", successes, Count)
    require("trials", trials, Count)
    require("confidence", confidence, OpenUnit)
    if successes > trials:
        raise ValidationError("successes", "need 0 <= successes <= trials")
    tail = (1.0 - confidence) / 2

    def root(rising) -> float:
        # bisect the sign change of an increasing function of p to the last bit
        lo, hi = 0.0, 1.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return mid
            if rising(mid) < 0:
                lo = mid
            else:
                hi = mid

    low = 0.0 if successes == 0 else root(
        lambda p: binomial_tail(trials, p, successes, "upper") - tail
    )
    high = 1.0 if successes == trials else root(
        lambda p: tail - binomial_tail(trials, p, successes, "lower")
    )
    return low, high


@dataclass(frozen=True)
class Histogram:
    """Binned samples; for count histograms, unit-width integer bins."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    n_samples: int

    def __post_init__(self):
        if len(self.bin_edges) != len(self.counts) + 1:
            raise ValidationError("bin_edges", "need len(counts) + 1 edges")
        for a, b in zip(self.bin_edges, self.bin_edges[1:]):
            if not b > a:
                raise ValidationError("bin_edges", "must be strictly increasing")
        for c in self.counts:
            require("counts", c, Count)
        require("n_samples", self.n_samples, Count)
        if sum(self.counts) != self.n_samples:
            raise ValidationError("counts", "must sum to n_samples")

    @classmethod
    def from_event_counts(cls, values) -> "Histogram":
        """Unit-width integer bins covering the observed range."""
        vals = np.asarray(list(values), dtype=np.int64)
        if vals.size == 0:
            return cls(bin_edges=(0.0, 1.0), counts=(0,), n_samples=0)
        lo = int(vals.min())
        hi = int(vals.max())
        counts = np.bincount(vals - lo, minlength=hi - lo + 1)
        edges = tuple(float(v) for v in range(lo, hi + 2))
        return cls(bin_edges=edges, counts=tuple(int(c) for c in counts),
                   n_samples=int(vals.size))

    def mean(self) -> float:
        if self.n_samples == 0:
            return math.nan
        lows = np.asarray(self.bin_edges[:-1])
        counts = np.asarray(self.counts)
        return float((lows * counts).sum() / self.n_samples)

    def variance(self) -> float:
        if self.n_samples == 0:
            return math.nan
        lows = np.asarray(self.bin_edges[:-1])
        counts = np.asarray(self.counts)
        m = self.mean()
        return float((counts * (lows - m) ** 2).sum() / self.n_samples)

    def lower_tail(self, k: float) -> float:
        """Empirical P(X <= k), with X the bin-low value of each sample."""
        if self.n_samples == 0:
            return math.nan
        total = 0
        for low, c in zip(self.bin_edges[:-1], self.counts):
            if low <= k:
                total += c
        return total / self.n_samples
