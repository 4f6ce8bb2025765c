"""Deterministic and probabilistic verification of ensemble forecasts.

All metrics operate on a :class:`VerificationSet`, a flat collection of
(ensemble, observation) pairs with their lead times. Everything here is a
pure function of the set (plus a seed where randomization is defined), so
computations can run per lead in parallel with deterministic aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .archive import sorted_distinct
from .errors import DataError

N_BOOT = 1000  # bootstrap resamples per spread-error bin
SPREAD_BINS = 5  # spread-error bins of a report, fewer only with fewer pairs
BRIER_QUANTILE = 0.75  # the Brier event: above this quantile of the observations


def quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)``, linear interpolation, of a nonempty 1-D
    float array, bit for bit: numpy's partition of a copy, then its lerp,
    but not the plain ``np.unique`` through which numpy 2.4 imports
    ``numpy.ma``."""
    arr = np.array(values, dtype=float)
    n = len(arr)
    virtual = (n - 1) * q
    lo = -1 if virtual >= n - 1 else math.floor(virtual)
    hi = -1 if lo == -1 else lo + 1
    arr.partition(sorted_distinct(np.array([0, -1, lo, hi])))
    if np.isnan(arr[-1]):
        return float(arr[-1])
    a, b, t = float(arr[lo]), float(arr[hi]), virtual - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


@dataclass(frozen=True)
class VerificationSet:
    """Paired ensembles and observations, with per-pair lead times."""

    members: np.ndarray  # [n_pairs, m]
    observations: np.ndarray  # [n_pairs]
    lead_s: np.ndarray  # [n_pairs] second offsets

    def __post_init__(self):
        if self.members.ndim != 2:
            raise ValueError("members must be [n_pairs, m]")
        n = self.members.shape[0]
        if self.observations.shape != (n,) or self.lead_s.shape != (n,):
            raise ValueError("observations and lead_s must have one entry per pair")
        if n == 0:
            raise DataError("empty verification set")
        if not np.isfinite(self.observations).all():
            raise ValueError("every pair needs a non-missing observation")
        if not np.isfinite(self.members).all():
            raise ValueError("ensemble members must be finite")

    @property
    def n_pairs(self) -> int:
        return self.members.shape[0]

    @property
    def m(self) -> int:
        return self.members.shape[1]

    def subset(self, mask: np.ndarray) -> "VerificationSet":
        return VerificationSet(
            members=self.members[mask],
            observations=self.observations[mask],
            lead_s=self.lead_s[mask],
        )

    def leads(self) -> np.ndarray:
        return sorted_distinct(self.lead_s)


def bias(vset: VerificationSet) -> float:
    """Mean of (ensemble mean - observation)."""
    return float(np.mean(vset.members.mean(axis=1) - vset.observations))


def rmse(vset: VerificationSet) -> float:
    """Root-mean-square error of the ensemble mean."""
    err = vset.members.mean(axis=1) - vset.observations
    return float(np.sqrt(np.mean(err * err)))


def crps(vset: VerificationSet) -> float:
    """Mean continuous ranked probability score (empirical-CDF estimator).

    Per pair: mean |x_i - y| minus half the mean absolute member-member
    difference (all M^2 ordered pairs). For M = 1 this reduces exactly to
    the absolute error.
    """
    x = np.sort(vset.members, axis=1)
    y = vset.observations[:, None]
    m = vset.m
    term1 = np.mean(np.abs(x - y), axis=1)
    # sum_{i,j} |x_i - x_j| over sorted values: 2 * sum_k (2k - m + 1) x_(k)
    k = np.arange(m)
    pairsum = 2.0 * np.sum((2 * k - m + 1) * x, axis=1)
    term2 = pairsum / (2.0 * m * m)
    return float(np.mean(term1 - term2))


def crps_single(members: np.ndarray, obs: float) -> float:
    """CRPS of a single (ensemble, observation) pair."""
    members = np.asarray(members, dtype=float).reshape(1, -1)
    return crps(
        VerificationSet(
            members=members,
            observations=np.array([obs], dtype=float),
            lead_s=np.zeros(1, dtype=np.int64),
        )
    )


def rank_histogram(vset: VerificationSet, seed: int = 0) -> tuple[np.ndarray, float]:
    """Observation ranks among sorted members, plus the missing rate error.

    Rank r (1-based) means the observation falls between sorted members
    r-1 and r; rank 1 is below all members, rank M+1 above all. Ties
    between the observation and members are placed uniformly at random
    among the tied positions with a seeded generator, one draw per pair
    with a tie, in pair order. The missing rate error compares envelope
    misses with the exchangeable expectation:

        MRE = (count[1] + count[M+1]) / N - 2 / (M + 1)

    Negative MRE marks over-dispersive ensembles, positive under-dispersive.
    """
    rng = np.random.default_rng(seed)
    m = vset.m
    rank = np.sum(vset.members < vset.observations[:, None], axis=1)  # 0-based
    ties = np.sum(vset.members == vset.observations[:, None], axis=1)
    tied = ties > 0
    # one bound per element draws what successive scalar calls draw
    rank[tied] += rng.integers(ties[tied] + 1)
    counts = np.bincount(rank, minlength=m + 1)
    mre = float((counts[0] + counts[-1]) / vset.n_pairs - 2.0 / (m + 1))
    return counts, mre


@dataclass(frozen=True)
class SpreadErrorBin:
    mean_spread: float
    rmse: float
    rmse_lo: float  # 90% bootstrap interval on the rmse
    rmse_hi: float
    count: int


def spread_error(vset: VerificationSet, n_bins: int, seed: int = 0) -> list[SpreadErrorBin]:
    """Binned spread-error relationship.

    Pairs are sorted by ensemble spread (sample standard deviation of the
    members) and split into ``n_bins`` equal-population bins. Each bin
    reports the mean spread, the rmse of the ensemble mean, and a seeded
    bootstrap 90% interval on that rmse from ``N_BOOT`` (1,000) resamples.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if vset.n_pairs < n_bins:
        raise DataError(f"need at least {n_bins} pairs for {n_bins} bins, have {vset.n_pairs}")
    rng = np.random.default_rng(seed)
    # a single-member ensemble has no spread
    spread = np.std(vset.members, axis=1, ddof=1) if vset.m > 1 else np.zeros(vset.n_pairs)
    err = vset.members.mean(axis=1) - vset.observations
    order = np.argsort(spread, kind="stable")
    bins = []
    for chunk in np.array_split(order, n_bins):
        e = err[chunk]
        point = float(np.sqrt(np.mean(e * e)))
        # one row per draw: the same stream as N_BOOT draws of len(e) each
        boot = e[rng.integers(len(e), size=(N_BOOT, len(e)))]
        boot *= boot
        boot = np.sqrt(np.mean(boot, axis=1))
        bins.append(
            SpreadErrorBin(
                mean_spread=float(np.mean(spread[chunk])),
                rmse=point,
                rmse_lo=quantile(boot, 0.05),
                rmse_hi=quantile(boot, 0.95),
                count=len(chunk),
            )
        )
    return bins


def brier(vset: VerificationSet, threshold: float) -> float:
    """Brier score for the event "value exceeds threshold".

    The forecast probability is the fraction of members above the
    threshold; the outcome is whether the observation exceeds it.
    """
    p = np.mean(vset.members > threshold, axis=1)
    o = (vset.observations > threshold).astype(float)
    return float(np.mean((p - o) ** 2))


@dataclass(frozen=True)
class IntervalStat:
    lo: float
    hi: float
    count: int
    rmse: float | None


def check_edges(edges) -> None:
    """``ValueError`` unless ``edges`` are one or more finite, strictly
    increasing numbers, as :func:`error_interval_rmse` and ``error_intervals`` need."""
    e = np.asarray(edges, dtype=float)
    if not (e.size and np.isfinite(e).all() and (np.diff(e) > 0).all()):
        raise ValueError(f"edges must be one or more finite, strictly increasing, got {edges}")


def error_interval_rmse(
    vset: VerificationSet, baseline_errors: np.ndarray, edges: list[float]
) -> tuple[list[IntervalStat], int]:
    """RMSE of the ensemble mean grouped by baseline error magnitude.

    ``edges`` define half-open intervals [e0, e1), [e1, e2), ..., with the
    last interval open-ended; they must pass :func:`check_edges`. Pairs
    with missing (NaN) baseline error are excluded; the exclusion count is
    returned alongside the groups. Empty groups report count 0 and no rmse.
    """
    baseline_errors = np.asarray(baseline_errors, dtype=float)
    if baseline_errors.shape != (vset.n_pairs,):
        raise ValueError("one baseline error per pair required")
    check_edges(edges)
    ok = np.isfinite(baseline_errors)
    excluded = int(np.sum(~ok))
    mag = np.abs(baseline_errors)
    err = vset.members.mean(axis=1) - vset.observations
    bounds = list(edges) + [np.inf]
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        pick = ok & (mag >= lo) & (mag < hi)
        n = int(np.sum(pick))
        group_rmse = float(np.sqrt(np.mean(err[pick] ** 2))) if n else None
        out.append(IntervalStat(lo=float(lo), hi=float(hi), count=n, rmse=group_rmse))
    return out, excluded


@dataclass(frozen=True)
class VerificationReport:
    """Per-lead and aggregate scores, ready for CSV serialization."""

    per_lead: dict[int, dict[str, float]]  # lead_s -> metric -> value
    aggregate: dict[str, float]
    rank_counts: np.ndarray
    spread_bins: list[SpreadErrorBin]


def build_report(
    vset: VerificationSet,
    brier_threshold: float,
    seed: int = 0,
) -> VerificationReport:
    """Standard report: bias, rmse, crps, mre, brier per lead and overall,
    the rank histogram and ``SPREAD_BINS`` spread-error bins (fewer pairs, fewer bins)."""

    def scores(subset: VerificationSet) -> tuple[dict[str, float], np.ndarray]:
        counts, mre = rank_histogram(subset, seed=seed)
        return {
            "bias": bias(subset),
            "rmse": rmse(subset),
            "crps": crps(subset),
            "mre": mre,
            "brier": brier(subset, brier_threshold),
        }, counts

    per_lead = {}
    for lead in vset.leads():
        per_lead[int(lead)], _ = scores(vset.subset(vset.lead_s == lead))
    aggregate, counts = scores(vset)
    return VerificationReport(
        per_lead=per_lead,
        aggregate=aggregate,
        rank_counts=counts,
        spread_bins=spread_error(vset, min(SPREAD_BINS, vset.n_pairs), seed=seed),
    )
