"""Deterministic and probabilistic verification of ensemble forecasts.

All metrics operate on a :class:`VerificationSet`, a flat collection of
(ensemble, observation) pairs with their lead times. Everything here is a
pure function of the set (plus a seed where randomization is defined), so
computations can run per lead in parallel with deterministic aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

N_BOOT = 1000  # bootstrap resamples per spread-error bin


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
        return np.unique(self.lead_s)


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
    among the tied positions with a seeded generator. The missing rate
    error compares envelope misses with the exchangeable expectation:

        MRE = (count[1] + count[M+1]) / N - 2 / (M + 1)

    Negative MRE marks over-dispersive ensembles, positive under-dispersive.
    """
    rng = np.random.default_rng(seed)
    m = vset.m
    counts = np.zeros(m + 1, dtype=np.int64)
    n_less = np.sum(vset.members < vset.observations[:, None], axis=1)
    n_tied = np.sum(vset.members == vset.observations[:, None], axis=1)
    for lo, ties in zip(n_less, n_tied):
        rank = int(lo) + 1 if ties == 0 else int(lo) + 1 + int(rng.integers(int(ties) + 1))
        counts[rank - 1] += 1
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
                rmse_lo=float(np.percentile(boot, 5.0)),
                rmse_hi=float(np.percentile(boot, 95.0)),
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


def error_interval_rmse(
    vset: VerificationSet, baseline_errors: np.ndarray, edges: list[float]
) -> tuple[list[IntervalStat], int]:
    """RMSE of the ensemble mean grouped by baseline error magnitude.

    ``edges`` define half-open intervals [e0, e1), [e1, e2), ..., with the
    last interval open-ended. Pairs with missing (NaN) baseline error are
    excluded; the exclusion count is returned alongside the groups. Empty
    groups report count 0 and no rmse.
    """
    baseline_errors = np.asarray(baseline_errors, dtype=float)
    if baseline_errors.shape != (vset.n_pairs,):
        raise ValueError("one baseline error per pair required")
    if len(edges) < 1:
        raise ValueError("at least one interval edge required")
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
    brier_threshold: float
    n_pairs: int


def build_report(
    vset: VerificationSet,
    brier_threshold: float,
    n_spread_bins: int = 5,
    seed: int = 0,
) -> VerificationReport:
    """Standard report: bias, rmse, crps, mre, brier per lead and overall."""

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
    n_bins = min(n_spread_bins, vset.n_pairs)
    return VerificationReport(
        per_lead=per_lead,
        aggregate=aggregate,
        rank_counts=counts,
        spread_bins=spread_error(vset, n_bins, seed=seed),
        brier_threshold=brier_threshold,
        n_pairs=vset.n_pairs,
    )
