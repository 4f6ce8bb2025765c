"""Weighted-Euclidean dissimilarity between forecast windows.

The score between a target window F and a candidate window A is

    sum_i (w_i / sigma_i) * sqrt(sum_j (F[i, j] - A[i, j])^2)

summed over variables i and window positions j. Variables with sigma 0 are
skipped (contribute 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .archive import ForecastWindow

@dataclass(frozen=True)
class MetricConfig:
    """Weights, climatological sigmas, and window half-width for the metric."""

    weights: np.ndarray  # dimensionless, >= 0, at least one > 0
    sigma: np.ndarray  # same physical units as each variable
    t_half: int
    coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sigma", sigma)
        if weights.shape != sigma.shape or weights.ndim != 1:
            raise ValueError(
                f"weights {weights.shape} and sigma {sigma.shape} must be equal-length vectors"
            )
        if not np.all((weights >= 0) & (weights < np.inf)):  # NaN fails too
            raise ValueError("weights must be finite and nonnegative")
        if not np.any(weights > 0):
            raise ValueError("at least one weight must be positive")
        if self.t_half < 0:
            raise ValueError("t_half must be nonnegative")
        coef = np.where(sigma > 0, weights / np.where(sigma > 0, sigma, 1.0), 0.0)
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_variables(self) -> int:
        return self.weights.size

    @property
    def width(self) -> int:
        return 2 * self.t_half + 1


def dissimilarity(target: ForecastWindow, candidate: ForecastWindow, cfg: MetricConfig) -> float:
    """Dissimilarity score between two windows under a metric config.

    Symmetric, nonnegative, and zero for identical windows. Both windows
    must have shape [cfg.n_variables, 2*cfg.t_half + 1].
    """
    expected = (cfg.n_variables, cfg.width)
    if target.data.shape != expected:
        raise ValueError(f"target window shape {target.data.shape}, config expects {expected}")
    if candidate.data.shape != expected:
        raise ValueError(
            f"candidate window shape {candidate.data.shape}, config expects {expected}"
        )
    diff = target.data - candidate.data
    return float(cfg.coefficients @ np.sqrt(np.sum(diff * diff, axis=-1)))


def block_dissimilarity(target: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Per-variable distances of many candidate windows to one target.

    ``candidates`` is feature-major, [width, n_variables, n]: each (window
    position, variable) holds one row over the n candidates, so every
    operation here is a vector operation over the candidates. Returns the
    distances sqrt(sum_j (F[i, j] - A[i, j])^2) as a C-contiguous
    [n, n_variables] array, each with the bits of a sum along its window. No
    weight or sigma enters them, so one target's distances serve every
    config: its scores are ``distances @ cfg.coefficients``, with
    :func:`dissimilarity`'s value.
    """
    if target.ndim != 2 or candidates.ndim != 3 or candidates.shape[:2] != target.T.shape:
        raise ValueError(f"candidate block shape {candidates.shape} does not match "
                         f"target window shape {target.shape}")
    d = candidates - target.T[:, :, None]
    d *= d
    return np.sqrt(pairwise_sum(d)).T.copy()


def pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, in the order ``np.sum`` adds a contiguous row.

    numpy sums a row of fewer than 8 terms in sequence; up to 128 terms in 8
    interleaved partial sums, combined pairwise, then the remainder in
    sequence; and a longer row in two halves, recursively. Adding whole
    slices of ``terms`` in that order gives, element for element, the bits
    of ``np.sum`` along the last axis of the transposed array, with vector
    adds as long as the trailing axes. ``terms`` must not be empty.
    """
    k = len(terms)
    # "+ 0.0" rather than a copy: np.sum starts from 0.0, which turns a sum
    # of negative zeros into 0.0
    if k < 8:
        total = terms[0] + 0.0
        for term in terms[1:]:
            total += term
        return total
    if k <= 128:
        r = terms[:8] + 0.0
        end = k - k % 8
        for i in range(8, end, 8):
            r += terms[i : i + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in terms[end:]:
            total += term
        return total
    half = k // 2 - (k // 2) % 8
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])
