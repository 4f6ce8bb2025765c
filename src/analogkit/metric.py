"""Weighted-Euclidean dissimilarity between forecast windows.

The score between a target window F and a candidate window A is

    sum_i (w_i / sigma_i) * sqrt(sum_j (F[i, j] - A[i, j])^2)

summed over variables i and window positions j. Variables with sigma 0 are
skipped (contribute 0); their count is exposed on the config so callers can
report constant predictors.
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

    @property
    def zero_sigma_count(self) -> int:
        """Number of variables skipped because their sigma is zero."""
        return int(np.sum(self.sigma == 0))


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
    return float(cfg.coefficients @ _per_variable_distance(target.data, candidate.data))


def _per_variable_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a - b
    return np.sqrt(np.sum(diff * diff, axis=-1))


def block_dissimilarity(
    target: np.ndarray, candidates: np.ndarray, cfg: MetricConfig
) -> np.ndarray:
    """Scores of many candidate windows [n, n_variables, width] against one target."""
    if target.shape != (cfg.n_variables, cfg.width):
        raise ValueError(f"target window shape {target.shape}, config expects "
                         f"{(cfg.n_variables, cfg.width)}")
    if candidates.ndim != 3 or candidates.shape[1:] != target.shape:
        raise ValueError(f"candidate block shape {candidates.shape} does not match target")
    per_var = _per_variable_distance(candidates, target[None, :, :])  # [n, n_var]
    return per_var @ cfg.coefficients
