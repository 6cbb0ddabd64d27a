"""Acquisition functions for (constrained) Bayesian optimization.

All functions assume *minimization* of the objective.  Constrained EI
multiplies the improvement by the probability that a separately-modelled
constraint (the quality degradation f_e of §5.1) stays under its bound —
this is how Auto-HPCnet's search stays quality-aware, which the paper
credits for the BO-vs-grid efficiency gap (§7.2).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "expected_improvement",
    "lower_confidence_bound",
    "probability_of_improvement",
    "probability_feasible",
    "constrained_expected_improvement",
]

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z):
    """Standard normal density, the formula ``scipy.stats.norm.pdf`` uses."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.0
) -> np.ndarray:
    """EI for minimization: E[max(best - f - xi, 0)]."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    gap = best - mean - xi
    z = gap / std
    return gap * ndtr(z) + std * _norm_pdf(z)


def lower_confidence_bound(
    mean: np.ndarray, std: np.ndarray, kappa: float = 2.0
) -> np.ndarray:
    """LCB score (higher is better for selection): ``-(mean - kappa*std)``."""
    return -(np.asarray(mean) - kappa * np.asarray(std))


def probability_of_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.0
) -> np.ndarray:
    """P[f < best - xi]."""
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    return ndtr((best - np.asarray(mean) - xi) / std)


def probability_feasible(
    c_mean: np.ndarray, c_std: np.ndarray, threshold: float
) -> np.ndarray:
    """P[constraint <= threshold] under a Gaussian posterior."""
    c_std = np.maximum(np.asarray(c_std, dtype=np.float64), 1e-12)
    return ndtr((threshold - np.asarray(c_mean)) / c_std)


def constrained_expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best: float,
    c_mean: np.ndarray,
    c_std: np.ndarray,
    threshold: float,
    xi: float = 0.0,
) -> np.ndarray:
    """EI x P[feasible] (Gardner et al. style constrained acquisition)."""
    return expected_improvement(mean, std, best, xi) * probability_feasible(
        c_mean, c_std, threshold
    )
