"""Acquisition functions for (constrained) Bayesian optimization.

All functions assume *minimization* of the objective.  Constrained EI
multiplies the improvement by the probability that a separately-modelled
constraint (the quality degradation f_e of §5.1) stays under its bound —
this is how Auto-HPCnet's search stays quality-aware, which the paper
credits for the BO-vs-grid efficiency gap (§7.2).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "expected_improvement",
    "lower_confidence_bound",
    "probability_of_improvement",
    "probability_feasible",
    "constrained_expected_improvement",
]

_SQRT_2PI = np.sqrt(2 * np.pi)

# Cephes' ndtr.c, the code behind ``scipy.special.ndtr``: its constants and
# rational coefficients (highest degree first), evaluated in its branch and
# Horner order so every result keeps its bits.  Cephes leaves the leading 1
# of Q, S and U implicit; 1.0 * x + c is exactly x + c.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_small(x):
    """Cephes ``erf`` for ``|x| <= 1``."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc_positive(x):
    """Cephes ``erfc`` for ``x >= 1/sqrt(2)``; 0 once ``exp(-x*x)`` underflows."""
    y = np.zeros_like(x)
    small = x < 1.0
    y[small] = 1.0 - _erf_small(x[small])
    mid = ~small & (x * x <= _MAXLOG)
    xm = x[mid]
    # libm's exp, as Cephes calls it: NumPy's vectorized exp differs in
    # the last bit on some inputs
    e = np.fromiter(map(math.exp, (-xm * xm).tolist()), np.float64, xm.size)
    near = xm < 8.0
    p = np.where(near, _polevl(xm, _P), _polevl(xm, _R))
    q = np.where(near, _polevl(xm, _Q), _polevl(xm, _S))
    y[mid] = e * p / q
    return y


def ndtr(a):
    """Standard normal CDF, bit for bit ``scipy.special.ndtr`` on float64."""
    a = np.asarray(a, dtype=np.float64)
    x = a.reshape(-1) * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, np.nan)
    near = z < _SQRT1_2
    y[near] = 0.5 + 0.5 * _erf_small(x[near])
    tail = z >= _SQRT1_2
    yt = 0.5 * _erfc_positive(z[tail])
    y[tail] = np.where(x[tail] > 0, 1.0 - yt, yt)
    return y.reshape(a.shape)[()]


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
