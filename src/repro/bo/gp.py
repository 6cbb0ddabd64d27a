"""Gaussian-process regression for Bayesian optimization (§5.2).

A standard zero-mean GP with an RBF (squared-exponential) kernel and
Gaussian observation noise, fitted by Cholesky factorization.  Inputs are
standardized internally so one lengthscale works across heterogeneous
architecture knobs.  A small maximum-likelihood grid over lengthscale and
noise keeps the model calibrated without an optimizer dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianProcess", "rbf_kernel", "matern52_kernel"]


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def rbf_kernel(
    a: np.ndarray, b: np.ndarray, lengthscale: float, variance: float
) -> np.ndarray:
    """Squared-exponential kernel matrix between row sets ``a`` and ``b``."""
    if lengthscale <= 0 or variance <= 0:
        raise ValueError("kernel hyperparameters must be positive")
    return variance * np.exp(-0.5 * _sqdist(a, b) / lengthscale**2)


def matern52_kernel(
    a: np.ndarray, b: np.ndarray, lengthscale: float, variance: float
) -> np.ndarray:
    """Matern-5/2 kernel — the standard choice for architecture-parameter
    surfaces, which are less smooth than the RBF assumes."""
    if lengthscale <= 0 or variance <= 0:
        raise ValueError("kernel hyperparameters must be positive")
    r = np.sqrt(_sqdist(a, b)) / lengthscale
    sqrt5_r = np.sqrt(5.0) * r
    return variance * (1.0 + sqrt5_r + 5.0 * r**2 / 3.0) * np.exp(-sqrt5_r)


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b`` for the lower Cholesky factor ``chol``, by
    forward then back substitution: n, the observation count, is small."""
    x = np.array(b, dtype=np.float64)
    n = chol.shape[0]
    for i in range(n):
        x[i] = (x[i] - chol[i, :i] @ x[:i]) / chol[i, i]
    for i in reversed(range(n)):
        x[i] = (x[i] - chol[i + 1:, i] @ x[i + 1:]) / chol[i, i]
    return x


@dataclass
class _FittedState:
    x: np.ndarray
    y: np.ndarray
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    chol: np.ndarray
    alpha: np.ndarray
    lengthscale: float
    variance: float
    noise: float


class GaussianProcess:
    """GP regressor with ML-II hyperparameter selection over a small grid."""

    _KERNELS = {"rbf": rbf_kernel, "matern52": matern52_kernel}

    def __init__(
        self,
        lengthscales: tuple[float, ...] = (0.3, 1.0, 3.0),
        noises: tuple[float, ...] = (1e-6, 1e-4, 1e-2),
        kernel: str = "rbf",
    ) -> None:
        if not lengthscales or not noises:
            raise ValueError("need at least one lengthscale and one noise level")
        if kernel not in self._KERNELS:
            raise ValueError(f"kernel must be one of {sorted(self._KERNELS)}")
        self.lengthscales = lengthscales
        self.noises = noises
        self.kernel = kernel
        self._kernel_fn = self._KERNELS[kernel]
        self._state: _FittedState | None = None

    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.size:
            raise ValueError("x and y must have the same number of rows")
        if x.shape[0] == 0:
            raise ValueError("cannot fit GP on empty data")

        x_mean = x.mean(axis=0)
        x_scale = x.std(axis=0)
        x_scale[x_scale < 1e-12] = 1.0
        xs = (x - x_mean) / x_scale
        y_mean = float(y.mean())
        y_scale = float(y.std()) or 1.0
        ys = (y - y_mean) / y_scale

        best: _FittedState | None = None
        best_ll = -np.inf
        n = xs.shape[0]
        for ls in self.lengthscales:
            k_base = self._kernel_fn(xs, xs, ls, 1.0)
            for noise in self.noises:
                k = k_base + noise * np.eye(n)
                try:
                    chol = np.linalg.cholesky(k)
                except np.linalg.LinAlgError:  # singular kernel: add a jitter
                    k = k_base + (noise + 1e-6) * np.eye(n)
                    chol = np.linalg.cholesky(k)
                alpha = _cho_solve(chol, ys)
                log_det = 2.0 * np.sum(np.log(np.diag(chol)))
                ll = -0.5 * ys @ alpha - 0.5 * log_det - 0.5 * n * np.log(2 * np.pi)
                if ll > best_ll:
                    best_ll = ll
                    best = _FittedState(
                        x=xs, y=ys, x_mean=x_mean, x_scale=x_scale,
                        y_mean=y_mean, y_scale=y_scale, chol=chol, alpha=alpha,
                        lengthscale=ls, variance=1.0, noise=noise,
                    )
        assert best is not None
        self._state = best
        return self

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query rows ``x``."""
        if self._state is None:
            raise RuntimeError("predict() before fit()")
        s = self._state
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        xq = (x - s.x_mean) / s.x_scale
        k_star = self._kernel_fn(xq, s.x, s.lengthscale, s.variance)
        mean = k_star @ s.alpha
        v = _cho_solve(s.chol, k_star.T)
        var = s.variance - np.sum(k_star * v.T, axis=1)
        np.maximum(var, 1e-12, out=var)
        return mean * s.y_scale + s.y_mean, np.sqrt(var) * s.y_scale

    def log_marginal_likelihood(self) -> float:
        if self._state is None:
            raise RuntimeError("log_marginal_likelihood() before fit()")
        s = self._state
        n = s.x.shape[0]
        log_det = 2.0 * np.sum(np.log(np.diag(s.chol)))
        return float(-0.5 * s.y @ s.alpha - 0.5 * log_det - 0.5 * n * np.log(2 * np.pi))
