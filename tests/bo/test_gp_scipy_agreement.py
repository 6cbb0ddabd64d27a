"""The GP factors and solves in NumPy; SciPy's LAPACK Cholesky is the
reference here only.  The two factors differ in the last bits, so the fit
must agree where the search can see it: the ML-II grid picks the same
hyperparameters and the posterior agrees far inside any acquisition gap."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from repro.bo import GaussianProcess


def reference_fit(gp: GaussianProcess, x, y, query):
    """The same ML-II grid and posterior through ``scipy.linalg``: returns
    the chosen (lengthscale, noise) and the posterior mean and std."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    x_mean, x_scale = x.mean(axis=0), x.std(axis=0)
    x_scale[x_scale < 1e-12] = 1.0
    xs = (x - x_mean) / x_scale
    y_mean, y_scale = float(y.mean()), float(y.std()) or 1.0
    ys = (y - y_mean) / y_scale
    n = xs.shape[0]
    best, best_ll = None, -np.inf
    for ls in gp.lengthscales:
        k_base = gp._kernel_fn(xs, xs, ls, 1.0)
        for noise in gp.noises:
            try:
                chol = cho_factor(k_base + noise * np.eye(n), lower=True)
            except np.linalg.LinAlgError:
                chol = cho_factor(k_base + (noise + 1e-6) * np.eye(n), lower=True)
            alpha = cho_solve(chol, ys)
            log_det = 2.0 * np.sum(np.log(np.diag(chol[0])))
            ll = -0.5 * ys @ alpha - 0.5 * log_det - 0.5 * n * np.log(2 * np.pi)
            if ll > best_ll:
                best_ll, best = ll, (ls, noise, chol, alpha)
    ls, noise, chol, alpha = best
    xq = (np.atleast_2d(query) - x_mean) / x_scale
    k_star = gp._kernel_fn(xq, xs, ls, 1.0)
    var = 1.0 - np.sum(k_star * cho_solve(chol, k_star.T).T, axis=1)
    np.maximum(var, 1e-12, out=var)
    return (ls, noise), k_star @ alpha * y_scale + y_mean, np.sqrt(var) * y_scale


def assert_agrees(gp: GaussianProcess, x, y, query):
    (ls, noise), mean_ref, std_ref = reference_fit(gp, x, y, query)
    gp.fit(x, y)
    assert (gp._state.lengthscale, gp._state.noise) == (ls, noise)
    mean, std = gp.predict(query)
    np.testing.assert_allclose(mean, mean_ref, rtol=1e-6)
    np.testing.assert_allclose(std, std_ref, rtol=1e-9)


@pytest.mark.parametrize("kernel", ["rbf", "matern52"])
def test_seeded_fits_match_scipy(kernel):
    rng = np.random.default_rng(2024)
    for _ in range(250):
        n, d = int(rng.integers(1, 41)), int(rng.integers(1, 4))
        x = rng.uniform(-2.0, 2.0, (n, d))
        y = np.sin(x @ rng.standard_normal(d)) + 0.1 * rng.standard_normal(n)
        assert_agrees(GaussianProcess(kernel=kernel), x, y, rng.uniform(-2.5, 2.5, (64, d)))


@pytest.mark.parametrize("kernel", ["rbf", "matern52"])
def test_jitter_path_matches_scipy(kernel):
    """No noise over duplicated rows makes the kernel singular: the
    factor fails and the fit retries with a jitter on the diagonal."""
    x = np.vstack([np.ones((5, 2)), np.zeros((5, 2))])
    y = np.concatenate([np.ones(5), np.zeros(5)])
    gp = GaussianProcess(noises=(0.0,), kernel=kernel)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gp._kernel_fn(x, x, 1.0, 1.0))
    assert_agrees(gp, x, y, np.array([[1.0, 1.0], [0.5, 0.0]]))
    mean, _ = gp.predict(np.ones((1, 2)))
    assert mean[0] == pytest.approx(1.0, abs=1e-3)
