"""The acquisitions use ``scipy.special.ndtr`` and the normal-density
formula instead of ``scipy.stats.norm``; their values must not move by a
single bit, or the search would take a different path."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.bo import (
    constrained_expected_improvement,
    expected_improvement,
    probability_feasible,
    probability_of_improvement,
)
from repro.bo.acquisition import _norm_pdf, ndtr

# -inf gap times a zero cdf is NaN on both sides
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


#: z values where a different formula would show first
EDGE_Z = np.array([0.0, -0.0, 40.0, -40.0, np.inf, -np.inf])


def ref_ei(mean, std, best, xi=0.0):
    mean = np.asarray(mean, dtype=np.float64)
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    gap = best - mean - xi
    z = gap / std
    return gap * norm.cdf(z) + std * norm.pdf(z)


def ref_pi(mean, std, best, xi=0.0):
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    return norm.cdf((best - np.asarray(mean) - xi) / std)


def ref_pf(c_mean, c_std, threshold):
    c_std = np.maximum(np.asarray(c_std, dtype=np.float64), 1e-12)
    return norm.cdf((threshold - np.asarray(c_mean)) / c_std)


def ref_cei(mean, std, best, c_mean, c_std, threshold, xi=0.0):
    return ref_ei(mean, std, best, xi) * ref_pf(c_mean, c_std, threshold)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def cases(rng):
    """(mean, std, best) triples: 10k random points, the edge z values
    (std 1, best 0, so z is minus the mean) and plain scalars."""
    yield rng.normal(0.0, 3.0, 10_000), rng.gamma(1.0, 1.0, 10_000), 0.3
    yield -EDGE_Z, np.ones_like(EDGE_Z), 0.0
    yield 0.25, 0.5, 1.0
    yield -40.0, 1.0, 0.0


class TestAcquisitionBits:
    def test_normal_cdf_and_pdf(self, rng):
        for z in (rng.normal(0.0, 5.0, 10_000), EDGE_Z, *EDGE_Z, 0.3):
            assert_same_bits(ndtr(z), norm.cdf(z))
            assert_same_bits(_norm_pdf(np.asarray(z, dtype=np.float64)), norm.pdf(z))

    @pytest.mark.parametrize("xi", [0.0, 0.01])
    def test_expected_improvement(self, rng, xi):
        for mean, std, best in cases(rng):
            assert_same_bits(
                expected_improvement(mean, std, best, xi), ref_ei(mean, std, best, xi)
            )

    @pytest.mark.parametrize("xi", [0.0, 0.01])
    def test_probability_of_improvement(self, rng, xi):
        for mean, std, best in cases(rng):
            assert_same_bits(
                probability_of_improvement(mean, std, best, xi),
                ref_pi(mean, std, best, xi),
            )

    def test_probability_feasible(self, rng):
        for c_mean, c_std, threshold in cases(rng):
            assert_same_bits(
                probability_feasible(c_mean, c_std, threshold),
                ref_pf(c_mean, c_std, threshold),
            )

    def test_constrained_expected_improvement(self, rng):
        for (mean, std, best), (c_mean, c_std, threshold) in zip(
            cases(rng), cases(np.random.default_rng(7))
        ):
            assert_same_bits(
                constrained_expected_improvement(mean, std, best, c_mean, c_std, threshold),
                ref_cei(mean, std, best, c_mean, c_std, threshold),
            )

    def test_edge_z_values_reach_both_tails(self):
        got = probability_of_improvement(-EDGE_Z, np.ones_like(EDGE_Z), 0.0)
        assert got[EDGE_Z == np.inf][0] == 1.0 and got[EDGE_Z == -np.inf][0] == 0.0
