"""Fig. 6 comparison-harness mechanics (fast budgets)."""

import math

import numpy as np
import pytest

from repro.apps import FFTApplication
from repro.baselines import METHODS, MethodRow, compare_methods
from repro.core import AutoHPCnetConfig


FAST = AutoHPCnetConfig(
    n_samples=120, outer_iterations=1, inner_trials=2, num_epochs=30,
    quality_problems=4, quality_loss=0.9, qoi_mu=0.5, seed=0,
)


N_PROBLEMS = 10


class CountingFFT(FFTApplication):
    """FFT that counts its exact-region runs."""

    exact_runs = 0

    def run_exact(self, problem):
        type(self).exact_runs += 1
        return super().run_exact(problem)


@pytest.fixture(scope="module")
def fft_rows():
    CountingFFT.exact_runs = 0
    return compare_methods(CountingFFT(), config=FAST, n_problems=N_PROBLEMS, seed=0)


class TestCompareMethods:
    def test_one_row_per_method(self, fft_rows):
        assert [r.method for r in fft_rows] == list(METHODS)

    def test_accept_not_applicable_for_type1(self, fft_rows):
        accept = next(r for r in fft_rows if r.method == "ACCEPT")
        assert math.isnan(accept.speedup)
        assert "not applicable" in accept.note

    def test_all_rows_same_app(self, fft_rows):
        assert {r.app_name for r in fft_rows} == {"FFT"}

    def test_effective_never_exceeds_raw(self, fft_rows):
        for row in fft_rows:
            if not math.isnan(row.speedup):
                assert row.speedup <= row.raw_speedup + 1e-9

    def test_perforation_rate_in_note(self, fft_rows):
        perf = next(r for r in fft_rows if r.method == "LoopPerforation")
        assert "rate" in perf.note

    def test_rows_format(self, fft_rows):
        for row in fft_rows:
            text = row.format()
            assert row.method in text and "FFT" in text


def test_one_exact_pass_per_problem_set(fft_rows):
    """The exact region runs once per evaluation problem, shared by every
    method, plus the perforation rate search's and the build's own sets."""
    rate_search_problems = 8      # find_max_rate's default n_problems
    assert CountingFFT.exact_runs == (
        N_PROBLEMS + rate_search_problems + FAST.quality_problems
    )
