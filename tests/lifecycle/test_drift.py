"""Drift detector: reference freezing, both channels, resets."""

import numpy as np
import pytest

from repro import obs
from repro.lifecycle import DriftConfig, DriftDetector


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


CFG = DriftConfig(
    window=16, min_samples=8, reference_samples=32,
    hit_rate_threshold=0.8, z_threshold=6.0,
)


def feed_reference(det, rng, n=32, dim=3):
    for _ in range(n):
        det.observe(rng.standard_normal(dim))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"min_samples": 0},
            {"window": 4, "min_samples": 8},
            {"hit_rate_threshold": 0.0},
            {"hit_rate_threshold": 1.5},
            {"z_threshold": 0.0},
            {"reference_samples": 1},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)


class TestInputShiftChannel:
    def test_no_score_until_reference_frozen_and_window_filled(self, rng):
        det = DriftDetector(CFG, model="m")
        for _ in range(CFG.reference_samples):
            assert det.observe(rng.standard_normal(3)).shift_z is None
        # reference frozen; recent window still below min_samples
        for _ in range(CFG.min_samples - 1):
            assert det.observe(rng.standard_normal(3)).shift_z is None
        assert det.observe(rng.standard_normal(3)).shift_z is not None

    def test_stationary_traffic_does_not_fire(self, rng):
        det = DriftDetector(CFG, model="m")
        feed_reference(det, rng)
        last = None
        for _ in range(40):
            last = det.observe(rng.standard_normal(3))
        assert not last.drifted

    def test_mean_shift_fires(self, rng):
        det = DriftDetector(CFG, model="m")
        feed_reference(det, rng)
        score = None
        for _ in range(CFG.window):
            score = det.observe(rng.standard_normal(3) + 3.0)
        assert score.drifted and score.reason == "input-shift"
        assert score.shift_z > CFG.z_threshold

    def test_feature_count_mismatch_rejected(self, rng):
        det = DriftDetector(CFG, model="m")
        det.observe(rng.standard_normal(3))
        with pytest.raises(ValueError):
            det.observe(rng.standard_normal(4))


class TestHitRateChannel:
    def test_fallbacks_fire_hit_rate(self, rng):
        det = DriftDetector(CFG, model="m")
        score = None
        for _ in range(CFG.min_samples):
            score = det.observe(rng.standard_normal(3), fallback=True)
        assert score.hit_rate == 0.0
        assert score.drifted and score.reason == "hit-rate"

    def test_unencodable_input_counts_outcome_only(self, rng):
        # a schema fallback has no input row: only its outcome is absorbed
        det = DriftDetector(CFG, model="m")
        feed_reference(det, rng)
        score = None
        for _ in range(CFG.window):
            score = det.observe(None, fallback=True)
        assert score.hit_rate == 0.0 and score.shift_z is None
        assert score.reason == "hit-rate"

    def test_hit_rate_takes_priority_over_shift(self, rng):
        det = DriftDetector(CFG, model="m")
        feed_reference(det, rng)
        score = None
        for _ in range(CFG.window):
            score = det.observe(rng.standard_normal(3) + 3.0, fallback=True)
        # both channels are over threshold; the guard signal names the reason
        assert score.shift_z > CFG.z_threshold
        assert score.reason == "hit-rate"

    def test_event_counter_counts_rising_edges_only(self, rng):
        det = DriftDetector(CFG, model="m")
        for _ in range(CFG.min_samples + 5):
            det.observe(rng.standard_normal(3), fallback=True)
        rendered = obs.get_registry().to_prometheus()
        assert 'repro_drift_events_total{model="m",reason="hit-rate"} 1' in rendered


class TestResets:
    def test_reset_recent_keeps_reference(self, rng):
        det = DriftDetector(CFG, model="m")
        feed_reference(det, rng)
        for _ in range(CFG.window):
            det.observe(rng.standard_normal(3) + 3.0)
        assert det.score().drifted
        det.reset_recent()
        assert not det.score().drifted
        # the old reference still defines normal: shift re-fires quickly
        score = None
        for _ in range(CFG.min_samples):
            score = det.observe(rng.standard_normal(3) + 3.0)
        assert score.drifted

    def test_rebaseline_forgets_everything(self, rng):
        det = DriftDetector(CFG, model="m")
        feed_reference(det, rng)
        for _ in range(CFG.window):
            det.observe(rng.standard_normal(3) + 3.0)
        det.rebaseline()
        # shifted traffic becomes the new reference: no drift against it
        score = None
        for _ in range(CFG.reference_samples + CFG.window):
            score = det.observe(rng.standard_normal(3) + 3.0)
        assert not score.drifted
