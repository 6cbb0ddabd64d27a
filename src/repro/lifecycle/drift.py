"""Online drift detection over guarded traffic.

Two independent windows, either of which can fire:

* **HitRate window** — a ring buffer of the most recent validation
  outcomes (the §7.1 guard signal).  Drift fires when the windowed
  HitRate falls below ``hit_rate_threshold``: the surrogate is failing
  its cheap validity check more often than the operator accepts.

* **Input-shift window** — a running mean/variance *reference* frozen
  over the first ``reference_samples`` inputs (Welford accumulation),
  compared against the mean of the most recent ``window`` inputs.  The
  statistic is the largest per-feature standardized deviation of the
  recent mean from the reference mean::

      z_j = |mean_recent_j - mu_ref_j| / (sigma_ref_j / sqrt(n_recent))

  i.e. a z-score on the standard error of the windowed mean.  Under the
  reference distribution this stays O(1); under a shifted distribution
  it grows like ``sqrt(n_recent)`` times the shift in reference sigmas,
  so a persistent shift crosses any fixed threshold quickly while noise
  does not.  Drift fires when ``max_j z_j > z_threshold``.

The input-shift channel catches drift *before* quality collapses (a
moved input distribution is the leading indicator); the HitRate channel
catches quality collapse even when inputs look unchanged (e.g. the
physics regime changed within the same box).  Both are cheap: O(F) per
observation, no history of raw rows beyond the window.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .. import obs

__all__ = ["DriftConfig", "DriftScore", "DriftDetector"]


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds and window sizes of one :class:`DriftDetector`."""

    #: recent-traffic window (outcomes and input rows)
    window: int = 64
    #: observations required in a window before it may fire
    min_samples: int = 20
    #: drift when windowed HitRate drops below this
    hit_rate_threshold: float = 0.8
    #: drift when the max per-feature mean-shift z-score exceeds this
    z_threshold: float = 8.0
    #: inputs absorbed into the frozen reference before comparison starts
    reference_samples: int = 128

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError("min_samples must be in [1, window]")
        if not 0.0 < self.hit_rate_threshold <= 1.0:
            raise ValueError("hit_rate_threshold must be in (0, 1]")
        if self.z_threshold <= 0.0:
            raise ValueError("z_threshold must be positive")
        if self.reference_samples < 2:
            raise ValueError("reference_samples must be >= 2")


class DriftScore(NamedTuple):
    """One drift evaluation: both channel statistics plus the verdict."""

    hit_rate: Optional[float]
    shift_z: Optional[float]
    drifted: bool
    reason: Optional[str]  # "hit-rate" | "input-shift" | None

    def to_payload(self) -> dict:
        """JSON-serializable form (persisted into lifecycle history)."""
        return {
            "hit_rate": None if self.hit_rate is None else float(self.hit_rate),
            "shift_z": None if self.shift_z is None else float(self.shift_z),
            "drifted": bool(self.drifted),
            "reason": self.reason,
        }


class DriftDetector:
    """Watches one model's guarded traffic; fires when a window crosses.

    Thread-safe: ``observe`` may be called from every serving thread.
    ``repro_drift_score{model,kind}`` gauges track both channels and
    ``repro_drift_events_total{model,reason}`` counts rising edges (the
    transition into drift, not every drifted observation).
    """

    def __init__(
        self, config: Optional[DriftConfig] = None, *, model: str = "model"
    ) -> None:
        self.config = config or DriftConfig()
        self.model = model
        self._lock = threading.Lock()
        cfg = self.config
        # frozen reference distribution (Welford): count, mean, M2
        self._ref_count = 0                          # cc: guarded-by(_lock)
        self._ref_mean: Optional[np.ndarray] = None  # cc: guarded-by(_lock)
        self._ref_m2: Optional[np.ndarray] = None    # cc: guarded-by(_lock)
        self._recent_x: "deque[np.ndarray]" = deque(maxlen=cfg.window)  # cc: guarded-by(_lock)
        self._recent_ok: "deque[bool]" = deque(maxlen=cfg.window)       # cc: guarded-by(_lock)
        self._was_drifted = False                    # cc: guarded-by(_lock)
        registry = obs.get_registry()
        self._m_score = registry.gauge(
            "repro_drift_score",
            "Current drift statistic per channel (hit_rate, shift_z)",
            labels=("model", "kind"),
        )
        self._m_events = registry.counter(
            "repro_drift_events_total",
            "Rising edges of the drift verdict, by firing channel",
            labels=("model", "reason"),
        )

    # -- observation --------------------------------------------------------

    def observe(
        self, x: Optional[np.ndarray], *, fallback: bool = False
    ) -> DriftScore:
        """Absorb one invocation (input row + validation outcome); score it.

        ``x`` is ``None`` for an input the surrogate could not encode: only
        its outcome enters the HitRate window.
        """
        row = None if x is None else np.asarray(x, dtype=np.float64).ravel()
        with self._lock:
            if row is not None and self._ref_count < self.config.reference_samples:
                self._absorb_reference_locked(row)
            elif row is not None:
                self._recent_x.append(row)
            self._recent_ok.append(not fallback)
            return self._score_locked()

    def score(self) -> DriftScore:
        """Current verdict without absorbing a new observation."""
        with self._lock:
            return self._score_locked()

    def rebaseline(self) -> None:
        """Restart from scratch — the promoted candidate defines normal now.

        After a promote, traffic that looked shifted against the *old*
        model's reference is the new normal; keeping the old reference
        would re-fire drift forever.
        """
        with self._lock:
            self._ref_count = 0
            self._ref_mean = None
            self._ref_m2 = None
            self._recent_x.clear()
            self._recent_ok.clear()
            self._was_drifted = False

    def reset_recent(self) -> None:
        """Drop the recent windows but keep the reference.

        Used after a rollback: the incumbent keeps serving, so the
        reference distribution still defines normal, but the evidence
        that triggered the failed candidate must be re-accumulated
        before the loop may fire again.
        """
        with self._lock:
            self._recent_x.clear()
            self._recent_ok.clear()
            self._was_drifted = False

    # -- internals ----------------------------------------------------------

    def _absorb_reference_locked(self, row: np.ndarray) -> None:  # cc: requires(_lock)
        if self._ref_mean is None:
            self._ref_mean = np.zeros_like(row)
            self._ref_m2 = np.zeros_like(row)
        elif row.shape != self._ref_mean.shape:
            raise ValueError(
                f"drift input has {row.shape[0]} features; "
                f"reference has {self._ref_mean.shape[0]}"
            )
        self._ref_count += 1
        delta = row - self._ref_mean
        self._ref_mean = self._ref_mean + delta / self._ref_count
        self._ref_m2 = self._ref_m2 + delta * (row - self._ref_mean)

    def _shift_z_locked(self) -> Optional[float]:  # cc: requires(_lock)
        cfg = self.config
        n_recent = len(self._recent_x)
        if (
            self._ref_count < cfg.reference_samples
            or n_recent < cfg.min_samples
        ):
            return None
        sigma = np.sqrt(self._ref_m2 / max(self._ref_count - 1, 1))
        # a constant reference feature has sigma 0; floor it so a truly
        # moved constant still registers instead of dividing by zero
        floor = 1e-12 + 1e-9 * np.abs(self._ref_mean)
        sigma = np.maximum(sigma, floor)
        recent_mean = np.mean(np.stack(self._recent_x), axis=0)
        z = np.abs(recent_mean - self._ref_mean) / (sigma / np.sqrt(n_recent))
        return float(np.max(z))

    def _score_locked(self) -> DriftScore:  # cc: requires(_lock)
        cfg = self.config
        hit_rate: Optional[float] = None
        if len(self._recent_ok) >= cfg.min_samples:
            hit_rate = sum(self._recent_ok) / len(self._recent_ok)
        shift_z = self._shift_z_locked()
        reason: Optional[str] = None
        if hit_rate is not None and hit_rate < cfg.hit_rate_threshold:
            reason = "hit-rate"
        elif shift_z is not None and shift_z > cfg.z_threshold:
            reason = "input-shift"
        drifted = reason is not None
        if hit_rate is not None:
            self._m_score.set(hit_rate, model=self.model, kind="hit_rate")
        if shift_z is not None:
            self._m_score.set(shift_z, model=self.model, kind="shift_z")
        if drifted and not self._was_drifted:
            self._m_events.inc(model=self.model, reason=reason)
        self._was_drifted = drifted
        return DriftScore(hit_rate, shift_z, drifted, reason)
