"""Quality-guarded surrogate execution — the §7.1 restart mechanism.

The paper: "when running a specific input problem using the surrogate model
leads to the final output failing to meet the quality requirement, the
application has to restart and use the original code."  In production the
application cannot compare against the exact answer (that would defeat the
surrogate), so the guard relies on *cheap validity checks* the application
already has — a residual norm for a linear solve, boundedness for a price,
a similarity floor for a codec (§2.1: "many HPC applications have a
threshold to determine when the final application outcome is acceptable").

:class:`GuardedSurrogate` wraps a deployed surrogate with such a validator:
every invocation runs the surrogate, checks validity, and transparently
restarts on the original region when the check fails — while keeping the
bookkeeping (fallback rate, time ratio) the operator needs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

import numpy as np

from .. import obs

if TYPE_CHECKING:  # the offline pipeline is not part of the serving import
    from ..core.pipeline import DeployedSurrogate

__all__ = ["GuardStats", "GuardedSurrogate", "residual_validator", "bounds_validator", "default_validator"]

Validator = Callable[[Mapping[str, Any], Mapping[str, Any]], bool]

#: invocations a GuardStats hit-rate window holds by default
DEFAULT_WINDOW = 256


@dataclass
class GuardStats:
    """Bookkeeping of one guarded deployment.

    Updates go through :meth:`record`, which is atomic — a deployment
    shared across threads never loses counts.  Besides the lifetime
    counters, a ring buffer of the most recent ``window`` invocations
    backs :attr:`windowed_hit_rate` — the online HitRate signal a drift
    detector watches (a lifetime average dilutes a fresh regression under
    hours of healthy history) — and surrogate/fallback wall-clock
    accumulate *separately* so :attr:`time_ratio` (how much a restart
    costs relative to the surrogate attempt) is not biased by blending
    the two populations.
    """

    invocations: int = 0               # cc: guarded-by(_lock)
    fallbacks: int = 0                 # cc: guarded-by(_lock)
    surrogate_seconds: float = 0.0     # cc: guarded-by(_lock)
    fallback_seconds: float = 0.0      # cc: guarded-by(_lock)
    window: int = DEFAULT_WINDOW
    _recent: "deque[bool]" = field(   # cc: guarded-by(_lock)
        default_factory=deque, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        with self._lock:
            self._recent = deque(self._recent, maxlen=int(self.window))

    def record(
        self,
        *,
        fallback: bool,
        surrogate_seconds: float = 0.0,
        fallback_seconds: float = 0.0,
    ) -> None:
        """Count one invocation (and, when ``fallback``, one restart)."""
        with self._lock:
            self.invocations += 1
            self.surrogate_seconds += surrogate_seconds
            if fallback:
                self.fallbacks += 1
                self.fallback_seconds += fallback_seconds
            self._recent.append(not fallback)

    @property
    def fallback_rate(self) -> float:
        # snapshot both counters under the lock: reading them bare can
        # pair a fresh fallbacks with a stale invocations mid-record
        with self._lock:
            if not self.invocations:
                return 0.0
            return self.fallbacks / self.invocations

    @property
    def surrogate_rate(self) -> float:
        return 1.0 - self.fallback_rate

    @property
    def window_count(self) -> int:
        """Invocations currently held in the hit-rate window."""
        with self._lock:
            return len(self._recent)

    @property
    def windowed_hit_rate(self) -> Optional[float]:
        """Fraction of the last ``window`` invocations that validated.

        ``None`` until the first invocation lands — a drift detector must
        not mistake "no data yet" for a perfect (or terrible) HitRate.
        """
        with self._lock:
            if not self._recent:
                return None
            return sum(self._recent) / len(self._recent)

    @property
    def time_ratio(self) -> Optional[float]:
        """Mean fallback seconds over mean surrogate seconds (None: unsampled).

        This is the stat a retrainer reads to judge how expensive drift
        is: a ratio of 40 means every restart costs forty surrogate
        attempts, so even a modest fallback rate dominates wall-clock.
        """
        with self._lock:
            if not self.fallbacks or not self.invocations:
                return None
            mean_surrogate = self.surrogate_seconds / self.invocations
            if mean_surrogate <= 0.0:
                return None
            return (self.fallback_seconds / self.fallbacks) / mean_surrogate


#: capture hook signature: (problem, flat raw input row, exact outputs)
CaptureHook = Callable[[Mapping[str, Any], np.ndarray, Mapping[str, Any]], None]


class GuardedSurrogate:
    """Surrogate with transparent restart-on-invalid semantics.

    Two optional hooks turn the guard from passive bookkeeping into the
    sensor of a closed loop (see :mod:`repro.lifecycle`):

    * ``drift_detector`` — an object with
      ``observe(x, *, fallback: bool)`` fed every invocation's flattened
      raw input row, so input-distribution shift is watched exactly where
      traffic enters.  A schema fallback has no row: it is fed ``None``.
    * ``capture`` — called on every *fallback* with
      ``(problem, flat_input_row, exact_outputs)``.  A fallback is the
      only moment ground truth exists for free (the restart just computed
      it), so this is where a retraining buffer collects labeled samples.
      A schema fallback has no row in the surrogate's input space and is
      not captured.

    Hook exceptions propagate: a broken drift detector failing loudly
    beats one silently blinding the control loop.
    """

    def __init__(
        self,
        surrogate: DeployedSurrogate,
        validator: Validator,
        *,
        drift_detector: Optional[Any] = None,
        capture: Optional[CaptureHook] = None,
        stats_window: int = DEFAULT_WINDOW,
    ) -> None:
        # imported here, not at module level: a serving process that
        # never guards a surrogate loads no schema code
        from ..extract.features import SchemaMismatchError

        self._schema_error = SchemaMismatchError
        self.surrogate = surrogate
        self.validator = validator
        self.drift_detector = drift_detector
        self.capture = capture
        self.stats = GuardStats(window=stats_window)
        # per-request instruments, bound once to this surrogate's app
        # label (repro.obs.metrics); a fallback's series by its reason
        app = surrogate.app.name
        registry = obs.get_registry()
        self._m_invocations = registry.counter(
            "repro_guard_invocations_total",
            "Guarded surrogate invocations",
            labels=("app",),
        ).labels(app=app)
        fallbacks = registry.counter(
            "repro_guard_fallbacks_total",
            "Restarts on exact code, by reason: invalid (failed validation) "
            "or schema (an input the surrogate cannot encode)",
            labels=("app", "reason"),
        )
        self._m_fallbacks = {
            reason: fallbacks.labels(app=app, reason=reason)
            for reason in ("invalid", "schema")
        }
        self._m_surrogate_seconds = registry.histogram(
            "repro_guard_surrogate_seconds",
            "Wall-clock seconds of the surrogate attempt (forward + validation)",
            labels=("app",),
        ).labels(app=app)
        self._m_fallback_seconds = registry.histogram(
            "repro_guard_fallback_seconds",
            "Wall-clock seconds of the exact-code restart after a failed check",
            labels=("app",),
        ).labels(app=app)

    def run(self, problem: Mapping[str, Any]) -> dict[str, Any]:
        """Region outputs for ``problem`` — surrogate if valid, exact otherwise."""
        start = time.perf_counter()
        reason: Optional[str] = None
        x: Optional[np.ndarray] = None
        try:
            if self.drift_detector is None and self.capture is None:
                outputs = self.surrogate.run(problem)
            else:
                # the hooks read the row the surrogate served: flatten once
                x = self.surrogate.input_schema.flatten(problem)
                outputs = self.surrogate.run_row(x)
        except self._schema_error:
            reason = "schema"
        else:
            if not self.validator(problem, outputs):
                reason = "invalid"
        valid = reason is None
        surrogate_elapsed = time.perf_counter() - start
        exact_outputs: Optional[Mapping[str, Any]] = None
        fallback_elapsed = 0.0
        if not valid:
            # restart with the original code (§7.1) — timed separately
            # from the surrogate attempt so the two latency populations
            # never blend (the restart is typically orders of magnitude
            # slower, and the retrainer reads their ratio)
            restart = time.perf_counter()
            exact_outputs = self.surrogate.app.exact_outputs(problem)
            fallback_elapsed = time.perf_counter() - restart
        self.stats.record(
            fallback=not valid,
            surrogate_seconds=surrogate_elapsed,
            fallback_seconds=fallback_elapsed,
        )
        if obs.TELEMETRY.enabled:
            # a per-request path: tests/obs/test_overhead.py bounds what
            # it pays with telemetry off, and two instrument calls that
            # return at once still cost more than this read
            self._m_invocations.inc()
            self._m_surrogate_seconds.observe(surrogate_elapsed)
            if not valid:
                self._m_fallbacks[reason].inc()
                self._m_fallback_seconds.observe(fallback_elapsed)
        if self.drift_detector is not None:
            self.drift_detector.observe(x, fallback=not valid)
        if self.capture is not None and x is not None and exact_outputs is not None:
            self.capture(problem, x, exact_outputs)
        if valid:
            return outputs
        return exact_outputs

    def qoi(self, problem: Mapping[str, Any]) -> float:
        return self.surrogate.app.qoi_from_outputs(problem, self.run(problem))


def residual_validator(
    matrix_key: str = "A",
    rhs_key: str = "b",
    solution_key: str = "x",
    *,
    rtol: float = 0.05,
) -> Validator:
    """Validator for linear-solve regions: ||A x - b|| <= rtol * ||b||.

    One SpMV — orders of magnitude cheaper than the solve it certifies.
    """

    def validate(problem: Mapping[str, Any], outputs: Mapping[str, Any]) -> bool:
        matrix = problem[matrix_key]
        b = np.asarray(problem[rhs_key], dtype=np.float64)
        x = np.asarray(outputs[solution_key], dtype=np.float64)
        if hasattr(matrix, "matvec"):
            residual = b - matrix.matvec(x)
        else:
            residual = b - np.asarray(matrix) @ x
        return float(np.linalg.norm(residual)) <= rtol * float(np.linalg.norm(b))

    return validate


def default_validator(app_name: str) -> Validator:
    """The stock validity check for each Table 2 application.

    Solver apps get a residual check (one SpMV); the rest get plausibility
    bounds on their primary output — the kind of acceptance threshold §2.1
    notes HPC applications already carry.
    """
    name = app_name.lower()
    if name in ("cg", "amg"):
        return residual_validator("A", "b", "x", rtol=0.25)
    if name == "blackscholes":
        return bounds_validator("prices", low=0.0)
    if name == "x264":
        return bounds_validator("recon", low=-1.0, high=2.0)
    if name == "canneal":
        return bounds_validator("cost", low=0.0)
    if name == "mg":
        return bounds_validator("res_norm", low=0.0)
    if name == "miniqmc":
        return bounds_validator("logdet", low=-1e6, high=1e6)
    if name in ("fft", "fluidanimate", "streamcluster", "laghos"):
        key = {
            "fft": "re_out",
            "fluidanimate": "u_out",
            "streamcluster": "reduced",
            "laghos": "v_new",
        }[name]
        return bounds_validator(key, low=-1e6, high=1e6)
    raise ValueError(f"no default validator for application {app_name!r}")


def bounds_validator(
    output_key: str,
    *,
    low: float = -np.inf,
    high: float = np.inf,
    require_finite: bool = True,
) -> Validator:
    """Validator for plausibility bounds on one output (prices >= 0, SSIM in
    [0, 1], energies within physical range, ...)."""
    if low > high:
        raise ValueError("low must not exceed high")

    def validate(problem: Mapping[str, Any], outputs: Mapping[str, Any]) -> bool:
        value = np.asarray(outputs[output_key], dtype=np.float64)
        if require_finite and not np.all(np.isfinite(value)):
            return False
        return bool(np.all(value >= low) and np.all(value <= high))

    return validate
