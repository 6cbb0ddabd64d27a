"""Quality-guarded surrogate execution — the §7.1 restart mechanism.

The paper: "when running a specific input problem using the surrogate model
leads to the final output failing to meet the quality requirement, the
application has to restart and use the original code."  In production the
application cannot compare against the exact answer (that would defeat the
surrogate), so the guard relies on *cheap validity checks* the application
already has — a residual norm for a linear solve, boundedness for a price,
a similarity floor for a codec (§2.1: "many HPC applications have a
threshold to determine when the final application outcome is acceptable").

:class:`GuardedSurrogate` is the one place that runs attempt → validate →
restart on exact code: every invocation runs the surrogate, checks
validity, and transparently restarts on the original region when the
check fails — or when the attempt never answered (an input the surrogate
cannot encode, a lost serving worker, a shed request).  The lifecycle
loop (:class:`~repro.lifecycle.LifecycleController`) serves through it
too.  Its books are its ``repro_guard_*`` metric series.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

import numpy as np

from .. import obs
from .sharding import OverloadError, WorkerLostError

if TYPE_CHECKING:  # the offline pipeline is not part of the serving import
    from ..core.pipeline import DeployedSurrogate

__all__ = ["GuardedSurrogate", "residual_validator", "bounds_validator", "default_validator"]

Validator = Callable[[Mapping[str, Any], Mapping[str, Any]], bool]

#: capture hook signature: (problem, flat raw input row, exact outputs)
CaptureHook = Callable[[Mapping[str, Any], np.ndarray, Mapping[str, Any]], None]

#: an attempt for one call: ``problem -> (outputs, version)``
Attempt = Callable[[Any], tuple[Any, Optional[int]]]


class GuardedSurrogate:
    """Surrogate with transparent restart-on-invalid semantics.

    ``surrogate`` is what the guard wraps: its ``app.name`` labels the
    guard's series, ``app.exact_outputs`` is the restart, and its ``run``
    is the attempt unless :meth:`invoke` is handed one.

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
    ) -> None:
        # imported here, not at module level: a serving process that
        # never guards a surrogate loads no schema code
        from ..extract.features import SchemaMismatchError

        self._schema_error = SchemaMismatchError
        self.surrogate = surrogate
        self.validator = validator
        self.reference = surrogate.app.exact_outputs
        self.drift_detector = drift_detector
        self.capture = capture
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
            "Restarts on exact code, by reason: invalid (failed validation), "
            "schema (an input the surrogate cannot encode), worker_lost or "
            "overload (the serving path never answered)",
            labels=("app", "reason"),
        )
        self._m_fallbacks = {
            reason: fallbacks.labels(app=app, reason=reason)
            for reason in ("invalid", "schema", "worker_lost", "overload")
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
        return self.invoke(problem)[0]

    def invoke(
        self, problem: Any, attempt: Optional[Attempt] = None
    ) -> tuple[Any, Optional[str], Optional[int]]:
        """One guarded invocation: ``(outputs, reason, version)``.

        ``reason`` is ``None`` when the surrogate's answer stood, else why
        the exact code answered: ``invalid``, ``schema``, ``worker_lost``
        or ``overload``.  ``attempt``, when given, replaces the
        surrogate's ``run`` for this call and also reports the model
        ``version`` that answered (``None`` when it raised); the lifecycle
        loop's served path is one.
        """
        # telemetry off: no clock read, no instrument call (the overhead
        # tests/obs/test_overhead.py bounds)
        timed = obs.TELEMETRY.enabled
        start = time.perf_counter() if timed else 0.0
        reason: Optional[str] = None
        x: Optional[np.ndarray] = None
        version: Optional[int] = None
        try:
            if attempt is not None:
                outputs, version = attempt(problem)
            elif self.drift_detector is None and self.capture is None:
                outputs = self.surrogate.run(problem)
            else:
                # the hooks read the row the surrogate served: flatten once
                x = self.surrogate.input_schema.flatten(problem)
                outputs = self.surrogate.run_row(x)
        except self._schema_error:
            reason = "schema"
        except WorkerLostError:
            reason = "worker_lost"
        except OverloadError:
            reason = "overload"
        else:
            if not self.validator(problem, outputs):
                reason = "invalid"
        if timed:
            restart = time.perf_counter()
            self._m_invocations.inc()
            self._m_surrogate_seconds.observe(restart - start)
        if reason is not None:
            # restart with the original code (§7.1), timed apart from
            # the attempt: the restart is typically orders of magnitude
            # slower, and blended latencies would hide both populations
            outputs = self.reference(problem)
            if timed:
                self._m_fallbacks[reason].inc()
                self._m_fallback_seconds.observe(time.perf_counter() - restart)
        if self.drift_detector is not None:
            self.drift_detector.observe(x, fallback=reason is not None)
        if self.capture is not None and x is not None and reason is not None:
            self.capture(problem, x, outputs)
        return outputs, reason, version

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
