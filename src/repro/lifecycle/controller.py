"""The closed-loop controller: drift → retrain → canary → promote/rollback.

:class:`LifecycleController` owns one model's loop end-to-end.  It wires
the pieces the other layers provide:

* the :class:`~repro.lifecycle.drift.DriftDetector` watches incumbent
  traffic (inputs + validation outcomes),
* the :class:`~repro.lifecycle.buffer.TrafficBuffer` collects ground
  truth captured on fallback,
* the :class:`~repro.lifecycle.retrain.Retrainer` publishes candidates
  with lineage metadata,
* the :class:`~repro.runtime.Orchestrator` canary deploy-policy routes
  the traffic slice and tracks per-version windowed hit rates,
* the :class:`~repro.lifecycle.state.LifecycleStore` persists every
  transition as an atomic registry artifact.

``serve(x)`` plays the guarded application: it hands the serving path
to a :class:`~repro.runtime.guard.GuardedSurrogate` (validate, restart
on the reference on failure) and feeds the guard's verdict back into
the loop.  ``step()`` advances the state machine one decision at a
time — callers interleave it with traffic at whatever cadence they
like (every request, a background thread, a cron tick).  ``resume()``
re-enters a persisted state after a kill: a process dying mid-``CANARY``
comes back mid-``CANARY``, with the candidate re-registered from the
registry and **zero** retrains.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from ..nas.package import SurrogatePackage
from ..registry import ModelRegistry
from ..runtime.guard import GuardedSurrogate
from ..runtime.orchestrator import Orchestrator, UnknownModelError
from .buffer import TrafficBuffer
from .drift import DriftConfig, DriftDetector
from .retrain import RetrainConfig, Retrainer, find_candidate
from .state import LifecycleRecord, LifecycleState, LifecycleStore

__all__ = ["LifecycleConfig", "ServeResult", "LifecycleController"]


@dataclass(frozen=True)
class LifecycleConfig:
    """Every knob of one model's closed loop."""

    #: canary traffic slice (deterministic hash-based, <= 25% by default)
    fraction: float = 0.25
    #: candidate outcomes required before an auto-promote may be decided
    decision_samples: int = 40
    #: incumbent outcomes required alongside (a fair comparison window)
    min_incumbent_samples: int = 10
    #: candidate outcomes after which a regression may roll back early
    early_rollback_samples: int = 10
    #: candidate hit rate may trail the incumbent by at most this much
    regression_margin: float = 0.05
    #: labeled fallback samples the traffic buffer retains
    buffer_capacity: int = 512
    drift: DriftConfig = field(default_factory=DriftConfig)
    retrain: RetrainConfig = field(default_factory=RetrainConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.regression_margin < 0.0:
            raise ValueError("regression_margin must be >= 0")


class ServeResult(NamedTuple):
    """One guarded invocation through the lifecycle serving path."""

    y: np.ndarray
    version: Optional[int]
    valid: bool


class LifecycleController:
    """Closes the loop for one model name.

    ``reference`` is the exact-code oracle on the raw flattened row the
    package serves: given one input row it returns the ground-truth
    output row (for a deployed app: unflatten the row through the input
    schema, run the original region with
    :meth:`repro.apps.base.Application.exact_outputs`, then flatten its
    outputs).  The package scales both sides itself.
    ``validator`` is the cheap §7.1 validity check on the same raw rows:
    ``validator(x_row, y_row) -> bool``.
    """

    def __init__(
        self,
        name: str,
        orchestrator: Orchestrator,
        registry: ModelRegistry,
        *,
        reference: Callable[[np.ndarray], np.ndarray],
        validator: Callable[[np.ndarray, np.ndarray], bool],
        config: Optional[LifecycleConfig] = None,
    ) -> None:
        self.name = name
        self.registry = registry
        # the guard labels its series with app.name and restarts on
        # app.exact_outputs; serve() hands it the attempt per call
        model = SimpleNamespace(app=SimpleNamespace(name=name, exact_outputs=reference))
        self._guard = GuardedSurrogate(model, validator)
        self.config = config or LifecycleConfig()
        self._orc = orchestrator
        self.detector = DriftDetector(self.config.drift, model=name)
        self.buffer = TrafficBuffer(self.config.buffer_capacity)
        self.retrainer = Retrainer(registry, name, self.config.retrain)
        self.store = LifecycleStore(registry, name)
        # reentrant: step() calls back into methods that take the lock
        self._lock = threading.RLock()
        self._record = self.store.load() or LifecycleRecord(model=name)  # cc: guarded-by(_lock)
        self._packages: dict[int, SurrogatePackage] = {}  # cc: guarded-by(_lock)
        self._ids = itertools.count()

    # -- introspection ------------------------------------------------------

    @property
    def state(self) -> LifecycleState:
        with self._lock:
            return self._record.state

    @property
    def record(self) -> LifecycleRecord:
        with self._lock:
            return self._record

    @property
    def retrain_count(self) -> int:
        """Candidate fine-tunes actually run by this controller instance."""
        return self.retrainer.trained_count

    def status(self) -> dict[str, Any]:
        """One JSON-friendly snapshot of the whole loop."""
        with self._lock:
            record = self._record
        canary = self._orc.canary_status(self.name) if self._orc.model_exists(
            self.name
        ) else None
        score = self.detector.score()
        return {
            "model": self.name,
            "state": record.state.value,
            "incumbent": record.incumbent,
            "candidate": record.candidate,
            "fraction": record.fraction,
            "trigger": record.trigger,
            "requested": record.requested,
            "seq": record.seq,
            "drift": score.to_payload(),
            "buffered_samples": len(self.buffer),
            "retrains": self.retrain_count,
            "canary": None if canary is None else canary._asdict(),
        }

    # -- wiring -------------------------------------------------------------

    def attach(self) -> LifecycleState:
        """Make the orchestrator reflect the persisted record.

        Registers and deploys the incumbent (from the registry when the
        orchestrator does not hold it yet) and, when the record says
        ``CANARY``, re-registers the candidate and re-opens the traffic
        slice.  Idempotent — safe on a warm orchestrator.
        """
        with self._lock:
            record = self._record
            incumbent = record.incumbent
            if incumbent is None:
                if self._orc.model_exists(self.name):
                    incumbent = self._orc.active_version(self.name)
                if incumbent is None and self.registry.exists(self.name):
                    incumbent = self.registry.resolve(self.name).version
                if incumbent is None:
                    raise UnknownModelError(self.name)
                self._record = record = record.with_fields(incumbent=incumbent)
            self._ensure_registered_locked(incumbent, deploy=True)
            if (
                record.state is LifecycleState.CANARY
                and record.candidate is not None
            ):
                self._ensure_registered_locked(record.candidate, deploy=False)
                if self._orc.canary_status(self.name) is None:
                    self._orc.canary(
                        self.name,
                        record.candidate,
                        record.fraction or self.config.fraction,
                    )
            return record.state

    def resume(self) -> LifecycleState:
        """Re-enter the persisted state after a restart (kill-safety half).

        A kill mid-``CANARY`` resumes mid-``CANARY``: the candidate was
        already published, so no retrain happens — the experiment simply
        continues accumulating outcomes where it left off.
        """
        return self.attach()

    def _ensure_registered_locked(  # cc: requires(_lock)
        self, version: int, *, deploy: bool
    ) -> None:
        have = (
            self._orc.model_versions(self.name)
            if self._orc.model_exists(self.name)
            else []
        )
        if version not in have:
            ref = self.registry.resolve(self.name, version)
            package = SurrogatePackage.load(ref.path)
            self._packages[version] = package
            self._orc.register_model(
                self.name,
                package.predict,
                batchable=True,
                version=version,
                deploy=deploy,
                package=package,
                digest=ref.digest,
            )
        elif deploy and self._orc.active_version(self.name) != version:
            self._orc.deploy(self.name, version)

    def _package_locked(self, version: int) -> SurrogatePackage:  # cc: requires(_lock)
        package = self._packages.get(version)
        if package is None:
            ref = self.registry.resolve(self.name, version)
            package = SurrogatePackage.load(ref.path)
            self._packages[version] = package
        return package

    # -- traffic ------------------------------------------------------------

    def serve(self, x: np.ndarray) -> ServeResult:
        """One guarded invocation through the live serving path.

        The guard runs the version the orchestrator admits (incumbent or
        canary slice), validates, and restarts on the reference when the
        answer is invalid or never came (a lost worker or a shed request,
        with ``version`` ``None``: no model miss, so it feeds the loop
        nothing).  Returns the answer the application would see.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        y, reason, version = self._guard.invoke(x, self._attempt)
        valid = reason is None
        if not valid:
            y = np.asarray(y, dtype=np.float64).ravel()
        if reason in (None, "invalid"):
            self.observe(x, version=version, valid=valid, y_true=None if valid else y)
        return ServeResult(y=y, version=version, valid=valid)

    def _attempt(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """The served attempt: put, run the admitted version, get."""
        key = f"__lifecycle_{self.name}_{next(self._ids)}"
        in_key, out_key = key + "_in__", key + "_out__"
        self._orc.put_tensor(in_key, x)
        try:
            version = self._orc.run_model(self.name, (in_key,), (out_key,))
            return self._orc.get_tensor(out_key), version
        finally:
            self._orc.delete_tensors([in_key, out_key])

    def observe(
        self,
        x: np.ndarray,
        *,
        version: Optional[int],
        valid: bool,
        y_true: Optional[np.ndarray] = None,
    ) -> None:
        """Feed one externally-served invocation into the loop.

        Per-version outcome goes to the orchestrator's canary tracker;
        drift observation is restricted to *incumbent* traffic (candidate
        failures must show up in the canary comparison, not poison the
        incumbent's drift statistics); a failed invocation with ground
        truth lands in the retraining buffer.
        """
        with self._lock:
            incumbent = self._record.incumbent
        if version is not None:
            try:
                self._orc.record_outcome(self.name, version, valid)
            except (UnknownModelError, ValueError):
                pass  # version already unregistered: nothing to attribute
        if version is None or incumbent is None or version == incumbent:
            self.detector.observe(x, fallback=not valid)
        if not valid and y_true is not None:
            self.buffer.add(x, y_true)

    # -- the state machine --------------------------------------------------

    def step(self) -> LifecycleState:
        """Advance the loop by at most one decision; returns the new state."""
        with self._lock:
            self._sync_requested_locked()
            state = self._record.state
            if state is LifecycleState.STABLE:
                self._step_stable_locked()
            elif state is LifecycleState.DRIFTING:
                self._step_drifting_locked()
            elif state is LifecycleState.RETRAINING:
                self._step_retraining_locked()
            elif state is LifecycleState.CANARY:
                self._step_canary_locked()
            else:  # PROMOTE / ROLLBACK settle back to STABLE
                self._settle_locked()
            return self._record.state

    def _sync_requested_locked(self) -> None:  # cc: requires(_lock)
        # the CLI writes overrides straight into the persisted record;
        # the controller is otherwise the only writer, so `requested` is
        # the one field that can change under us
        persisted = self.store.load()
        if (
            persisted is not None
            and persisted.requested
            and persisted.requested != self._record.requested
        ):
            self._record = self._record.with_fields(
                requested=persisted.requested
            )

    def _transition_locked(  # cc: requires(_lock)
        self,
        to: LifecycleState,
        *,
        fields: Optional[dict] = None,
        **detail: Any,
    ) -> None:
        record = self._record.transition(to, **detail)
        if fields:
            record = record.with_fields(**fields)
        self._record = record
        self.store.save(record)

    def _step_stable_locked(self) -> None:  # cc: requires(_lock)
        record = self._record
        score = self.detector.score()
        if record.requested == "trigger":
            trigger = "manual"
        elif score.drifted:
            trigger = "drift"
        else:
            return
        self._transition_locked(
            LifecycleState.DRIFTING,
            fields={
                "trigger": trigger,
                "drift": score.to_payload(),
                "parent_version": record.incumbent,
                "requested": None,
            },
            trigger=trigger,
            drift=score.to_payload(),
        )

    def _step_drifting_locked(self) -> None:  # cc: requires(_lock)
        if len(self.buffer) >= self.config.retrain.min_samples:
            self._transition_locked(LifecycleState.RETRAINING)
            self._step_retraining_locked()
            return
        score = self.detector.score()
        if not score.drifted and not len(self.buffer):
            # transient blip: the evidence evaporated before any ground
            # truth was captured, so there is nothing to retrain on
            self._transition_locked(
                LifecycleState.STABLE, note="drift-recovered"
            )

    def _step_retraining_locked(self) -> None:  # cc: requires(_lock)
        record = self._record
        parent = (
            record.parent_version
            if record.parent_version is not None
            else record.incumbent
        )
        candidate_ref = None
        if len(self.buffer) >= self.config.retrain.min_samples:
            x, y = self.buffer.arrays()
            candidate_ref = self.retrainer.retrain(
                self._package_locked(record.incumbent),
                x,
                y,
                parent_version=parent,
                trigger=record.trigger or "drift",
                drift=record.drift,
            )
        else:
            # resume after a kill: the buffer died with the process, but a
            # candidate published before the kill is still the one to
            # canary — minus any the history already rolled back
            rejected = {
                entry.get("detail", {}).get("candidate")
                for entry in record.history
                if entry.get("to") == LifecycleState.ROLLBACK.value
            }
            candidate_ref = find_candidate(
                self.registry,
                self.name,
                parent_version=parent,
                exclude=rejected,
            )
        if candidate_ref is None:
            self._transition_locked(
                LifecycleState.STABLE, note="retrain-abandoned"
            )
            return
        self._ensure_registered_locked(candidate_ref.version, deploy=False)
        self._orc.canary(
            self.name, candidate_ref.version, self.config.fraction
        )
        self._transition_locked(
            LifecycleState.CANARY,
            fields={
                "candidate": candidate_ref.version,
                "fraction": self.config.fraction,
            },
            candidate=candidate_ref.version,
        )

    def _step_canary_locked(self) -> None:  # cc: requires(_lock)
        record = self._record
        cfg = self.config
        status = self._orc.canary_status(self.name)
        if status is None:
            # the in-memory slice is gone (fresh orchestrator after a
            # kill): re-open it and keep accumulating outcomes
            self._ensure_registered_locked(record.candidate, deploy=False)
            self._orc.canary(
                self.name, record.candidate, record.fraction or cfg.fraction
            )
            return
        decision: Optional[bool] = None
        if record.requested == "promote":
            decision = True
        elif record.requested == "abort":
            decision = False
        else:
            candidate_rate = status.candidate_hit_rate
            baseline = (
                status.incumbent_hit_rate
                if status.incumbent_hit_rate is not None
                else 1.0
            )
            if (
                status.candidate_count >= cfg.early_rollback_samples
                and candidate_rate is not None
                and candidate_rate < baseline - cfg.regression_margin
            ):
                # regressing vs. the incumbent: kill it mid-burst rather
                # than waiting out the full evaluation window
                decision = False
            elif (
                status.candidate_count >= cfg.decision_samples
                and status.incumbent_count >= cfg.min_incumbent_samples
            ):
                decision = (
                    candidate_rate is not None
                    and candidate_rate >= baseline - cfg.regression_margin
                )
        if decision is None:
            return  # evaluation window still open
        self._orc.end_canary(self.name, promote=decision)
        detail = {
            "candidate": record.candidate,
            "candidate_hit_rate": status.candidate_hit_rate,
            "incumbent_hit_rate": status.incumbent_hit_rate,
            "requested": record.requested,
        }
        self._transition_locked(
            LifecycleState.PROMOTE if decision else LifecycleState.ROLLBACK,
            fields={"requested": None},
            **detail,
        )

    def _settle_locked(self) -> None:  # cc: requires(_lock)
        record = self._record
        if record.state is LifecycleState.PROMOTE:
            self._transition_locked(
                LifecycleState.STABLE,
                fields={
                    "incumbent": record.candidate,
                    "candidate": None,
                    "fraction": 0.0,
                    "trigger": None,
                    "drift": {},
                    "requested": None,
                },
                outcome="promoted",
                incumbent=record.candidate,
            )
            # the promoted candidate defines normal now
            self.detector.rebaseline()
            self.buffer.clear()
        else:  # ROLLBACK
            self._transition_locked(
                LifecycleState.STABLE,
                fields={
                    "candidate": None,
                    "fraction": 0.0,
                    "requested": None,
                },
                outcome="rolled-back",
                incumbent=record.incumbent,
            )
            # incumbent keeps serving: keep its reference distribution but
            # demand fresh evidence before the loop may fire again
            self.detector.reset_recent()
            self.buffer.clear()
