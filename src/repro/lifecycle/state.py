"""Lifecycle state machine, persisted as a registry artifact.

The loop runs ``STABLE → DRIFTING → RETRAINING → CANARY →
PROMOTE | ROLLBACK → STABLE``.  Every transition publishes a new version
of the ``<model>-lifecycle`` artifact (kind ``lifecycle-state``) whose
single payload, ``state.json``, carries the complete record *including
the full transition history* — so the latest version alone reconstructs
everything, and the registry's atomic publish makes each transition
kill-safe: a process dying mid-write leaves the previous complete state,
and resume re-enters exactly where the loop was.

The artifact's manifest also declares ``meta["pins"]`` naming the
model versions the loop references (incumbent, candidate,
``parent_version``), which :meth:`repro.registry.ModelRegistry.gc`
honors — an offline gc can never collect a version the control loop
still needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Optional

from .. import obs
from ..registry import ArtifactRef, ModelRegistry

__all__ = [
    "KIND_LIFECYCLE",
    "LIFECYCLE_SUFFIX",
    "LifecycleState",
    "InvalidTransition",
    "LifecycleRecord",
    "LifecycleStore",
    "STATE_CODES",
]

KIND_LIFECYCLE = "lifecycle-state"
LIFECYCLE_SUFFIX = "-lifecycle"
STATE_PAYLOAD = "state.json"


class LifecycleState(str, Enum):
    """Where one model's closed loop currently is."""

    STABLE = "STABLE"
    DRIFTING = "DRIFTING"
    RETRAINING = "RETRAINING"
    CANARY = "CANARY"
    PROMOTE = "PROMOTE"
    ROLLBACK = "ROLLBACK"


#: numeric codes for the ``repro_lifecycle_state`` gauge
STATE_CODES = {
    LifecycleState.STABLE: 0,
    LifecycleState.DRIFTING: 1,
    LifecycleState.RETRAINING: 2,
    LifecycleState.CANARY: 3,
    LifecycleState.PROMOTE: 4,
    LifecycleState.ROLLBACK: 5,
}

_ALLOWED: dict[LifecycleState, frozenset[LifecycleState]] = {
    LifecycleState.STABLE: frozenset({LifecycleState.DRIFTING}),
    LifecycleState.DRIFTING: frozenset(
        {LifecycleState.RETRAINING, LifecycleState.STABLE}
    ),
    LifecycleState.RETRAINING: frozenset(
        {LifecycleState.CANARY, LifecycleState.STABLE}
    ),
    LifecycleState.CANARY: frozenset(
        {LifecycleState.PROMOTE, LifecycleState.ROLLBACK}
    ),
    LifecycleState.PROMOTE: frozenset({LifecycleState.STABLE}),
    LifecycleState.ROLLBACK: frozenset({LifecycleState.STABLE}),
}


class InvalidTransition(RuntimeError):
    """The requested state change is not an edge of the lifecycle graph."""


@dataclass(frozen=True)
class LifecycleRecord:
    """Immutable snapshot of one model's lifecycle.

    ``transition`` returns a new record with the history appended;
    nothing mutates in place, so a controller can hold a reference
    across a publish without torn reads.
    """

    model: str
    state: LifecycleState = LifecycleState.STABLE
    #: version serving the main traffic slice
    incumbent: Optional[int] = None
    #: candidate under canary (or just retrained), None outside the loop
    candidate: Optional[int] = None
    #: the version the current/last candidate descended from
    parent_version: Optional[int] = None
    #: canary traffic fraction for the in-flight experiment
    fraction: float = 0.0
    #: what started the current loop iteration ("drift" | "manual")
    trigger: Optional[str] = None
    #: drift statistics at trigger time (DriftScore.to_payload())
    drift: dict = field(default_factory=dict)
    #: operator override awaiting the controller ("trigger"|"promote"|"abort")
    requested: Optional[str] = None
    #: monotonically increasing transition counter
    seq: int = 0
    #: every transition ever taken: {"seq", "from", "to", "detail"}
    history: tuple = ()

    def transition(self, to: LifecycleState, **detail) -> "LifecycleRecord":
        """Validated step to ``to``; appends one history entry."""
        to = LifecycleState(to)
        if to not in _ALLOWED[self.state]:
            raise InvalidTransition(
                f"{self.model}: {self.state.value} -> {to.value} is not a "
                f"lifecycle edge (allowed: "
                f"{sorted(s.value for s in _ALLOWED[self.state])})"
            )
        entry = {
            "seq": self.seq + 1,
            "from": self.state.value,
            "to": to.value,
            "detail": detail,
        }
        return replace(
            self,
            state=to,
            seq=self.seq + 1,
            history=self.history + (entry,),
        )

    def with_fields(self, **changes) -> "LifecycleRecord":
        """Field update without a state transition (pointers, overrides)."""
        return replace(self, **changes)

    @property
    def pins(self) -> list[int]:
        """Model versions this record keeps alive (for gc protection)."""
        return sorted(
            {
                v
                for v in (self.incumbent, self.candidate, self.parent_version)
                if v is not None
            }
        )

    def to_payload(self) -> dict:
        return {
            "model": self.model,
            "state": self.state.value,
            "incumbent": self.incumbent,
            "candidate": self.candidate,
            "parent_version": self.parent_version,
            "fraction": self.fraction,
            "trigger": self.trigger,
            "drift": self.drift,
            "requested": self.requested,
            "seq": self.seq,
            "history": list(self.history),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LifecycleRecord":
        return cls(
            model=payload["model"],
            state=LifecycleState(payload.get("state", "STABLE")),
            incumbent=payload.get("incumbent"),
            candidate=payload.get("candidate"),
            parent_version=payload.get("parent_version"),
            fraction=float(payload.get("fraction", 0.0)),
            trigger=payload.get("trigger"),
            drift=dict(payload.get("drift") or {}),
            requested=payload.get("requested"),
            seq=int(payload.get("seq", 0)),
            history=tuple(payload.get("history") or ()),
        )


class LifecycleStore:
    """Persists one model's lifecycle record in a :class:`ModelRegistry`.

    Each ``save`` publishes a new version of ``<model>-lifecycle``; the
    latest version is the truth.  Publishing is atomic (registry
    semantics), so a kill mid-save leaves the previous state intact —
    the resume-after-kill guarantee of the whole loop reduces to the
    registry's own crash-safety.
    """

    def __init__(self, registry: ModelRegistry, model: str) -> None:
        self.registry = registry
        self.model = model
        self.artifact = f"{model}{LIFECYCLE_SUFFIX}"
        metrics = obs.get_registry()
        self._m_state = metrics.gauge(
            "repro_lifecycle_state",
            "Lifecycle state code per model "
            "(0 STABLE, 1 DRIFTING, 2 RETRAINING, 3 CANARY, 4 PROMOTE, 5 ROLLBACK)",
            labels=("model",),
        )
        self._m_transitions = metrics.counter(
            "repro_lifecycle_transitions_total",
            "Lifecycle transitions taken, by destination state",
            labels=("model", "to"),
        )

    def load(self) -> Optional[LifecycleRecord]:
        """Latest persisted record, or None when the loop never ran."""
        if not self.registry.exists(self.artifact):
            return None
        ref = self.registry.resolve(self.artifact)
        payload = json.loads(ref.payload_path(STATE_PAYLOAD).read_text())
        return LifecycleRecord.from_payload(payload)

    def save(self, record: LifecycleRecord) -> ArtifactRef:
        """Atomically publish ``record`` as the newest lifecycle version."""

        def writer(staged: Path) -> None:
            (staged / STATE_PAYLOAD).write_text(
                json.dumps(record.to_payload(), indent=2)
            )

        with obs.span(
            "lifecycle.transition", model=self.model, state=record.state.value
        ):
            ref = self.registry.publish(
                self.artifact,
                KIND_LIFECYCLE,
                writer,
                meta={
                    "state": record.state.value,
                    "seq": record.seq,
                    "pins": [{"name": self.model, "versions": record.pins}],
                },
            )
        self._m_state.set(STATE_CODES[record.state], model=self.model)
        self._m_transitions.inc(model=self.model, to=record.state.value)
        return ref

    def request(self, action: str) -> LifecycleRecord:
        """Record an operator override ("trigger" | "promote" | "abort").

        The override rides the persisted record; the controller consumes
        it on its next step (or on resume).  When no lifecycle state
        exists yet, a fresh STABLE record is created with the model's
        latest registry version as incumbent.
        """
        if action not in ("trigger", "promote", "abort"):
            raise ValueError(
                f"unknown lifecycle request {action!r}; "
                "expected trigger, promote or abort"
            )
        record = self.load()
        if record is None:
            incumbent = None
            if self.registry.exists(self.model):
                incumbent = self.registry.resolve(self.model).version
            record = LifecycleRecord(model=self.model, incumbent=incumbent)
        record = record.with_fields(requested=action)
        self.save(record)
        return record
