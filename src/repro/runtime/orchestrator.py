"""In-memory tensor/model store: the SmartSim Orchestrator substitute (§6.3).

The paper couples HPC applications to NN runtimes through a Redis-based
in-memory store (SmartSim Orchestrator + RedisAI): applications ``put``
input tensors under keys, request ``run_model`` on a registered model, and
``unpack`` the output tensors.  This module reproduces those semantics
with a thread-safe in-process store in front of one serving core
(:class:`~repro.runtime.core.ServingCore`).

The orchestrator is the *front end*: the tensor store, the versioned
model registry's pointers, canary routing and admission.  Work reaches
the serving pool one way in both serving modes, :meth:`Orchestrator.submit`:
under one lock each request is admitted (``_admit_locked`` pins its
version) and its input fetched; 1-D rows of one (name, version, shape,
dtype) stack into blocks of at most the pool's row bound while a lone
row travels as itself; one ``dispatch`` hands every job to the pool,
and ``_complete`` writes the outputs of each finished call into the
store under one lock.  Thread mode (``num_processes=0``) serves through a
:class:`~repro.runtime.sharding.ThreadShardPool` whose threads share
this process's :class:`~repro.runtime.core.ServingCore`; process mode
(``num_processes > 0``) through a
:class:`~repro.runtime.procpool.ProcessShardPool` whose worker processes
hold a core each; that module loads with the first such orchestrator.
The core groups compatible requests into one stacked forward
(:meth:`~repro.runtime.core.ServingCore.serve_many`), so both modes'
outputs are byte-identical for ``batch_invariant()`` models.
The blocking call, :meth:`Orchestrator.run_model`, goes through
``submit`` and waits unless a thread-mode pool is stopped or idle: then
the same admission and core run on the caller's thread, since a queue
hop would batch a lone request with nothing and only add two thread
hand-offs.

The model registry is **versioned**: ``register_model`` may hold several
versions of one name, exactly one of which is *active* (serving).
``deploy(name, version)`` hot-swaps the active version atomically and
``rollback(name)`` returns to the previously active one.  Requests are
pinned to a version number at *admission*, so in-flight and
already-batched requests always finish on the version they were
admitted under while new requests see the new version — a swap never
mixes versions inside one vectorized forward.

Deployment is a family of **deploy-policies**: ``deploy`` (all traffic),
``rollback`` (previous version), and ``canary(name, version, fraction)``,
which routes a deterministic hash-based slice of admissions to a
candidate version while the incumbent keeps the rest.  The slice is
decided at admission time — the same place version pinning happens — so
canary routing behaves identically in thread and process (sharded)
serving, and in-flight requests finish on whichever version admitted
them.  ``record_outcome(name, version, valid)`` feeds per-version
windowed hit-rate trackers (the guarded f_e signal) and
``canary_status`` exposes them so a controller (see
:mod:`repro.lifecycle`) can auto-promote or auto-roll-back.  Unknown model names
raise :class:`UnknownModelError` (a ``KeyError`` naming the registered
models); a submitted request fails with it at admission, through its
handle, like any other serving error.

Telemetry: the core records served/failed totals, inference latency and
plan counters; the pools record queue depth and batching; the front end
adds the submit counter and a tensor-store size gauge — all on the
process-global registry (:mod:`repro.obs`).  Deployments move the
``repro_registry_active_version`` gauge and the swap/rollback counters.
When telemetry is off an instrument call returns at once, and
``run_model`` and ``ServingCore.serve`` skip their instrument calls
(``serve`` its clock pair too); ``tests/obs/test_overhead.py`` bounds
the disabled cost at 5%.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .. import obs
from .core import OrchestratorStopped, RowResults, ServingCore
from .sharding import OverloadError, ThreadShardPool

__all__ = [
    "BatchResult",
    "Orchestrator",
    "OrchestratorStopped",
    "UnknownModelError",
    "CanaryStatus",
]

_ONE_OUTPUT = "multi-output splitting is the client's job; pass one key"


class UnknownModelError(KeyError):
    """No servable model under the requested name.

    Subclasses :class:`KeyError` so existing ``except KeyError`` handlers
    keep working, but carries the requested name and the names that *are*
    registered so a typo is diagnosable from the message alone.
    """

    def __init__(self, model_name: str, registered: tuple[str, ...] = ()) -> None:
        self.model_name = model_name
        self.registered = tuple(sorted(registered))
        if self.registered:
            hint = "registered models: " + ", ".join(
                repr(n) for n in self.registered
            )
        else:
            hint = "no models are registered"
        super().__init__(f"no model registered under {model_name!r} ({hint})")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class _OutcomeWindow:
    """Ring buffer of recent request outcomes for one (model, version).

    Mutated only under the owning orchestrator's ``_lock`` (it lives
    inside a ``_ModelEntry``), so it carries no lock of its own.
    """

    __slots__ = ("_hits",)

    def __init__(self, size: int) -> None:
        self._hits: "deque[bool]" = deque(maxlen=max(1, int(size)))

    def record(self, ok: bool) -> None:
        self._hits.append(bool(ok))

    @property
    def count(self) -> int:
        return len(self._hits)

    @property
    def hit_rate(self) -> Optional[float]:
        if not self._hits:
            return None
        return sum(self._hits) / len(self._hits)


class CanaryStatus(NamedTuple):
    """Snapshot of one in-flight canary experiment."""

    model: str
    incumbent: Optional[int]
    candidate: int
    fraction: float
    incumbent_count: int
    incumbent_hit_rate: Optional[float]
    candidate_count: int
    candidate_hit_rate: Optional[float]


def _canary_slot(name: str, seq: int) -> float:
    """Deterministic admission slot in ``[0, 1)`` for canary slicing.

    Hashing (name, admission sequence) instead of drawing random numbers
    makes the slice reproducible — replaying the same admission order
    routes the same requests to the candidate, in thread and process
    serving alike.
    """
    digest = hashlib.sha256(f"{name}:{seq}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass
class _ModelEntry:
    """The version numbers of one model name plus its deployment pointers.

    The replicas themselves live in the serving core.
    """

    versions: set[int] = field(default_factory=set)
    active: Optional[int] = None
    previous: Optional[int] = None
    #: canary deploy-policy pointers: a candidate version receiving a
    #: deterministic ``canary_fraction`` slice of admissions (None: no
    #: canary in flight).  ``canary_seq`` numbers admissions for the
    #: hash-based slice.  All mutated under the orchestrator's ``_lock``.
    canary: Optional[int] = None
    canary_fraction: float = 0.0
    canary_seq: int = 0
    #: per-version windowed validation outcomes (guarded f_e / HitRate)
    outcomes: dict[int, _OutcomeWindow] = field(default_factory=dict)


class BatchResult:
    """Handle to one :meth:`Orchestrator.submit` call.

    ``versions[i]`` is the version request ``i`` was admitted under, set
    before ``submit`` returns (None if its model or version is unknown).
    Rows finish in any order, a job at a time; ``done`` is set once every
    row is in, and from then on ``outputs[i]`` and ``errors[i]`` hold
    request ``i``'s output and error (one of them None).  :meth:`result`
    waits on ``done`` and returns the outputs in input order.
    """

    def __init__(self, n: int, output_keys: Optional[Sequence[str]]) -> None:
        self.output_keys = output_keys
        self.versions: list = [None] * n
        # written under _lock until the last row is in; read once done
        # is set, when nothing writes them any more
        self.outputs: list = [None] * n  # cc: guarded-by(_lock, atomic-reads)
        self.errors: list = [None] * n  # cc: guarded-by(_lock, atomic-reads)
        self._remaining = n  # cc: guarded-by(_lock)
        self._lock = threading.Lock()
        self.done = threading.Event()
        if n == 0:
            self.done.set()

    def _record(self, idxs: list[int], stacked: bool, output, error) -> bool:
        """Take one job's result for rows ``idxs``; True once every row is in."""
        if isinstance(error, RowResults):
            results = error.results
        elif error is not None:
            results = [(None, error)] * len(idxs)
        elif stacked:
            # ``output[k, ...]`` is a 0-d array where ``output[k]`` would
            # be a NumPy scalar
            results = [(output[k, ...], None) for k in range(len(idxs))]
        else:
            results = [(output, None)]
        with self._lock:
            for i, (out, err) in zip(idxs, results):
                self.outputs[i] = out
                self.errors[i] = err
            self._remaining -= len(idxs)
            return self._remaining == 0

    def result(self, timeout: Optional[float] = None) -> list:
        """The outputs in input order; raises the first request's error."""
        if not self.done.wait(timeout):
            raise TimeoutError(
                f"{len(self.outputs)} batched inferences did not complete "
                f"within {timeout}s"
            )
        for error in self.errors:
            if error is not None:
                raise error
        return list(self.outputs)


class Orchestrator:
    """Key-value tensor store with a model registry and a batching server.

    Everything lives in process memory.  Serving knobs:

    * ``max_batch_size`` — most requests one vectorized forward may carry.
      ``1`` disables micro-batching (strict per-request serving).  A
      worker batches the requests queued while it was busy and never
      waits for more, so a lone request is served at once; a blocking
      :meth:`run_model` on an idle thread pool runs on the caller's
      thread, and calls arriving meanwhile queue and batch behind it.
    * ``num_workers`` — serving threads pulling batches concurrently.
    * ``batch_invariant`` — run model forwards under
      :func:`repro.nn.batch_invariant` so outputs are bit-identical no
      matter how requests were batched (default).  Turn off to let large
      models keep BLAS ``gemm`` speed at the cost of last-ulp
      reproducibility across batch sizes.
    * ``compile_plans`` — trace-and-compile surrogate packages into flat
      :class:`~repro.compile.CompiledPlan` execution plans per
      specialization key (model, version, input shape, dtype,
      batch-invariance) and serve through them; plan outputs are
      bit-identical to the interpreted forward.  Models the compiler
      cannot trace fall back to the interpreted path transparently.
    * ``plan_cache_dir`` — persist compiled plans under
      ``<dir>/plan_cache/`` so restarts reuse them (content-addressed;
      see :class:`repro.compile.PlanCache`).  ``None`` keeps the plan
      cache in-memory only.
    * ``num_processes`` — ``> 0`` serves from worker *processes*
      (:class:`~repro.runtime.procpool.ProcessShardPool`), each shard
      queue bounded at ``max_queue_depth`` rows with backpressure up to
      ``admission_timeout_ms``; models must pickle (surrogate packages
      do).  ``0`` (default) serves from threads
      (:class:`~repro.runtime.sharding.ThreadShardPool`).
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 32,
        num_workers: int = 1,
        batch_invariant: bool = True,
        compile_plans: bool = True,
        plan_cache_dir: Optional[Union[str, Path]] = None,
        num_processes: int = 0,
        max_queue_depth: int = 512,
        admission_timeout_ms: float = 50.0,
        outcome_window: int = 128,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_processes < 0:
            raise ValueError("num_processes must be >= 0")
        if outcome_window < 1:
            raise ValueError("outcome_window must be >= 1")
        self.outcome_window = int(outcome_window)
        self.max_batch_size = int(max_batch_size)
        self.num_workers = int(num_workers)
        self.batch_invariant = bool(batch_invariant)
        self.compile_plans = bool(compile_plans)
        self.num_processes = int(num_processes)
        # the most rows one stacked block of a bulk call carries: what
        # one forward may batch in thread mode, what a shard queue holds
        # in process mode (a larger block could never be admitted)
        self._block_rows = (
            int(max_queue_depth) if self.num_processes else self.max_batch_size
        )
        # serves thread mode and direct run_model calls; in process mode
        # each shard's worker holds a core of its own
        self._core = ServingCore(
            batch_invariant=self.batch_invariant,
            compile_plans=self.compile_plans,
            plan_cache_dir=plan_cache_dir,
        )
        if self.num_processes:
            from .procpool import ProcessShardPool

            self._pool = ProcessShardPool(
                self.num_processes,
                max_queue_depth=max_queue_depth,
                admission_timeout_ms=admission_timeout_ms,
                batch_invariant=self.batch_invariant,
                compile_plans=self.compile_plans,
                plan_cache_dir=str(plan_cache_dir) if plan_cache_dir else None,
            )
        else:
            self._pool = ThreadShardPool(  # cc: type(ThreadShardPool, ProcessShardPool)
                self._core,
                max_batch_size=self.max_batch_size,
                num_workers=self.num_workers,
            )
        self._tensors: dict[str, np.ndarray] = {}  # cc: guarded-by(_lock)
        self._models: dict[str, _ModelEntry] = {}  # cc: guarded-by(_lock)
        self._lock = threading.RLock()
        # bare reads (is_running) see a GIL-atomic bool; transitions are
        # serialized by _state_lock
        self._running = False          # cc: guarded-by(_state_lock, atomic-reads)
        self._state_lock = threading.Lock()
        registry = obs.get_registry()
        # the per-request instruments, bound once (repro.obs.metrics)
        self._m_submitted = registry.counter(
            "repro_orchestrator_submitted_total",
            "Inference requests admitted through any entry point",
        ).labels()
        self._m_tensors = registry.gauge(
            "repro_orchestrator_tensor_store_size",
            "Tensors currently held in the store",
        ).labels()
        self._m_active_version = registry.gauge(
            "repro_registry_active_version",
            "Version currently serving for each registered model",
            labels=("model",),
        )
        self._m_swaps = registry.counter(
            "repro_registry_swaps_total",
            "Deployments that changed a model's active version",
            labels=("model",),
        )
        self._m_rollbacks = registry.counter(
            "repro_registry_rollbacks_total",
            "Rollbacks to a model's previously active version",
            labels=("model",),
        )
        self._m_canary_version = registry.gauge(
            "repro_canary_version",
            "Version receiving the canary traffic slice (0 = no canary)",
            labels=("model",),
        )
        self._m_canary_fraction = registry.gauge(
            "repro_canary_fraction",
            "Fraction of admissions routed to the canary version",
            labels=("model",),
        )
        self._m_canary_requests = registry.counter(
            "repro_canary_requests_total",
            "Admissions routed while a canary was in flight, by role",
            labels=("model", "role"),
        )
        self._m_canary_hit_rate = registry.gauge(
            "repro_canary_hit_rate",
            "Windowed validation hit rate per serving role during a canary",
            labels=("model", "role"),
        )
        self._m_canary_promotions = registry.counter(
            "repro_canary_promotions_total",
            "Canary candidates promoted to the active version",
            labels=("model",),
        )
        self._m_canary_rollbacks = registry.counter(
            "repro_canary_rollbacks_total",
            "Canary candidates rolled back without promotion",
            labels=("model",),
        )

    # -- tensor store ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> np.ndarray:
        value = np.asarray(value)
        if value.dtype.kind == "f":
            # dtype-preserving defensive copy: float32 HPC data stays
            # float32 instead of silently doubling its footprint
            return np.array(value, copy=True)
        return value.astype(np.float64)

    def put_tensor(self, key: str, value: np.ndarray) -> None:
        value = self._coerce(value)
        with self._lock:
            self._tensors[key] = value
            self._m_tensors.set(len(self._tensors))

    def get_tensor(self, key: str) -> np.ndarray:
        """Fetch a stored tensor as a *read-only view*.

        ``put_tensor`` copies defensively on the way in; handing the
        internal array back out would let callers mutate the store in
        place.  The view is zero-copy — callers that need to write take a
        ``.copy()`` (``Client.unpack_tensor`` already does).
        """
        with self._lock:
            value = self._tensors.get(key)
        if value is None:
            raise KeyError(f"no tensor stored under key {key!r}")
        view = value.view()
        view.flags.writeable = False
        return view

    def _lookup_locked(self, keys) -> list:  # cc: requires(_lock)
        try:
            return [self._tensors[k] for k in keys]
        except KeyError as exc:
            raise KeyError(f"no tensor stored under key {exc.args[0]!r}") from None

    def _input_locked(self, keys) -> Any:  # cc: requires(_lock)
        """One request's input: its single tensor whole, else the
        flattened tensors concatenated."""
        if len(keys) == 1 and keys[0] in self._tensors:
            return self._tensors[keys[0]]  # the common case, one dict lookup
        inputs = self._lookup_locked(keys)
        if len(inputs) == 1:
            return inputs[0]
        return np.concatenate([np.atleast_1d(v).ravel() for v in inputs])

    def delete_tensors(self, keys: list[str]) -> None:
        """Bulk :meth:`delete_tensor`: one lock acquisition for the whole list."""
        if not keys:
            return
        with self._lock:
            for key in keys:
                self._tensors.pop(key, None)
            self._m_tensors.set(len(self._tensors))

    def delete_tensor(self, key: str) -> None:
        self.delete_tensors([key])

    def tensor_exists(self, key: str) -> bool:
        with self._lock:
            return key in self._tensors

    # -- model registry -----------------------------------------------------------

    def register_model(
        self,
        name: str,
        predict: Callable[[np.ndarray], np.ndarray],
        *,
        batchable: bool = False,
        version: Optional[int] = None,
        deploy: bool = True,
        package: Optional[Any] = None,
        digest: Optional[str] = None,
    ) -> int:
        """Register a callable model (RedisAI's ``AI.MODELSET`` analogue).

        Each call registers one *version* of ``name`` (the next number by
        default) and returns it.  With ``deploy=True`` (default) the new
        version becomes active immediately — re-registering a name keeps
        the historic hot-swap behaviour.  ``deploy=False`` stages the
        version without serving it, for an explicit :meth:`deploy` later
        (and :meth:`rollback` afterwards if it misbehaves).

        ``batchable`` declares that the callable is row-wise: for stacked
        1-D inputs ``X`` of shape ``(B, F)`` it returns ``B`` output rows
        such that row ``i`` equals ``predict(X[i])``.  Every
        :class:`~repro.nas.package.SurrogatePackage` and element-wise
        function qualifies (``Client.set_model`` opts packages in
        automatically); batching is **opt-in** because a model that mixes
        rows but still returns ``B`` output rows — e.g.
        ``lambda x: x / np.linalg.norm(x)``, which normalizes over the
        whole stack — would silently produce wrong per-request results if
        batched by default.  Raw callables get one forward per request
        unless the caller declares them row-wise.

        ``package`` (a :class:`~repro.nas.package.SurrogatePackage`) opts
        the version into trace-and-compile serving; ``digest`` supplies
        its registry artifact digest so persisted plans are keyed by
        exactly the bytes that were deployed (computed from the package
        parameters when absent).
        """
        if not callable(predict):
            raise TypeError("model must be callable")
        blob: Optional[bytes] = None
        if self.num_processes:
            # pickle BEFORE registering locally so an unservable model
            # fails cleanly instead of leaving front-end/worker split-brain
            target = package if package is not None else predict
            try:
                blob = pickle.dumps(target)
            except Exception as exc:
                raise TypeError(
                    f"model {name!r} cannot serve with num_processes > 0: "
                    f"it does not pickle ({exc}); register a module-level "
                    "callable or a surrogate package"
                ) from exc
        with self._lock:
            entry = self._models.setdefault(name, _ModelEntry())
            if version is None:
                version = max(entry.versions, default=0) + 1
            version = int(version)
            if version < 1:
                raise ValueError("model versions start at 1")
            # the replica lands before the version becomes admissible
            self._core.register(
                name,
                version,
                predict,
                batchable=bool(batchable),
                package=package,
                digest=digest,
            )
            entry.versions.add(version)
            if deploy:
                self._activate(name, entry, version)
        if blob is not None:
            # every version ships to its ring-assigned shard at register
            # time, so deploy()/rollback() stay pure front-end pointer
            # flips — the worker already holds whatever gets activated
            self._pool.register(name, version, blob, bool(batchable), digest)
        return version

    def deploy(self, name: str, version: int) -> int:
        """Atomically make ``version`` the serving version of ``name``.

        Requests admitted before the swap finish on their pinned version;
        requests admitted after it see the new one.  Returns the deployed
        version number.
        """
        version = int(version)
        with self._lock:
            entry = self._entry_locked(name, version)
            self._activate(name, entry, version)
            self._clear_canary_locked(name, entry)
        self._purge(name, version)
        return version

    def rollback(self, name: str) -> int:
        """Swap ``name`` back to its previously active version.

        The pointers exchange, so a second ``rollback`` undoes the first.
        Returns the version now serving.
        """
        with self._lock:
            entry = self._entry_locked(name)
            if entry.previous is None:
                raise ValueError(
                    f"model {name!r} has no previous version to roll back to"
                )
            target = entry.previous
            entry.previous, entry.active = entry.active, target
            self._clear_canary_locked(name, entry)
            self._m_active_version.set(target, model=name)
            self._m_rollbacks.inc(model=name)
        self._purge(name, target)
        return target

    # -- canary deploy-policy -----------------------------------------------------

    def canary(self, name: str, version: int, fraction: float) -> int:
        """Route a deterministic ``fraction`` slice of admissions to ``version``.

        The incumbent stays active and keeps the remaining traffic; the
        candidate serves the slice.  Slicing happens at admission time —
        the same place version pinning happens — so it behaves identically
        in thread and process (sharded) serving, and an already-admitted
        request never migrates between versions.  ``end_canary`` finishes
        the experiment (promote or roll back); a manual ``deploy`` or
        ``rollback`` also cancels it.
        """
        version = int(version)
        fraction = float(fraction)
        if not 0.0 < fraction <= 1.0:
            raise ValueError("canary fraction must be in (0, 1]")
        with self._lock:
            entry = self._entry_locked(name, version)
            if entry.active is None:
                raise ValueError(
                    f"model {name!r} has no active incumbent to canary against"
                )
            if version == entry.active:
                raise ValueError(
                    f"version {version} of model {name!r} is already active"
                )
            entry.canary = version
            entry.canary_fraction = fraction
            entry.canary_seq = 0
            # fresh windows for both roles: the comparison must reflect the
            # experiment's own traffic, not outcomes recorded before it
            entry.outcomes[version] = _OutcomeWindow(self.outcome_window)
            entry.outcomes[entry.active] = _OutcomeWindow(self.outcome_window)
            self._m_canary_version.set(version, model=name)
            self._m_canary_fraction.set(fraction, model=name)
        self._purge(name, version)
        return version

    def end_canary(self, name: str, *, promote: bool) -> int:
        """Finish the in-flight canary of ``name``; returns the active version.

        ``promote=True`` activates the candidate (the incumbent becomes
        ``previous``, so a later :meth:`rollback` still works);
        ``promote=False`` drops the slice and the incumbent keeps serving.
        Requests already admitted under the candidate finish on it either
        way — only future admissions change.
        """
        with self._lock:
            entry = self._entry_locked(name)
            if entry.canary is None:
                raise ValueError(f"model {name!r} has no canary in flight")
            candidate = entry.canary
            entry.canary = None
            entry.canary_fraction = 0.0
            if promote:
                self._activate(name, entry, candidate)
            self._m_canary_version.set(0, model=name)
            self._m_canary_fraction.set(0.0, model=name)
            if promote:
                self._m_canary_promotions.inc(model=name)
            else:
                self._m_canary_rollbacks.inc(model=name)
            active = entry.active
        if promote:
            self._purge(name, candidate)
        return active

    def canary_status(self, name: str) -> Optional[CanaryStatus]:
        """Windowed per-role outcome stats for the in-flight canary (or None)."""
        with self._lock:
            entry = self._entry_locked(name)
            if entry.canary is None:
                return None
            incumbent = entry.outcomes.get(entry.active)
            candidate = entry.outcomes.get(entry.canary)
            return CanaryStatus(
                model=name,
                incumbent=entry.active,
                candidate=entry.canary,
                fraction=entry.canary_fraction,
                incumbent_count=incumbent.count if incumbent else 0,
                incumbent_hit_rate=incumbent.hit_rate if incumbent else None,
                candidate_count=candidate.count if candidate else 0,
                candidate_hit_rate=candidate.hit_rate if candidate else None,
            )

    def record_outcome(self, name: str, version: int, valid: bool) -> None:
        """Feed one validation outcome into ``version``'s windowed tracker.

        The orchestrator routes but cannot validate (validation needs the
        problem context only the caller has), so the guard/controller
        reports outcomes here and the canary policy reads them back via
        :meth:`canary_status`.
        """
        version = int(version)
        with self._lock:
            entry = self._entry_locked(name, version)
            window = entry.outcomes.get(version)
            if window is None:
                window = entry.outcomes[version] = _OutcomeWindow(
                    self.outcome_window
                )
            window.record(bool(valid))
            if entry.canary is not None:
                if version == entry.canary:
                    role = "canary"
                elif version == entry.active:
                    role = "incumbent"
                else:
                    role = "other"
                rate = window.hit_rate
                if rate is not None:
                    self._m_canary_hit_rate.set(rate, model=name, role=role)

    def _clear_canary_locked(self, name: str, entry: _ModelEntry) -> None:  # cc: requires(_lock)
        """Cancel any in-flight canary (a manual deploy/rollback supersedes it)."""
        if entry.canary is None:
            return
        entry.canary = None
        entry.canary_fraction = 0.0
        self._m_canary_version.set(0, model=name)
        self._m_canary_fraction.set(0.0, model=name)

    def _activate(self, name: str, entry: _ModelEntry, version: int) -> None:  # cc: requires(_lock)
        """Move the active pointer (caller holds ``self._lock``)."""
        swapped = entry.active is not None and entry.active != version
        if swapped:
            entry.previous = entry.active
        entry.active = version
        self._m_active_version.set(version, model=name)
        if swapped:
            self._m_swaps.inc(model=name)

    def _purge(self, name: str, version: int) -> None:
        """Retry ``version``'s failed compiles in whichever core serves it."""
        self._core.purge(name, version)
        if self.num_processes:
            self._pool.purge(name, version)

    def _entry_locked(  # cc: requires(_lock)
        self, name: str, version: Optional[int] = None
    ) -> _ModelEntry:
        """The entry of ``name``; with ``version``, check it is registered."""
        entry = self._models.get(name)
        if entry is None or not entry.versions:
            raise UnknownModelError(name, tuple(self._models))
        if version is not None and version not in entry.versions:
            raise ValueError(
                f"model {name!r} has no version {version}; "
                f"available: {sorted(entry.versions)}"
            )
        return entry

    def _admit_locked(  # cc: requires(_lock)
        self, name: str, version: Optional[int] = None
    ) -> int:
        """Version-route one admission (caller holds ``self._lock``).

        An explicit ``version`` pins that version.  Otherwise the active
        version serves — unless a canary is in flight, in which case the
        deterministic hash slot of this admission decides incumbent vs.
        candidate.  This is the single routing point every serving path
        (queue submit, process dispatch, bulk rows) goes through, so the
        canary slice crosses the process boundary for free: the chosen
        version number rides with the request.
        """
        if version is not None:
            version = int(version)
            self._entry_locked(name, version)
            return version
        entry = self._entry_locked(name)
        if entry.active is None:
            raise UnknownModelError(name, tuple(self._models))
        chosen = entry.active
        if entry.canary is not None and entry.canary in entry.versions:
            seq = entry.canary_seq
            entry.canary_seq += 1
            if _canary_slot(name, seq) < entry.canary_fraction:
                chosen = entry.canary
            role = "canary" if chosen == entry.canary else "incumbent"
            self._m_canary_requests.inc(model=name, role=role)
        return chosen

    def model_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def active_version(self, name: str) -> Optional[int]:
        """Version currently serving for ``name`` (None if none deployed)."""
        with self._lock:
            self._entry_locked(name)
            return self._models[name].active

    def model_versions(self, name: str) -> list[int]:
        """All registered versions of ``name``, ascending."""
        with self._lock:
            return sorted(self._entry_locked(name).versions)

    def run_model(
        self,
        name: str,
        input_keys: tuple[str, ...],
        output_keys: tuple[str, ...],
        *,
        version: Optional[int] = None,
    ) -> int:
        """Run a registered model on stored tensors and block until the
        output is stored: the one blocking entry point.

        Uses the active version unless ``version`` pins an explicit one
        (a canary in flight routes its slice of unpinned calls).  The
        request's tensor reaches the model whole.  With the pool stopped
        or a thread pool idle (nothing queued, no forward in flight) the
        forward runs on the caller's thread through the workers' core;
        otherwise the call goes through :meth:`submit` and waits, so it
        never overtakes earlier work.  Returns the version that served
        the call.  Like every entry point it counts one submission, and
        one failure if admission or the forward raises.
        """
        running = self._running
        if running and not self._pool.claim():
            batch = self.submit(
                name, [tuple(input_keys)], output_keys, version=version
            )
            batch.result()
            return batch.versions[0]
        if obs.TELEMETRY.enabled:
            # a per-request path whose disabled cost
            # tests/obs/test_overhead.py bounds; a counter call that
            # returns at once still costs about 1% of it
            self._m_submitted.inc()
        try:
            if len(output_keys) != 1:
                raise ValueError(_ONE_OUTPUT)
            with self._lock:
                version = self._admit_locked(name, version)
                x = self._input_locked(input_keys)
            y = self._core.serve(name, version, x)
        except Exception:
            self._core.fail()
            raise
        finally:
            if running:
                self._pool.release()
        self.put_tensor(output_keys[0], y)
        return version

    # -- server mode -----------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Start the serving pool (``exp.start(orc)``)."""
        with self._state_lock:
            if self._running:
                return
            self._pool.start()
            self._running = True

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop the pool and fail every request it has not served.

        Every pending request fails with :class:`OrchestratorStopped` and
        its handle's ``done`` event is set, so no waiter blocks forever;
        later :meth:`submit` calls are served on the caller's thread.
        ``join_timeout`` bounds the wait for each serving thread or worker
        process.  Safe to call repeatedly.
        """
        with self._state_lock:
            if not self._running:
                return
            self._running = False
            self._pool.stop(join_timeout)

    def submit(
        self,
        name: Union[str, Sequence[str]],
        inputs: Sequence[Any],
        output_keys: Optional[Sequence[str]] = None,
        *,
        version: Optional[int] = None,
    ) -> BatchResult:
        """Queue many requests for the serving pool: the one queued path.

        ``name`` is one model name for every request or one per request;
        ``inputs[i]`` is request ``i``'s input itself or a tuple of store
        keys holding it.  Under one lock each request is admitted — its
        own canary slot, or the ``version`` pin — and its input resolved.
        1-D rows of one (name, version, shape, dtype) stack into blocks
        of at most the pool's row bound (``max_batch_size`` in thread
        mode, ``max_queue_depth`` in process mode), each one vectorized
        forward; a lone row, and any other input, is a job of its own.
        Every job reaches the pool in one ``dispatch`` — or, with the
        pool stopped, the serving core runs them here.  With
        ``output_keys`` each output also enters the store under its key,
        all under one lock once the last row is in.  Failures (unknown
        model, missing key, shed, forward error) are per request; the
        returned handle raises the first in input order.
        """
        n = len(inputs)
        names = [name] * n if isinstance(name, str) else list(name)
        if len(names) != n:
            raise ValueError(f"got {n} inputs but {len(names)} model names")
        if output_keys is not None and len(output_keys) != n:
            raise ValueError(f"got {n} inputs but {len(output_keys)} output keys")
        batch = BatchResult(n, output_keys)
        complete = self._complete
        rows: list = [None] * n
        blocks: dict[tuple, list[int]] = {}
        jobs, rejected = [], []
        with self._lock:
            for i, (model, x) in enumerate(zip(names, inputs)):
                try:
                    pinned = batch.versions[i] = self._admit_locked(model, version)
                    if isinstance(x, tuple):
                        x = self._input_locked(x)
                    row = isinstance(x, np.ndarray) and x.ndim == 1
                    if not row:
                        x = self._coerce(x)
                except Exception as exc:  # noqa: BLE001 - fails this request only
                    rejected.append(((batch, [i], False), None, exc))
                    continue
                if row:
                    rows[i] = x
                    blocks.setdefault((model, pinned, x.shape, x.dtype), []).append(i)
                else:
                    tag = (batch, [i], False)
                    jobs.append((model, pinned, x, False, tag, complete))
        bound = self._block_rows
        for (model, pinned, _, _), idxs in blocks.items():
            for lo in range(0, len(idxs), bound):
                part = idxs[lo : lo + bound]
                # a lone row travels unstacked, so the pool can merge it
                # with other callers' rows into one forward
                stacked = len(part) > 1
                block = np.stack([rows[i] for i in part]) if stacked else rows[part[0]]
                if block.dtype.kind != "f":
                    block = block.astype(np.float64)
                tag = (batch, part, stacked)
                jobs.append((model, pinned, block, stacked, tag, complete))
        self._m_submitted.inc(n)
        if rejected:
            self._core.fail(len(rejected))
            complete(rejected)
        if self._running:
            self._pool.dispatch(jobs)
        elif jobs:
            served = self._core.serve_many(jobs)
            complete([(job[4], out, err) for job, (out, err) in zip(jobs, served)])
        return batch

    def _complete(self, done: list[tuple]) -> None:
        """``on_done`` of :meth:`submit`'s jobs, tagged ``(batch, rows,
        stacked)``.  A batch whose last row is in stores its named
        outputs under one lock, then wakes its waiter.  The serving core
        counts forward failures; a shed, a stopped pool or a lost worker
        never reached one, so those rows are counted here."""
        pool_failures, finished = 0, []
        for (batch, idxs, stacked), output, error in done:
            if isinstance(error, (OverloadError, OrchestratorStopped)):
                pool_failures += len(idxs)
            if batch._record(idxs, stacked, output, error):
                finished.append(batch)
        if pool_failures:
            self._core.fail(pool_failures)
        named = [batch for batch in finished if batch.output_keys is not None]
        if named:
            with self._lock:
                for batch in named:
                    for key, output, error in zip(
                        batch.output_keys, batch.outputs, batch.errors
                    ):
                        if error is None:
                            # an independent copy: a row of a stacked
                            # output is a view (or a 0-d array), and the
                            # store needs a real ndarray that pins no
                            # larger base
                            self._tensors[key] = np.array(output, copy=True)
                self._m_tensors.set(len(self._tensors))
        for batch in finished:
            batch.done.set()

    def __enter__(self) -> "Orchestrator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
