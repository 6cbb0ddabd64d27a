"""The serving core: model replicas, compiled plans and forwards (§6.3).

Both serving modes run every model forward through one
:class:`ServingCore`.  In thread mode the serving threads of a
:class:`~repro.runtime.sharding.ThreadShardPool` share the
orchestrator's core; in process mode each shard's worker process holds
one (:func:`~repro.runtime.procworker.worker_main`).  The core is the
only code that

* holds model replicas, keyed by ``(name, version)``;
* resolves a compiled plan per specialization key — model, version, row
  shape and dtype — and memoizes it with its replica, including
  the negative "untraceable" result, so a model the compiler refuses is
  tried once rather than on every call (:meth:`ServingCore.purge` drops
  those negative memos when an operator re-activates a version).  A
  served call reads its key's ``(replica, plan)`` with one dict lookup
  and no lock;
* runs each stacked block of request rows — or group of compatible
  requests — as one forward, falling back to one forward per row when
  it fails (:meth:`ServingCore.serve_many`);
* runs forwards under :func:`repro.nn.batch_invariant`, so a row's
  output does not depend on how requests were batched, and checks that a
  stacked forward returns one row per input row;
* declares and records the forward metrics.

Because both modes share this code, their outputs are byte-identical for
``batch_invariant()`` models.  Everything in front of a forward — the
tensor store, version pointers, canary routing, admission, queues and
the process transport — belongs to the callers.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .. import obs
from ..compile.cache import PlanCache, package_digest
from ..compile.plan import compile_package, untraceable_reason
from ..nn.tensor import batch_invariant as _batch_invariant_mode

__all__ = ["OrchestratorStopped", "Replica", "RowResults", "ServingCore"]


class OrchestratorStopped(RuntimeError):
    """Raised to waiters whose request was still queued when stop() ran."""


class RowResults(Exception):
    """A stacked block whose forward failed, served again row by row.

    ``results`` holds one ``(output, error)`` per row of the block.  It
    travels where the block's error would, so a poisoned row fails only
    itself; it is an exception only to whoever does not unpack it.
    """

    def __init__(self, results: list) -> None:
        super().__init__(results)
        self.results = results

    def __str__(self) -> str:
        errors = [error for _, error in self.results if error is not None]
        first = f": {errors[0]!r}" if errors else ""
        return f"{len(errors)} of {len(self.results)} rows failed{first}"


class Replica(NamedTuple):
    """One registered ``(name, version)`` of a model.

    ``package`` (a :class:`~repro.nas.package.SurrogatePackage`) opts the
    version into trace-and-compile serving; ``digest`` is its registry
    artifact digest, so persisted plans are keyed by exactly the bytes
    that were deployed.  Raw callables leave both ``None`` and always
    serve interpreted.
    """

    predict: Callable[[np.ndarray], np.ndarray]
    batchable: bool
    package: Optional[Any] = None
    digest: Optional[str] = None


class ServingCore:
    """Model replicas, plan resolution and instrumented forwards.

    Thread-safe: several thread-mode serving workers share one core.
    Compilation (or a plan-cache load) runs outside the lock on first
    sight of a key; two threads racing the same cold key may both
    compile, the plans are bit-identical and ``setdefault`` keeps one.
    A plan built from a replica that was replaced meanwhile serves its
    call and is not memoized.
    """

    def __init__(
        self,
        *,
        batch_invariant: bool = True,
        compile_plans: bool = True,
        plan_cache_dir=None,
    ) -> None:
        self.batch_invariant = bool(batch_invariant)
        self.compile_plans = bool(compile_plans)
        self.plan_cache = PlanCache(plan_cache_dir, enabled=self.compile_plans)
        self._replicas: dict[tuple[str, int], Replica] = {}  # cc: guarded-by(_lock)
        # (name, version, row shape, dtype) -> (replica, plan or None if
        # the compiler refused it), for replicas with a package.  Keyed by
        # version, so a deploy or rollback needs no invalidation: each
        # version has its entries.  A served call reads it without the
        # lock (one dict read is atomic under the GIL)
        self._plans: dict[tuple, tuple] = {}  # cc: guarded-by(_lock, atomic-reads)
        self._lock = threading.Lock()
        registry = obs.get_registry()
        # serve()'s instruments: the unlabelled ones bound here, the
        # per-model ones on a model's first call (repro.obs.metrics)
        self._m_served = registry.counter(
            "repro_orchestrator_served_total",
            "Inference requests completed successfully by the worker",
        ).labels()
        self._m_failed = registry.counter(
            "repro_orchestrator_failed_total",
            "Inference requests that errored or were abandoned by stop()",
        )
        self._m_latency = registry.histogram(
            "repro_orchestrator_inference_seconds",
            "Model forward wall-clock seconds per registered model",
            labels=("model",),
        )
        self._m_batched_rows = registry.counter(
            "repro_orchestrator_batched_rows_total",
            "Requests served through a vectorized (B, F) forward pass",
        ).labels()
        self._m_plans_built = registry.counter(
            "repro_compile_plans_built_total",
            "Serving plans built by tracing (missed every cache tier)",
        )
        self._m_plan_build = registry.histogram(
            "repro_compile_plan_build_seconds",
            "Seconds spent tracing + partial-evaluating one serving plan",
        )
        self._m_plan_exec = registry.histogram(
            "repro_compile_plan_exec_seconds",
            "Wall-clock seconds of forwards served by a compiled plan",
            labels=("model",),
        )
        self._m_untraceable = registry.counter(
            "repro_compile_untraceable_total",
            "Specializations that fell back to the interpreted path",
            labels=("reason",),
        )
        # model name -> its (latency, plan exec) series; a racing first
        # call binds the same objects, and setdefault is GIL-atomic
        self._model_series: dict[str, tuple] = {}

    # -- replicas -----------------------------------------------------------------

    def register(
        self,
        name: str,
        version: int,
        predict: Callable[[np.ndarray], np.ndarray],
        *,
        batchable: bool,
        package: Optional[Any] = None,
        digest: Optional[str] = None,
    ) -> None:
        """Hold one version of a model (replacing any with that number)."""
        key = (name, int(version))
        with self._lock:
            if key in self._replicas:
                # the version number now points at different weights:
                # every memo for it, plans included, is stale
                self._purge_locked(key, drop_plans=True)
            self._replicas[key] = Replica(predict, bool(batchable), package, digest)

    def replica(self, name: str, version: int) -> Replica:
        with self._lock:
            replica = self._replicas.get((name, int(version)))
        if replica is None:
            raise RuntimeError(
                f"no replica of model {name!r} version {version} is held here"
            )
        return replica

    def purge(self, name: str, version: int) -> None:
        """Forget the negative compile memos of one ``(name, version)``.

        An activation is an operator saying "serve this version", so a
        specialization that once failed to compile (e.g. before its plan
        landed in the shared disk tier) is retried instead of serving
        interpreted forever.  Resolved plans stay: they are keyed by
        version and remain correct.
        """
        with self._lock:
            self._purge_locked((name, int(version)), drop_plans=False)

    def _purge_locked(self, key: tuple[str, int], *, drop_plans: bool) -> None:  # cc: requires(_lock)
        stale = [
            plan_key
            for plan_key, (_, plan) in self._plans.items()
            if plan_key[:2] == key and (drop_plans or plan is None)
        ]
        for plan_key in stale:
            del self._plans[plan_key]

    # -- forwards -----------------------------------------------------------------

    def serve(
        self, name: str, version: int, x, *, stacked: bool = False
    ) -> np.ndarray:
        """One instrumented forward; returns a floating-point output.

        ``x`` reaches the model whole — a 1-D row or a 2-D input —
        unless ``stacked``: then it is a ``(B, F)`` block of
        request rows and the output must have ``B`` rows.  Failures
        propagate uncounted: the caller decides whether the request
        failed (:meth:`fail`) or is retried another way.
        """
        if not obs.TELEMETRY.enabled:
            # a per-request path: tests/obs/test_overhead.py bounds what
            # it pays with telemetry off, and a clock pair plus two
            # instrument calls that return at once cost more than that
            y = self._forward(name, version, x, stacked)[0]
        else:
            start = time.perf_counter()
            y, used_plan, vectorized = self._forward(name, version, x, stacked)
            elapsed = time.perf_counter() - start
            rows = len(x) if stacked else 1
            self._m_served.inc(rows)
            series = self._model_series.get(name)
            if series is None:
                series = self._model_series.setdefault(name, (
                    self._m_latency.labels(model=name),
                    self._m_plan_exec.labels(model=name),
                ))
            series[0].observe(elapsed)
            if vectorized and rows > 1:
                self._m_batched_rows.inc(rows)
            if used_plan:
                series[1].observe(elapsed)
        if y.dtype.kind != "f":
            y = y.astype(np.float64)
        return y

    def serve_many(
        self, jobs: Sequence[Sequence]
    ) -> list[tuple[Optional[np.ndarray], Optional[Exception]]]:
        """Serve ``(name, version, x, stacked, ...)`` jobs; one ``(output, error)`` each.

        A stacked job's ``x`` is a ``(B, F)`` block of request rows; jobs
        pinned to one version whose inputs are 1-D arrays of one shape and
        dtype stack into such a block too.  A block runs as one forward;
        if it fails (a poisoned row, a model not really row-wise) its rows
        are served one by one, so a bad row cannot fail its block-mates —
        a stacked job served that way answers with :class:`RowResults`.
        Any other job (a 2-D input) reaches the model whole.
        """
        groups: dict[Any, list[int]] = {}
        for i, job in enumerate(jobs):
            x = job[2]
            if job[3] or not isinstance(x, np.ndarray) or x.ndim != 1:
                key: Any = i
            else:
                key = (job[0], job[1], x.shape, x.dtype)
            groups.setdefault(key, []).append(i)
        results: list = [None] * len(jobs)
        for idxs in groups.values():
            name, version, x, stacked = jobs[idxs[0]][:4]
            if len(idxs) > 1:
                x, stacked = np.stack([jobs[i][2] for i in idxs]), True
            try:
                output = self.serve(name, version, x, stacked=stacked)
            except Exception as exc:  # noqa: BLE001 - a block is retried row by row
                if not stacked:
                    self.fail()
                    results[idxs[0]] = (None, exc)
                elif len(idxs) > 1:
                    for i, result in zip(idxs, self._serve_rows(name, version, x)):
                        results[i] = result
                else:
                    retried = RowResults(self._serve_rows(name, version, x))
                    results[idxs[0]] = (None, retried)
                continue
            if len(idxs) > 1:
                for i, row in zip(idxs, output):
                    results[i] = (row, None)
            else:
                results[idxs[0]] = (output, None)
        return results

    def _serve_rows(self, name: str, version: int, rows) -> list[tuple]:
        """Serve each row of a block alone; one ``(output, error)`` per row."""
        results = []
        for row in rows:
            try:
                results.append((self.serve(name, version, row), None))
            except Exception as exc:  # noqa: BLE001 - surfaced to the row's waiter
                self.fail()
                results.append((None, exc))
        return results

    def fail(self, requests: int = 1) -> None:
        """Count requests that failed or were abandoned."""
        self._m_failed.inc(requests)

    def _forward(self, name: str, version: int, x, stacked: bool):
        """``(output, plan ran it, one vectorized forward ran it)``.

        A stacked block runs through the plan, else one forward of a
        model declared row-wise (``batchable``), else one forward per
        row — a model never declared row-wise never sees stacked input.
        """
        route = self._plans.get((name, version, x.shape[-1:], x.dtype.str))
        replica, plan = route if route is not None else self._route(name, version, x)
        if plan is not None:
            y = plan.predict(x)
        else:
            with self._forward_mode():
                if stacked and not replica.batchable:
                    y = np.stack([np.asarray(replica.predict(row)) for row in x])
                else:
                    y = np.asarray(replica.predict(x))
        if stacked and (y.ndim < 1 or y.shape[0] != len(x)):
            raise ValueError(
                f"model {name!r} returned shape {y.shape} for a batch of "
                f"{len(x)}; only row-wise models may be registered "
                "batchable=True"
            )
        return y, plan is not None, stacked and (plan is not None or replica.batchable)

    def _forward_mode(self):
        """Context every model forward runs under (see ``batch_invariant``)."""
        if self.batch_invariant:
            return _batch_invariant_mode()
        return contextlib.nullcontext()

    # -- compiled plans -----------------------------------------------------------

    def _route(self, name: str, version: int, x) -> tuple:
        """``(replica, compiled plan or None)`` for ``x``'s specialization
        key, on a :meth:`_forward` that found no memo.

        The key uses the per-request row shape, so single and stacked
        serving of one model share one plan.  A replica without a
        package, or a core that compiles nothing, serves interpreted and
        memoizes nothing.
        """
        replica = self.replica(name, version)
        if not self.compile_plans or replica.package is None:
            return replica, None
        shape, dtype = x.shape[-1:], x.dtype.str
        plan = self._build_plan(replica, shape, dtype)
        with self._lock:
            if self._replicas.get((name, int(version))) is not replica:
                return replica, plan   # re-registered meanwhile: stale
            return self._plans.setdefault((name, version, shape, dtype), (replica, plan))

    def _build_plan(self, replica: Replica, shape, dtype: str):
        """Fetch from the plan cache or trace-and-compile (None: fall back)."""
        try:
            digest = replica.digest or package_digest(replica.package)
            key = self.plan_cache.key(
                digest,
                input_shape=shape,
                dtype=dtype,
                batch_invariant=self.batch_invariant,
            )
            plan = self.plan_cache.get(key)
            if plan is not None:
                return plan
            start = time.perf_counter()
            plan = compile_package(
                replica.package, batch_invariant=self.batch_invariant
            )
        except Exception as exc:  # noqa: BLE001 - any compile failure means: interpret
            self._m_untraceable.inc(reason=untraceable_reason(exc))
            return None
        self._m_plan_build.observe(time.perf_counter() - start)
        self._m_plans_built.inc()
        self.plan_cache.put(key, plan)
        return plan
