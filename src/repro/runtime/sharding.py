"""Serving pools: one dispatch surface for thread and process mode.

Both pools take jobs through one call, ``dispatch(jobs)``.  A job is
``(name, version, x, stacked, tag, on_done)``: the orchestrator has
already admitted it (its version is pinned) and fetched its input ``x``;
``on_done`` later receives ``(tag, output, error)`` triples, every job
of one served batch in one call.  Either pool serves through the same
:class:`~repro.runtime.core.ServingCore`, so the modes' outputs are
byte-identical.

:class:`ThreadShardPool` (thread mode) is one in-process shard: a worker
thread takes what is queued (up to ``max_batch_size`` request rows; a
stacked block counts its rows) as one micro-batch and serves it with
:meth:`~repro.runtime.core.ServingCore.serve_many`.  Nothing waits for
stragglers: requests that arrive while the workers are busy batch, as
they do in a process-mode worker, and a lone request is served at once.
A blocking call that finds the pool idle — nothing queued, no forward in
flight — skips the queue and runs its forward on its own thread
(:meth:`ThreadShardPool.claim`); calls that arrive meanwhile queue
behind it.

Process mode's pool, :class:`~repro.runtime.procpool.ProcessShardPool`,
lives in its own module with the worker transport, so a thread-mode
process never loads ``multiprocessing``.  This module holds what both
modes share: the job shape, the typed pool errors and the
:class:`ShardRing` that maps a model version to a process shard.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import warnings
from collections import deque
from typing import Any, Callable, Iterable, Optional, Sequence

from .. import obs
from .core import OrchestratorStopped, ServingCore

__all__ = [
    "OverloadError",
    "ShardRing",
    "ThreadShardPool",
    "WorkerLostError",
]

#: batch-size histogram buckets: powers of two up to a deep GPU-style batch
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: one job for a pool: ``(name, version, x, stacked, tag, on_done)``;
#: ``on_done`` takes a list of finished jobs' ``(tag, output, error)``
Job = tuple[str, int, Any, bool, Any, Callable[[list], None]]


class OverloadError(RuntimeError):
    """Request shed by admission control: the target shard queue stayed full.

    Raised (or delivered through ``BatchResult.result``) when a
    shard's bounded queue could not accept the request within the
    admission timeout.  Typed so callers can distinguish "back off and
    retry" from a genuine serving failure.
    """


class WorkerLostError(OrchestratorStopped):
    """The worker process serving this request exited before answering.

    Every waiter of the lost shard gets it as soon as the worker goes; a
    pool-side failure, like a stop, so the front end counts it.
    """


def _job_rows(job: Job) -> int:
    """Request rows one job carries: a stacked block its rows, else one."""
    return len(job[2]) if job[3] else 1


def _complete(jobs: Sequence[Job], results: Iterable[tuple]) -> None:
    """Report each job's ``(output, error)``: every distinct ``on_done`` is
    called once, with its jobs' ``(tag, output, error)`` triples."""
    grouped: dict[Callable, list] = {}
    for job, (output, error) in zip(jobs, results):
        grouped.setdefault(job[5], []).append((job[4], output, error))
    for on_done, done in grouped.items():
        try:
            on_done(done)
        except Exception:  # noqa: BLE001 - a waiter bug must not kill a pool thread
            pass


class ShardRing:
    """Consistent-hash ring mapping (name, version) to a shard.

    ``vnodes`` virtual nodes per shard (sha256-placed) smooth the
    distribution; the mapping depends only on ``(num_shards, vnodes)``
    and the key, so every process — and every restart — agrees on it.
    """

    def __init__(self, num_shards: int, *, vnodes: int = 64) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        self.vnodes = int(vnodes)
        points: list[tuple[int, int]] = []
        for shard in range(self.num_shards):
            for v in range(self.vnodes):
                points.append((self._hash(f"shard:{shard}:vnode:{v}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )

    def shard_for(self, name: str, version: int) -> int:
        """The shard owning model ``name`` at ``version``."""
        h = self._hash(f"{name}@{int(version)}")
        idx = bisect.bisect_right(self._hashes, h) % len(self._hashes)
        return self._shards[idx]


# -- thread mode ---------------------------------------------------------------------


class _RequestQueue:
    """Deque + condition variable tuned for micro-batched serving.

    ``queue.Queue`` pays one mutex acquisition per ``put``/``get``; this
    queue pays one per burst (``put_many``) and one per micro-batch
    (``get_batch``).  ``None`` is the worker-exit sentinel.  A closed
    queue refuses jobs, so none can slip in after ``stop`` drained it.
    It also counts the forwards in flight, a worker's batch or a
    caller's own (:meth:`claim`), until :meth:`release`.
    """

    def __init__(self) -> None:
        self._items: "deque[Optional[Job]]" = deque()  # cc: guarded-by(_cond)
        self._closed = True  # cc: guarded-by(_cond)
        self._inflight = 0  # cc: guarded-by(_cond)
        self._cond = threading.Condition()

    def claim(self) -> bool:
        """Count a forward the caller runs itself, if the queue is closed
        or idle (nothing queued, no forward in flight)."""
        with self._cond:
            if self._closed or not (self._items or self._inflight):
                self._inflight += 1
                return True
            return False

    def release(self) -> None:
        """End one forward counted by :meth:`claim` or :meth:`get_batch`."""
        with self._cond:
            self._inflight -= 1

    def open(self) -> None:
        with self._cond:
            self._closed = False

    def close(self, workers: int) -> None:
        """Refuse further jobs and queue one exit sentinel per worker."""
        with self._cond:
            self._closed = True
            self._items.extend([None] * workers)
            self._cond.notify_all()

    def put_many(self, items: list[Job]) -> Optional[int]:
        """Append ``items``; returns the new depth (None: the queue is closed)."""
        with self._cond:
            if self._closed:
                return None
            self._items.extend(items)
            self._cond.notify_all()
            return len(self._items)

    def drain(self) -> list[Job]:
        """Remove every queued job (sentinels are dropped)."""
        with self._cond:
            items = [item for item in self._items if item is not None]
            self._items.clear()
        return items

    def qsize(self) -> int:
        # len() of a deque is GIL-atomic, but the value would be stale by
        # the time a caller acts on it; taking the condition keeps qsize
        # ordered after any put/drain it races with
        with self._cond:
            return len(self._items)

    def get_batch(
        self, max_items: int, size: Callable[[Any], int] = lambda item: 1
    ) -> Optional[list[Job]]:
        """Drain queued items of total ``size`` up to ``max_items`` as one batch.

        Blocks until at least one item (or sentinel) arrives, then takes
        whatever else is already queued and fits, and returns at once:
        requests that arrived while the workers were busy batch, and
        nothing waits for stragglers.  A batch counts as a forward in
        flight until :meth:`release`.  Returns ``None`` when the first
        item is the stop sentinel; a sentinel found mid-drain stays
        queued so the pool still sees one sentinel per worker.
        """
        with self._cond:
            while not self._items:
                self._cond.wait()
            first = self._items.popleft()
            if first is None:
                return None
            batch, total = [first], size(first)
            while self._items:
                item = self._items[0]
                if item is None:
                    self._cond.notify()
                    break
                total += size(item)
                if total > max_items:
                    break
                batch.append(self._items.popleft())
            self._inflight += 1
            return batch


class ThreadShardPool:
    """Thread mode's pool: one in-process shard served by worker threads.

    Each of ``num_workers`` threads takes what is queued, up to
    ``max_batch_size`` request rows, as one micro-batch and serves it with
    :meth:`~repro.runtime.core.ServingCore.serve_many`.
    """

    def __init__(
        self,
        core: ServingCore,
        *,
        max_batch_size: int = 32,
        num_workers: int = 1,
    ) -> None:
        self._core = core
        self.max_batch_size = int(max_batch_size)
        self.num_workers = int(num_workers)
        self._queue = _RequestQueue()
        self._workers: list[threading.Thread] = []  # cc: guarded-by(_state_lock)
        # bare reads (the worker loop) see a GIL-atomic bool; transitions
        # under _state_lock
        self._running = False  # cc: guarded-by(_state_lock, atomic-reads)
        self._state_lock = threading.Lock()
        registry = obs.get_registry()
        # per-batch instruments, bound once (repro.obs.metrics)
        self._m_queue_depth = registry.gauge(
            "repro_orchestrator_queue_depth",
            "Inference requests waiting in the server queue",
        ).labels()
        self._m_batch_size = registry.histogram(
            "repro_orchestrator_batch_size",
            "Requests per micro-batch drained by a serving worker",
            buckets=BATCH_SIZE_BUCKETS,
        ).labels()
        self._m_stuck_workers = registry.gauge(
            "repro_orchestrator_stuck_workers",
            "Serving workers that failed to join within the stop() timeout",
        )

    def start(self) -> None:
        with self._state_lock:
            if self._running:
                return
            self._running = True
            self._queue.open()
            self._workers = [
                threading.Thread(
                    target=self._serve, daemon=True, name=f"orchestrator-worker-{i}"
                )
                for i in range(self.num_workers)
            ]
            for worker in self._workers:
                worker.start()

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop the workers and fail every job still queued.

        A worker still alive after ``join_timeout`` seconds (wedged in a
        forward) is counted on ``repro_orchestrator_stuck_workers`` and
        reported with a :class:`RuntimeWarning`.
        """
        with self._state_lock:
            if not self._running:
                return
            self._running = False
            workers, self._workers = self._workers, []
            self._queue.close(len(workers))
        stuck = 0
        for worker in workers:
            worker.join(timeout=join_timeout)
            if worker.is_alive():
                stuck += 1
        self._m_stuck_workers.set(stuck)
        if stuck:
            warnings.warn(
                f"{stuck} orchestrator worker(s) still alive after "
                f"{join_timeout:.1f}s join timeout; their in-flight requests "
                "may never complete",
                RuntimeWarning,
                stacklevel=3,
            )
        # the queue is closed: every job left behind comes out here
        self._abandon(self._queue.drain())
        self._m_queue_depth.set(0)

    def claim(self) -> bool:
        """True if the caller may run one forward on its own thread, which
        overtakes no work: the pool is stopped, or nothing is queued and
        no forward is in flight.  Pair a True with :meth:`release`."""
        return self._queue.claim()

    def release(self) -> None:
        """End a forward :meth:`claim` allowed."""
        self._queue.release()

    def dispatch(self, jobs: Iterable[Job]) -> None:
        """Queue jobs; a stopped pool fails them with :class:`OrchestratorStopped`."""
        jobs = list(jobs)
        depth = self._queue.put_many(jobs)
        if depth is None:
            self._abandon(jobs)
        else:
            self._m_queue_depth.set(depth)

    def _serve(self) -> None:
        while True:
            batch = self._queue.get_batch(self.max_batch_size, _job_rows)
            if batch is None:
                break
            self._m_batch_size.observe(sum(map(_job_rows, batch)))
            self._m_queue_depth.set(self._queue.qsize())
            if not self._running:
                # stop() is underway: abandon instead of serving late
                self._queue.release()
                self._abandon(batch)
                continue
            results = self._core.serve_many(batch)
            # released before the waiters wake, so their next blocking
            # call finds the pool idle
            self._queue.release()
            _complete(batch, results)

    @staticmethod
    def _abandon(jobs: list[Job]) -> None:
        """Fail jobs the pool stopped before serving."""
        message = "orchestrator stopped before this request was served"
        _complete(jobs, [(None, OrchestratorStopped(message)) for _ in jobs])
