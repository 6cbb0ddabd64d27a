"""Front-end for multi-process sharded serving: ring, admission, dispatch.

:class:`ProcessShardPool` splits the serving runtime into an admission
layer (this process) and N worker *processes*
(:func:`~repro.runtime.procworker.worker_main`), one per shard of a
consistent-hash ring.  Each worker runs the same
:class:`~repro.runtime.core.ServingCore` as thread mode, so the two modes
serve byte-identical outputs.  Every registered ``(name, version)``
lives on exactly one shard — :class:`ShardRing` hashes the pair over
virtual nodes, so two versions of one model may serve from different
processes, and ``deploy``/``rollback`` stay *front-end pointer flips*:
requests are pinned to a version number at admission and dispatched to
that version's shard explicitly, so a hot-swap never reroutes an
admitted request.  The one thing an activation sends a shard is a purge
of that version's negative compile memos, piggybacked on the next request
message (:meth:`ProcessShardPool.purge`).

Admission control is per shard: a depth counter bounded by
``max_queue_depth``, counted in *rows*.  A full shard exerts
**backpressure** (the submitter blocks up to ``admission_timeout_ms``
waiting for the queue to drain) and then **load-sheds** with a typed
:class:`OverloadError` — the caller sees a clean typed failure instead
of an unbounded queue.  ``repro_overload_total`` counts sheds;
``repro_shard_queue_depth{shard}`` tracks depth.

Tensors cross the process boundary through pooled shared-memory
segments (:mod:`~repro.runtime.shm_store`): the front-end owns the
input-side pool, each worker owns its output-side pool, and read-out
output segments ride back to their worker *piggybacked on the next
request message* — recycling costs zero extra pipe writes.  One
collector thread per shard gathers results, resolves waiters, stashes
segments for recycling, and merges worker metric deltas into this
process's registry (:func:`repro.obs.apply_metrics_delta`).

The data channels are raw ``Pipe`` connections, not ``mp.Queue``:
a queue ``put`` hands the message to a feeder *thread* that must win
the GIL before anything hits the wire — under serving load that hop
roughly doubles round-trip latency and stops grouped dispatches from
pipelining.  A ``Connection.send`` pickles and writes in the calling
thread, so the worker can be reading the request before ``dispatch``
returns.  Sends are serialized per shard with a lock (submitters race);
each receive side has exactly one reader thread.

One routine, :meth:`ProcessShardPool.dispatch`, stages and sends every
job — a store-backed request's whole tensor, a CSR batch, or a chunk of
a bulk group's stacked rows: it admits each job, stages its tensor, and
sends every job bound for one shard as ONE ``("many", ...)`` message,
answered by ONE ``("manyok", ...)`` — the synchronous pipe-write
wake-ups (a context switch each on a loaded box) are paid per *shard*,
not per job.  Before it blocks on a full shard it sends what it has
already staged for that shard, so a burst larger than the queue bound
waits on work in flight, never on its own unsent rows.  The bulk path
(:meth:`ProcessShardPool.dispatch_groups`) cuts each block of
same-(model, shape, dtype) rows into chunks of at most
``max_queue_depth`` rows, each one vectorized forward on the worker —
per-request bookkeeping (event, store keys, queue slot) never happens.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import multiprocessing as mp
import threading
import time
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .. import obs
from ..sparse import CSRMatrix
from .core import OrchestratorStopped
from .procworker import worker_main
from .shm_store import SegmentAttachments, ShmTensorStore, unlink_segments

__all__ = ["OverloadError", "ShardRing", "ProcessShardPool", "RowsResult"]

#: how worker processes start: a fresh interpreter, never a fork of a
#: front end that holds locks and serving threads
START_METHOD = "spawn"

#: seconds a worker may take to acknowledge a control command (boot
#: included) before the pool gives up on it
BOOT_TIMEOUT_S = 60.0

#: ``(result, error)`` completion callback of one dispatched job
OnDone = Callable[[Optional[np.ndarray], Optional[Exception]], None]


class OverloadError(RuntimeError):
    """Request shed by admission control: the target shard queue stayed full.

    Raised (or delivered through ``InferenceFuture.result``) when a
    shard's bounded queue could not accept the request within the
    admission timeout.  Typed so callers can distinguish "back off and
    retry" from a genuine serving failure.
    """


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


class _Pending(NamedTuple):
    """One in-flight dispatch awaiting its result message.

    ``input_segment`` is ``None`` for CSR dispatches: sparse batches ride
    the request pipe as pickled arrays (their nnz payload is small and
    pattern-dependent), so there is no shared-memory segment to release.
    """

    on_done: OnDone
    rows: int
    input_segment: Optional[str]
    shard_id: int


class RowsResult:
    """Future for one bulk group, dispatched as one or more chunks.

    The first chunk error fails the whole group at once; chunks still in
    flight then finish unread.
    """

    def __init__(self, n_chunks: int) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._outputs: list[Optional[np.ndarray]] = [None] * n_chunks  # cc: guarded-by(_lock)
        self._error: Optional[Exception] = None  # cc: guarded-by(_lock)
        self._remaining = n_chunks  # cc: guarded-by(_lock)

    def _resolve(
        self, idx: int, output: Optional[np.ndarray], error: Optional[Exception]
    ) -> None:
        with self._lock:
            if error is not None and self._error is None:
                self._error = error
            self._outputs[idx] = output
            self._remaining -= 1
            if self._remaining <= 0 or self._error is not None:
                self._event.set()

    @property
    def failed(self) -> bool:
        with self._lock:
            return self._error is not None

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """The stacked output rows; raises the first chunk error."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"bulk rows dispatch did not complete within {timeout}s"
            )
        with self._lock:
            if self._error is not None:
                raise self._error
            outputs = list(self._outputs)
        if len(outputs) == 1:
            return outputs[0]
        return np.concatenate(outputs, axis=0)


class _Shard:
    """Front-end state for one worker process."""

    def __init__(self, shard_id: int, ctx, config: dict) -> None:
        self.id = shard_id
        req_recv, self.req_send = ctx.Pipe(duplex=False)
        self.res_recv, res_send = ctx.Pipe(duplex=False)
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        # Connection.send is not thread-safe; submitter threads race here
        self.send_lock = threading.Lock()
        # ride to the worker on the next request message instead of a
        # pipe write of their own: output segments the collector has read
        # out (to recycle) and (name, version) pairs whose negative
        # compile memos to drop.  Deliberately NOT guarded by send_lock:
        # the collector must never wait behind a submitter blocked on a
        # full request pipe.
        self.recycle_pending: list[str] = []  # cc: guarded-by(piggyback_lock)
        self.purge_pending: list[tuple[str, int]] = []  # cc: guarded-by(piggyback_lock)
        self.piggyback_lock = threading.Lock()
        self.proc = ctx.Process(
            target=worker_main,
            args=(shard_id, child_conn, req_recv, res_send, config),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        self.proc.start()
        # drop our copies of the worker-side ends: EOF must propagate in
        # both directions when either process goes away
        child_conn.close()
        req_recv.close()
        res_send.close()
        self.depth = 0  # cc: guarded-by(cond)
        self.cond = threading.Condition()
        self.collector: Optional[threading.Thread] = None


class ProcessShardPool:
    """N worker processes behind a consistent-hash ring with admission control."""

    def __init__(
        self,
        num_shards: int,
        *,
        max_queue_depth: int = 512,
        admission_timeout_ms: float = 50.0,
        batch_invariant: bool = True,
        compile_plans: bool = True,
        plan_cache_dir: Optional[str] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if admission_timeout_ms < 0:
            raise ValueError("admission_timeout_ms must be >= 0")
        self.num_shards = int(num_shards)
        self.max_queue_depth = int(max_queue_depth)
        self.admission_timeout = float(admission_timeout_ms) / 1000.0
        self.ring = ShardRing(self.num_shards)
        self._ctx = mp.get_context(START_METHOD)
        self._config = {
            "batch_invariant": bool(batch_invariant),
            "compile_plans": bool(compile_plans),
            "plan_cache_dir": str(plan_cache_dir) if plan_cache_dir else None,
            "telemetry": obs.is_enabled(),
        }
        # dispatch paths read the list without the lock: it is swapped
        # atomically in start()/never shrunk, and they gate on _running
        self._shards: list[_Shard] = []  # cc: guarded-by(_state_lock, atomic-reads)
        self._store: Optional[ShmTensorStore] = None
        # registration replay log: models registered before start() ship
        # to their shard when the workers come up
        self._registered: list[tuple] = []  # cc: guarded-by(_conn_lock)
        self._conn_lock = threading.Lock()  # serializes all control-pipe traffic
        self._pending: dict[int, _Pending] = {}  # cc: guarded-by(_pending_lock)
        self._pending_lock = threading.Lock()
        self._req_ids = itertools.count(1)
        # bare reads see a GIL-atomic bool; transitions under _state_lock
        self._running = False  # cc: guarded-by(_state_lock, atomic-reads)
        self._state_lock = threading.Lock()
        self._telemetry = obs.TELEMETRY
        registry = obs.get_registry()
        self._m_depth = registry.gauge(
            "repro_shard_queue_depth",
            "Admitted rows waiting on (or inside) each shard's worker",
            labels=("shard",),
        )
        self._m_overload = registry.counter(
            "repro_overload_total",
            "Requests shed by admission control (shard queue stayed full)",
        )

    # -- lifecycle ----------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._running

    def start(self) -> None:
        with self._state_lock:
            if self._running:
                return
            self._store = ShmTensorStore(prefix="repro_fe")
            self._shards = [
                _Shard(i, self._ctx, self._config) for i in range(self.num_shards)
            ]
            with self._conn_lock:
                for shard in self._shards:
                    self._control(shard, ("ping",))  # block until booted
                    for reg in self._registered:
                        target = self.ring.shard_for(reg[0], reg[1])
                        if target == shard.id:
                            self._control(shard, ("register",) + reg)
            for shard in self._shards:
                shard.collector = threading.Thread(
                    target=self._collect,
                    args=(shard,),
                    daemon=True,
                    name=f"repro-collector-{shard.id}",
                )
                shard.collector.start()
            self._running = True

    def _control(self, shard: _Shard, cmd: tuple) -> None:  # cc: requires(_conn_lock)
        """Send one control command and wait for the worker's ack."""
        shard.conn.send(cmd)
        if not shard.conn.poll(BOOT_TIMEOUT_S):
            raise RuntimeError(
                f"shard {shard.id} worker did not acknowledge {cmd[0]!r} "
                f"within {BOOT_TIMEOUT_S:.0f}s"
            )
        ack = shard.conn.recv()
        if ack != ("ok",):
            raise RuntimeError(f"shard {shard.id} returned {ack!r} to {cmd[0]!r}")

    def register(
        self,
        name: str,
        version: int,
        blob: bytes,
        batchable: bool,
        digest: Optional[str],
    ) -> None:
        """Ship one pre-pickled model version to its ring-assigned shard."""
        entry = (name, int(version), blob, bool(batchable), digest)
        with self._conn_lock:
            self._registered.append(entry)
            if self._running:
                shard = self._shards[self.ring.shard_for(name, version)]
                self._control(shard, ("register",) + entry)

    def purge(self, name: str, version: int) -> None:
        """Drop the owning worker's negative compile memos for a version.

        The purge rides the next request message to that shard — the
        only traffic it can affect — so an activation stays a front-end
        pointer flip that never waits on a worker.  A worker that has not
        started holds no memos to drop.
        """
        if not self._running:
            return
        shard = self._shards[self.ring.shard_for(name, version)]
        with shard.piggyback_lock:
            shard.purge_pending.append((name, int(version)))

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop workers, drain collectors, fail whatever never completed."""
        with self._state_lock:
            if not self._running:
                return
            self._running = False
            shards = self._shards
        with self._conn_lock:
            for shard in shards:
                try:
                    shard.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass  # worker already gone; the join below reaps it
        for shard in shards:
            shard.proc.join(join_timeout)
            if shard.proc.is_alive():  # pragma: no cover - wedged forward
                # the worker never says goodbye; killing it closes its
                # result pipe, and the collector treats the EOF as a crash
                shard.proc.terminate()
                shard.proc.join(1.0)
        for shard in shards:
            if shard.collector is not None:
                shard.collector.join(join_timeout)
        with self._pending_lock:
            leftovers, self._pending = self._pending, {}
        for pending in leftovers.values():
            self._release(shards[pending.shard_id], pending.rows)
            try:
                pending.on_done(
                    None,
                    OrchestratorStopped(
                        "serving pool stopped before this request was served"
                    ),
                )
            except Exception:  # noqa: BLE001 - waiter callbacks must not block stop
                pass
        for shard in shards:
            for conn in (shard.req_send, shard.res_recv, shard.conn):
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        if self._store is not None:
            self._store.unlink_all()
        if self._telemetry.enabled:
            for shard in shards:
                self._m_depth.set(0, shard=str(shard.id))

    # -- admission -----------------------------------------------------------------

    def _admit(
        self, shard: _Shard, rows: int, flush: Optional[Callable[[], None]]
    ) -> None:
        """Reserve ``rows`` queue slots; backpressure, then load-shed.

        Before it first waits, ``flush()`` sends what the caller already
        staged for this shard: those rows count toward the depth, and
        unsent they could never drain.
        """
        deadline: Optional[float] = None
        while True:
            with shard.cond:
                if shard.depth + rows <= self.max_queue_depth:
                    shard.depth += rows
                    depth = shard.depth
                    break
                if flush is None:
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + self.admission_timeout
                    remaining = deadline - now
                    if remaining <= 0 or not self._running:
                        if self._telemetry.enabled:
                            self._m_overload.inc()
                        raise OverloadError(
                            f"shard {shard.id} queue full ({shard.depth}/"
                            f"{self.max_queue_depth} rows) for "
                            f"{self.admission_timeout * 1e3:.0f}ms; request shed"
                        )
                    shard.cond.wait(remaining)
                    continue
            flush()
            flush = None
        if self._telemetry.enabled:
            self._m_depth.set(depth, shard=str(shard.id))

    def _release(self, shard: _Shard, rows: int) -> None:
        with shard.cond:
            shard.depth -= rows
            depth = shard.depth
            shard.cond.notify_all()
        if self._telemetry.enabled:
            self._m_depth.set(depth, shard=str(shard.id))

    # -- dispatch ------------------------------------------------------------------

    def dispatch(
        self, jobs: Iterable[tuple[str, int, Any, bool, OnDone]]
    ) -> None:
        """Stage and send ``(name, version, x, stacked, on_done)`` jobs.

        ``x`` reaches the model whole — a CSR batch rides the request
        pipe as pickled arrays (its nnz payload is small; the worker
        rebuilds the matrix and its pattern-keyed plan), an array rides
        shared memory — unless ``stacked``: then it is a block of request
        rows served as one vectorized forward.  Every job bound for one
        shard shares one wire message.  ``on_done(output, error)`` fires
        once per job, from a collector thread — or right here when the
        job never leaves the front end (admission shed, staging failure,
        pool stopped); the other jobs proceed.
        """
        staged: dict[int, list[tuple]] = {}
        for name, version, x, stacked, on_done in jobs:
            try:
                if not self._running:
                    raise OrchestratorStopped("serving pool is not running")
                shard = self._shards[self.ring.shard_for(name, version)]
                items = staged.setdefault(shard.id, [])
                csr = isinstance(x, CSRMatrix)
                rows = int(x.shape[0]) if csr or stacked else 1
                self._admit(shard, rows, functools.partial(self._send, shard, items))
                try:
                    if csr:
                        kind, segment = "csr", None
                        payload = ("csrmat", (x.indptr, x.indices, x.data, tuple(x.shape)))
                    else:
                        kind = "rows" if stacked else "one"
                        payload = self._store.put(x)
                        segment = payload.segment
                except Exception:
                    self._release(shard, rows)
                    raise
            except Exception as exc:  # noqa: BLE001 - fails this job only
                on_done(None, exc)
                continue
            req_id = next(self._req_ids)
            with self._pending_lock:
                self._pending[req_id] = _Pending(on_done, rows, segment, shard.id)
            items.append((kind, req_id, name, int(version), payload))
        for shard_id, items in staged.items():
            self._send(self._shards[shard_id], items)

    def dispatch_groups(
        self, groups: Sequence[tuple[str, int, np.ndarray]]
    ) -> list[RowsResult]:
        """Dispatch ``(name, version, stacked)`` blocks; one result per group.

        Each block is cut into chunks of at most ``max_queue_depth`` rows,
        so every chunk can be admitted whole.  A chunk that fails (shed
        with :class:`OverloadError`, staging error) fails its group, and
        the group's remaining chunks are not sent; the other groups
        proceed, so one hot model cannot block the rest of the burst.
        """
        results: list[RowsResult] = []

        def jobs():
            chunk = self.max_queue_depth
            for name, version, stacked in groups:
                n_chunks = max(1, -(-len(stacked) // chunk))
                result = RowsResult(n_chunks)
                results.append(result)
                for idx in range(n_chunks):
                    if result.failed:
                        break
                    part = stacked[idx * chunk : (idx + 1) * chunk]
                    yield name, version, part, True, functools.partial(
                        result._resolve, idx
                    )

        self.dispatch(jobs())
        return results

    def _send(self, shard: _Shard, items: list[tuple]) -> None:
        """Ship and clear the staged ``items`` as one ``("many", ...)`` message.

        Output segments the collector finished reading ride along for
        recycling, and pending memo purges ride along too.  If the worker
        is gone (or ``stop`` raced the send), the items fail with
        :class:`OrchestratorStopped`.
        """
        if not items:
            return
        sent = list(items)
        items.clear()
        with shard.piggyback_lock:
            recycled, shard.recycle_pending = shard.recycle_pending, []
            purges, shard.purge_pending = shard.purge_pending, []
        try:
            with shard.send_lock:
                shard.req_send.send(("many", sent, recycled, purges))
        except (BrokenPipeError, OSError):
            # the piggybacked names and purges are dropped with the
            # worker: its segments are cleaned up wholesale on the
            # crash/stop path
            self._abandon(shard, sent)
            return
        if not self._running:
            # raced stop(): its sweep may have run before our inserts, so
            # finish the handshakes it missed ourselves
            self._abandon(shard, sent)

    def _abandon(self, shard: _Shard, items: list[tuple]) -> None:
        """Fail staged dispatches whose send failed (or that raced ``stop``)."""
        for _, req_id, _, _, _ in items:
            with self._pending_lock:
                pending = self._pending.pop(req_id, None)
            if pending is None:
                continue  # stop()'s sweep (or the collector) got there first
            self._release(shard, pending.rows)
            if pending.input_segment is not None:
                self._store.release(pending.input_segment)
            try:
                pending.on_done(
                    None, OrchestratorStopped("serving pool stopped")
                )
            except Exception:  # noqa: BLE001 - waiter bugs must not block teardown
                pass

    # -- result collection ---------------------------------------------------------

    def _resolve_entry(
        self, shard: _Shard, attachments: SegmentAttachments, entry: tuple
    ) -> list[str]:
        """Resolve one ``ok``/``err`` entry's waiter; returns segments to recycle."""
        kind, req_id = entry[0], entry[1]
        with self._pending_lock:
            pending = self._pending.pop(req_id, None)
        if pending is None:
            return []  # stop() already failed this waiter
        recycle: list[str] = []
        if kind == "ok":
            handle = entry[2]
            output, error = attachments.take(handle), None
            recycle.append(handle.segment)
        else:
            output, error = None, entry[2]
        # worker is done reading the input: its segment can carry the
        # next request (CSR dispatches shipped by pipe have none)
        if pending.input_segment is not None:
            self._store.release(pending.input_segment)
        self._release(shard, pending.rows)
        try:
            pending.on_done(output, error)
        except Exception:  # noqa: BLE001 - a waiter bug must not kill the collector
            pass
        return recycle

    def _collect(self, shard: _Shard) -> None:
        """Per-shard gather loop: resolve waiters, recycle segments, merge metrics."""
        attachments = SegmentAttachments()
        while True:
            try:
                item = shard.res_recv.recv()
            except (EOFError, OSError):
                # worker vanished without a farewell (crash or terminate):
                # best-effort removal of whatever output segments we know
                attachments.close_all(unlink=True)
                break
            kind = item[0]
            if kind == "manyok":
                recycle = [
                    seg
                    for entry in item[1]
                    for seg in self._resolve_entry(shard, attachments, entry)
                ]
                if recycle:
                    # stash for the next request to carry back (piggyback
                    # recycling: no pipe write of its own)
                    with shard.piggyback_lock:
                        shard.recycle_pending.extend(recycle)
            elif kind == "metrics":
                obs.apply_metrics_delta(obs.get_registry(), item[2])
            elif kind == "bye":
                names = item[2]
                if names is None:  # crashed worker: best-effort teardown
                    attachments.close_all(unlink=True)
                else:  # clean exit: segment ownership transferred to us
                    attachments.close_all()
                    unlink_segments(names)
                break
