"""Process mode's serving pool: N worker processes behind a hash ring.

:class:`ProcessShardPool` splits serving into this admission layer and N
worker *processes* (:func:`~repro.runtime.procworker.worker_main`), one
per shard of a consistent-hash ring.  It takes jobs through the same
``dispatch(jobs)`` as thread mode's pool
(:mod:`~repro.runtime.sharding`).  A
:class:`~repro.runtime.sharding.ShardRing` maps each registered
``(name, version)`` to exactly one shard, so ``deploy``/``rollback``
stay front-end pointer flips: a request carries its pinned version to
that version's shard, and a hot-swap never reroutes an admitted request.
The one thing an activation sends a shard is a purge of that version's
negative compile memos, piggybacked on the next request message
(:meth:`ProcessShardPool.purge`).  The orchestrator imports this module
only when it runs worker processes.

Admission control is per shard: a depth counter bounded by
``max_queue_depth``, counted in *rows*.  A full shard exerts
**backpressure** (the submitter blocks up to ``admission_timeout_ms``)
and then **load-sheds** with a typed
:class:`~repro.runtime.sharding.OverloadError`;
``repro_overload_total`` counts sheds and
``repro_shard_queue_depth{shard}`` tracks depth.  A request travels as
its own wire message, so its slot frees as soon as it is served; the
stacked blocks of a bulk call (each at most ``max_queue_depth`` rows and
one vectorized forward; the orchestrator cuts them) bound for one shard
share one message.  Before it blocks on a full shard,
``dispatch`` sends what it already staged there, so a burst larger than
the bound waits on work in flight, never on its own unsent rows.

Tensors cross the process boundary through pooled shared-memory
segments (:mod:`~repro.runtime.shm_store`): the front-end owns the
input-side pool, each worker its output-side pool, and read-out output
segments ride back to their worker on the next request message.  One
collector thread per shard resolves waiters, stashes segments for
recycling and merges worker metric deltas into this process's registry
(:func:`repro.obs.merge.apply_metrics_delta`).  When a worker exits, its
collector fails that shard's unanswered requests at once with
:class:`~repro.runtime.sharding.WorkerLostError` and gives back their
rows and input segments.

The data channels are raw ``Pipe`` connections, not ``mp.Queue``: a
queue ``put`` hands the message to a feeder *thread* that must win the
GIL before anything hits the wire, which roughly doubles round-trip
latency under load.  A ``Connection.send`` pickles and writes in the
calling thread.  Sends are serialized per shard with a lock; each
receive side has exactly one reader thread.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing as mp
import threading
import time
from typing import Callable, Iterable, NamedTuple, Optional

from .. import obs
from ..obs.merge import apply_metrics_delta
from .core import OrchestratorStopped
from .procworker import worker_main
from .sharding import Job, OverloadError, ShardRing, WorkerLostError, _complete
from .shm_store import SegmentAttachments, ShmTensorStore, unlink_segments

__all__ = ["ProcessShardPool"]

#: how worker processes start: a fresh interpreter, never a fork of a
#: front end that holds locks and serving threads
START_METHOD = "spawn"

#: seconds a worker may take to acknowledge a control command (boot
#: included) before the pool gives up on it
BOOT_TIMEOUT_S = 60.0

class _Pending(NamedTuple):
    """One in-flight dispatch awaiting its result message."""

    job: Job
    rows: int
    input_segment: str
    shard_id: int


class _Shard:
    """Front-end state for one worker process."""

    def __init__(self, shard_id: int, ctx, config: dict, depth_gauge) -> None:
        self.id = shard_id
        # this shard's series of repro_shard_queue_depth, bound once
        self.m_depth = depth_gauge.labels(shard=str(shard_id))
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

    def start(self) -> None:
        with self._state_lock:
            if self._running:
                return
            self._store = ShmTensorStore(prefix="repro_fe")
            self._shards = [
                _Shard(i, self._ctx, self._config, self._m_depth)
                for i in range(self.num_shards)
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
            self._fail(shard)  # whatever a wedged collector left behind
            for conn in (shard.req_send, shard.res_recv, shard.conn):
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        if self._store is not None:
            self._store.unlink_all()
        for shard in shards:
            shard.m_depth.set(0)

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
        shard.m_depth.set(depth)

    def _release(self, shard: _Shard, rows: int) -> None:
        with shard.cond:
            shard.depth -= rows
            depth = shard.depth
            shard.cond.notify_all()
        shard.m_depth.set(depth)

    # -- dispatch ------------------------------------------------------------------

    @staticmethod
    def claim() -> bool:
        """False: in process mode every forward runs on a worker."""
        return False

    def dispatch(self, jobs: Iterable[Job]) -> None:
        """Stage and send ``(name, version, x, stacked, tag, on_done)`` jobs.

        ``x`` rides shared memory and reaches the model whole — unless
        ``stacked``: then it is a block of request rows served as one
        vectorized forward.  The stacked jobs bound for
        one shard share one wire message; any other job is one request
        and travels alone.  ``on_done([(tag, output,
        error)])`` covers each job once, from a collector thread — or
        right here when the job never leaves the front end (admission
        shed, staging failure, pool stopped); the other jobs proceed.
        """
        staged: dict[int, list[tuple]] = {}
        for job in jobs:
            name, version, x, stacked, tag, on_done = job
            try:
                if not self._running:
                    raise OrchestratorStopped("serving pool is not running")
                shard = self._shards[self.ring.shard_for(name, version)]
                items = staged.setdefault(shard.id, [])
                rows = int(x.shape[0]) if stacked else 1
                self._admit(shard, rows, functools.partial(self._send, shard, items))
                try:
                    payload = self._store.put(x)
                except Exception:
                    self._release(shard, rows)
                    raise
            except Exception as exc:  # noqa: BLE001 - fails this job only
                on_done([(tag, None, exc)])
                continue
            req_id = next(self._req_ids)
            with self._pending_lock:
                self._pending[req_id] = _Pending(job, rows, payload.segment, shard.id)
            kind = "rows" if stacked else "one"
            items.append((kind, req_id, name, int(version), payload))
            if not stacked:
                # a request travels alone, so its admission slot frees as
                # soon as it is served, not when a whole burst is
                self._send(shard, items)
        for shard_id, items in staged.items():
            self._send(self._shards[shard_id], items)

    def _send(self, shard: _Shard, items: list[tuple]) -> None:
        """Ship and clear the staged ``items`` as one ``("many", ...)`` message.

        Output segments the collector finished reading ride along for
        recycling, and pending memo purges ride along too.  If the worker
        is gone (or ``stop`` raced the send), the items fail at once.
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
            if self._running:
                return
        except (BrokenPipeError, OSError):
            # the piggybacked names and purges are dropped with the
            # worker: its segments are cleaned up wholesale on the
            # crash/stop path
            pass
        # lost the worker, or raced stop(), whose sweep may have run
        # before our inserts: finish the handshakes it missed ourselves
        self._fail(shard, [item[1] for item in sent])

    def _fail(self, shard: _Shard, req_ids: Optional[list[int]] = None) -> None:
        """Fail ``shard``'s pending dispatches (all, or those in ``req_ids``)
        with :class:`WorkerLostError` while the pool runs — the worker is
        gone — else with :class:`OrchestratorStopped`."""
        with self._pending_lock:
            if req_ids is None:
                req_ids = [
                    req_id
                    for req_id, pending in self._pending.items()
                    if pending.shard_id == shard.id
                ]
            failed = [self._pending.pop(req_id, None) for req_id in req_ids]
        if self._running:
            error, message = WorkerLostError, f"shard {shard.id} worker exited"
        else:
            error, message = OrchestratorStopped, "serving pool stopped"
        failed = [pending for pending in failed if pending is not None]
        self._settle(shard, failed, [(None, error(message)) for _ in failed])

    def _settle(self, shard: _Shard, pendings: list[_Pending], results: list) -> None:
        """Finish ``shard``'s dispatches with their ``(output, error)`` results.

        Their admission rows and input segments go back first — the
        worker is done reading the inputs — then every waiter completes.
        """
        rows = 0
        for pending in pendings:
            rows += pending.rows
            self._store.release(pending.input_segment)
        if rows:
            self._release(shard, rows)
        _complete([pending.job for pending in pendings], results)

    # -- result collection ---------------------------------------------------------

    def _resolve(
        self, shard: _Shard, attachments: SegmentAttachments, entries: list[tuple]
    ) -> None:
        """Complete one ``manyok``'s ``ok``/``err`` entries."""
        with self._pending_lock:
            pendings = [self._pending.pop(entry[1], None) for entry in entries]
        settled, results, recycle = [], [], []
        for (kind, _, payload), pending in zip(entries, pendings):
            if pending is None:
                continue  # stop() already failed this waiter
            settled.append(pending)
            if kind == "ok":
                results.append((attachments.take(payload), None))
                recycle.append(payload.segment)
            else:
                results.append((None, payload))
        self._settle(shard, settled, results)
        if recycle:
            # stash for the next request to carry back (piggyback
            # recycling: no pipe write of its own)
            with shard.piggyback_lock:
                shard.recycle_pending.extend(recycle)

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
                self._resolve(shard, attachments, item[1])
            elif kind == "metrics":
                apply_metrics_delta(obs.get_registry(), item[2])
            elif kind == "bye":
                # the worker's output segments are ours now
                attachments.close_all()
                unlink_segments(item[2])
                break
        # the worker is gone: its unanswered requests never will be, so
        # their waiters fail now rather than at their timeouts
        self._fail(shard)
