"""Worker-process entry point for the sharded serving runtime.

One worker process owns one shard of the consistent-hash ring: every
``(name, version)`` the ring maps here is registered into this process
(shipped pre-pickled over the control pipe) and served from this
process only.  Serving itself is the
:class:`~repro.runtime.core.ServingCore` that thread mode runs too —
model replicas, compiled plans, ``batch_invariant()`` forwards, row
checks and forward metrics — so thread-mode and process-mode outputs are
byte-identical for ``batch_invariant()`` models.  The core's plan cache
warms lazily from the shared on-disk tier.  This module adds only the
transport around it.

Wire protocol (all messages are small picklable tuples over raw
``Pipe`` connections — see :mod:`~repro.runtime.procpool` for why not
``mp.Queue`` — while tensors ride in shared memory, referenced by
:class:`~repro.runtime.shm_store.ShmHandle`):

* request pipe (front-end → worker): always
  ``("many", [subitems], recycled_segment_names, purges)``, answered
  with one ``manyok`` (one pipe write, one reader wake-up).  Each subitem
  is ``("one", req_id, name, version, handle)`` — one request's tensor,
  which travels alone — ``("rows", req_id, name, version, handle)`` — a
  stacked ``(B, F)`` block of a bulk call; one message carries every
  block bound for this shard.  A message's subitems are served together by
  :meth:`~repro.runtime.core.ServingCore.serve_many`.  The recycled
  names are output segments the front-end finished reading, piggybacked
  on the next request instead of riding a pipe of their own.  The purges
  are ``(name, version)`` pairs whose negative compile memos an
  activation dropped; they apply before the message's subitems.
* result pipe (worker → front-end):
  ``("manyok", [entries])`` — one ``("ok", req_id, handle)`` or
  ``("err", req_id, exception)`` entry per subitem (a ``rows`` block
  whose rows were served one by one answers ``err`` with a
  :class:`~repro.runtime.core.RowResults`) — plus
  ``("metrics", worker_id, delta)`` / ``("bye", worker_id, segment_names)``.
  A worker that stops answering while its pool runs is lost: the front
  end fails that shard's unanswered requests at once.
* control pipe: ``("ping",)``, ``("register", name, version, blob,
  batchable, digest)``, ``("stop",)`` — each acknowledged with
  ``("ok",)``.

The core's metrics accumulate on this process's own registry and ship
periodically as *deltas* (:class:`~repro.obs.merge.MetricsDeltaTracker`)
through the result pipe, so the front-end's merged registry reads like
single-process serving.

Output segments are pooled (``tracked=False``): at shutdown the worker
closes its mappings and transfers ownership of the segment names to the
front-end inside the ``bye`` message — unlinking them locally would
race the collector, which may not yet have read the last results.
"""

from __future__ import annotations

import pickle
import time

from .. import obs
from ..obs.merge import MetricsDeltaTracker
from .core import RowResults, ServingCore
from .shm_store import SegmentAttachments, ShmTensorStore

__all__ = ["worker_main"]

#: seconds between metric-delta flushes to the front end
METRICS_INTERVAL_S = 0.5


def _picklable(exc: Exception) -> Exception:
    """The exception itself if it survives pickling, else a summary.

    A :class:`~repro.runtime.core.RowResults` keeps its row outputs and
    checks each row's error on its own.
    """
    if isinstance(exc, RowResults):
        return RowResults(
            [(out, err if err is None else _picklable(err)) for out, err in exc.results]
        )
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickle failure means: summarize
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _register(core: ServingCore, name, version, blob, batchable, digest) -> None:
    """Unpickle one shipped model version into the core."""
    obj = pickle.loads(blob)
    package = obj if hasattr(obj, "predict") else None
    predict = obj.predict if package is not None else obj
    core.register(
        name, version, predict, batchable=batchable, package=package, digest=digest
    )


def worker_main(worker_id: int, conn, req_recv, res_send, config: dict) -> None:
    """Run one shard's serving loop until a ``stop`` command arrives."""
    obs.configure(enabled=bool(config.get("telemetry", True)), reset=True)
    core = ServingCore(
        batch_invariant=config.get("batch_invariant", True),
        compile_plans=config.get("compile_plans", True),
        plan_cache_dir=config.get("plan_cache_dir"),
    )
    out_store = ShmTensorStore(prefix=f"repro_w{worker_id}", tracked=False)
    attachments = SegmentAttachments()
    tracker = MetricsDeltaTracker(obs.get_registry())

    def serve_item(item: tuple) -> None:
        """One coalesced request in, one coalesced response out.

        Reclaims the piggybacked recycled output segments, applies the
        piggybacked memo purges, serves every subitem through
        :meth:`~repro.runtime.core.ServingCore.serve_many`, then answers
        with a single ``manyok``: the synchronous pipe-write wake-up (the
        dominant fixed cost on a busy box) is paid once per burst instead
        of once per group — and the recycle traffic costs no writes at
        all.
        """
        _, subitems, recycled, purges = item
        for segment in recycled:
            out_store.release(segment)
        for name, version in purges:
            core.purge(name, version)
        jobs = [
            (name, version, attachments.view(handle), kind == "rows")
            for kind, _, name, version, handle in subitems
        ]
        entries = []
        for sub, (output, error) in zip(subitems, core.serve_many(jobs)):
            if error is None:
                try:
                    entries.append(("ok", sub[1], out_store.put(output)))
                    continue
                except Exception as exc:  # noqa: BLE001 - e.g. /dev/shm full: this request only
                    error = exc
            entries.append(("err", sub[1], _picklable(error)))
        res_send.send(("manyok", entries))

    last_flush = time.monotonic()
    try:
        stopping = False
        while not stopping:
            # control first: registrations must land before requests that
            # reference them, and stop must win over a deep queue
            while conn.poll():
                try:
                    cmd = conn.recv()
                except (EOFError, OSError):
                    stopping = True  # front-end died; exit cleanly
                    break
                if cmd[0] == "stop":
                    stopping = True
                elif cmd[0] == "register":
                    _register(core, *cmd[1:])
                conn.send(("ok",))
                if stopping:
                    break
            if stopping:
                break
            try:
                if req_recv.poll(0.05):
                    serve_item(req_recv.recv())
                    # opportunistic drain: amortize the wait over a burst;
                    # a pending control command (a stop) wins over the rest
                    for _ in range(128):
                        if conn.poll() or not req_recv.poll():
                            break
                        serve_item(req_recv.recv())
            except (EOFError, BrokenPipeError, OSError):
                break  # front-end tore the pipes down; exit cleanly
            now = time.monotonic()
            if now - last_flush >= METRICS_INTERVAL_S:
                delta = tracker.delta()
                if delta is not None:
                    res_send.send(("metrics", worker_id, delta))
                last_flush = now
    finally:
        # close every mapping; the output names transfer to the front end
        attachments.close_all()
        names = out_store.detach_all()
        try:
            delta = tracker.delta()  # final flush: nothing goes uncounted
            if delta is not None:
                res_send.send(("metrics", worker_id, delta))
            res_send.send(("bye", worker_id, names))
        except (BrokenPipeError, OSError):  # pragma: no cover - dead front-end
            pass
        res_send.close()  # Connection.send already flushed to the pipe
