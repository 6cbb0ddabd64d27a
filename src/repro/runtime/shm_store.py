"""Handle-pooled shared-memory tensor transport for process-mode serving.

Request and response tensors cross the front-end/worker process boundary
through ``multiprocessing.shared_memory`` segments.  Creating a segment
costs a syscall plus a resource-tracker round trip, so segments are
**leased and recycled**, never churned: :class:`ShmTensorStore` keeps
free lists of fixed power-of-two size classes, ``put`` leases the
smallest segment that fits (creating one only when the class is empty),
and ``release`` returns the segment to its free list for the next
tensor.  A steady-state serving loop therefore touches a small, fixed
set of segment names — which is also what lets the *reading* side
(:class:`SegmentAttachments`) cache its attachments and map each tensor
with zero syscalls.

Ownership is strictly one-sided: exactly one process unlinks any given
segment (``unlink_all`` at shutdown, or the front-end after an
ownership transfer).  All pool processes are spawned children, so they
share the parent's ``resource_tracker`` (spawn hands the tracker fd
down): its name cache is a single set for the whole tree.  Attaching
re-registers a name — a set no-op — so readers must *not* unregister on
attach; that would strip the owner's registration and make the eventual
``unlink`` warn about an unknown name.  Registration is dropped exactly
once, by the ``unlink`` call itself.

The only wire type is :class:`ShmHandle`, a named tuple of
``(segment, shape, dtype)`` that pickles small and reconstructs the
exact array on the far side via a zero-copy buffer view.
"""

from __future__ import annotations

import itertools
import os
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import NamedTuple, Optional

import numpy as np

from .. import obs

__all__ = [
    "ShmHandle",
    "ShmTensorStore",
    "SegmentAttachments",
    "unlink_segments",
]

#: smallest segment ever created; sub-page segments save nothing
MIN_SEGMENT_BYTES = 4096


class ShmHandle(NamedTuple):
    """Pickles-small reference to one tensor living in a shared segment."""

    segment: str
    shape: tuple[int, ...]
    dtype: str


def _untrack_segment(shm: shared_memory.SharedMemory) -> None:
    """Drop a segment's resource_tracker registration (creation-side only).

    Used for ``tracked=False`` pools whose segments outlive their
    creating process by design (ownership transfers to the front-end);
    the tree-exit leak sweep must not report them.  Never call this for
    a mere attachment — the tracker cache is shared across the spawn
    tree, so that would strip the owner's registration.
    """
    try:  # pragma: no cover - tracker internals differ across 3.x
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # noqa: BLE001 - best-effort; worst case is a warning
        pass


def _size_class(nbytes: int) -> int:
    """Round a byte count up to the pool's power-of-two size class."""
    return max(MIN_SEGMENT_BYTES, 1 << max(0, int(nbytes) - 1).bit_length())


def unlink_segments(names: list[str]) -> None:
    """Destroy segments by name (ownership-transfer cleanup).

    A worker that exits hands its output segments to the front-end via
    the names in its farewell message; the front-end — possibly never
    having attached some of them — removes them here so ``/dev/shm``
    stays clean.  Already-removed names are skipped silently.
    """
    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - racing owner
            pass


class ShmTensorStore:
    """Owner-side pool of reusable shared-memory segments.

    One store lives in each process that *produces* tensors for another
    process to read: the serving front-end owns the request-side pool,
    each worker owns its response-side pool.  Thread-safe — the
    front-end's submitter threads lease while collector threads release.
    """

    def __init__(self, prefix: str = "repro", *, tracked: bool = True) -> None:
        # the pid in the prefix makes leak audits trivial: any
        # ``/dev/shm/repro_*`` entry after shutdown is a bug
        self.prefix = f"{prefix}_{os.getpid()}"
        # tracked=False opts segments out of the (tree-shared)
        # resource_tracker at creation: a worker pool's segments outlive
        # the worker by design (ownership transfers to the front-end at
        # exit), and the front-end re-registers them on attach anyway
        self.tracked = bool(tracked)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}  # cc: guarded-by(_lock)
        self._free: dict[int, list[str]] = {}  # cc: guarded-by(_lock)
        self._leased: dict[str, int] = {}  # cc: guarded-by(_lock)
        self._closed = False  # cc: guarded-by(_lock)
        registry = obs.get_registry()
        self._m_segments = registry.gauge(
            "repro_shm_segments",
            "Shared-memory segments currently owned by this process's pools",
        )
        self._m_created = registry.counter(
            "repro_shm_segment_creates_total",
            "Shared-memory segments created (pool misses)",
        )

    # -- leasing ---------------------------------------------------------------

    def put(self, array: np.ndarray) -> ShmHandle:
        """Copy ``array`` into a leased segment; returns its wire handle."""
        arr = np.ascontiguousarray(array)
        segment = self._lease(max(arr.nbytes, 1))
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
        dst[...] = arr
        return ShmHandle(segment.name, tuple(arr.shape), arr.dtype.str)

    def _lease(self, nbytes: int) -> shared_memory.SharedMemory:
        size = _size_class(nbytes)
        with self._lock:
            if self._closed:
                raise RuntimeError("shm pool is closed")
            free = self._free.get(size)
            if free:
                name = free.pop()
                self._leased[name] = size
                return self._segments[name]
        segment = shared_memory.SharedMemory(
            create=True, size=size, name=f"{self.prefix}_{next(self._seq)}"
        )
        if not self.tracked:
            _untrack_segment(segment)
        with self._lock:
            if self._closed:  # lost the race against unlink_all
                segment.close()
                segment.unlink()
                raise RuntimeError("shm pool is closed")
            self._segments[segment.name] = segment
            self._leased[segment.name] = size
            count = len(self._segments)
        self._m_created.inc()
        self._m_segments.set(count)
        return segment

    def release(self, segment_name: str) -> None:
        """Return a leased segment to its size class for reuse."""
        with self._lock:
            size = self._leased.pop(segment_name, None)
            if size is None:
                return  # unknown or already released: idempotent
            self._free.setdefault(size, []).append(segment_name)

    # -- introspection / shutdown --------------------------------------------------

    def segment_names(self) -> list[str]:
        with self._lock:
            return sorted(self._segments)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "segments": len(self._segments),
                "leased": len(self._leased),
                "free": sum(len(v) for v in self._free.values()),
            }

    def detach_all(self) -> list[str]:
        """Close every mapping *without* unlinking; returns the names.

        The ownership-transfer exit path: a worker closes its mappings
        and ships the returned names to the front-end, which unlinks
        them (:func:`unlink_segments`) once every in-flight result that
        might still reference them has been consumed.
        """
        with self._lock:
            segments = list(self._segments.values())
            names = sorted(self._segments)
            self._segments.clear()
            self._free.clear()
            self._leased.clear()
            self._closed = True
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - caller leaked a view
                pass
        self._m_segments.set(0)
        return names

    def unlink_all(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._free.clear()
            self._leased.clear()
            self._closed = True
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - already gone
                pass
        self._m_segments.set(0)


class SegmentAttachments:
    """Reader-side cache of attached segments (single-threaded use).

    Each collector thread / worker loop owns one instance.  The owning
    pool recycles a bounded set of segment names, so after warm-up every
    ``view`` resolves through the cache without a syscall.  Views are
    read-only and only valid until ``close_all`` — callers copy before
    releasing the segment back to its owner.
    """

    def __init__(self) -> None:
        self._attached: dict[str, shared_memory.SharedMemory] = {}

    def view(self, handle: ShmHandle) -> np.ndarray:
        segment = self._attached.get(handle.segment)
        if segment is None:
            # attaching (re-)registers the name with the tree-shared
            # resource_tracker; that is a set no-op and must stay — the
            # single unregister happens at unlink time
            segment = shared_memory.SharedMemory(name=handle.segment)
            self._attached[handle.segment] = segment
        view: np.ndarray = np.ndarray(
            handle.shape, dtype=np.dtype(handle.dtype), buffer=segment.buf
        )
        view.flags.writeable = False
        return view

    def take(self, handle: ShmHandle) -> np.ndarray:
        """An independent (owned) copy of the tensor behind ``handle``."""
        return np.array(self.view(handle))

    def close_all(self, unlink: bool = False) -> Optional[list[str]]:
        """Detach everything; ``unlink=True`` additionally destroys segments.

        Unlinking is the crash-cleanup path: when a *worker* died without
        unlinking its pool, the front-end — the only surviving process
        that knows the names — removes them so ``/dev/shm`` stays clean.
        """
        names = sorted(self._attached)
        for name, segment in list(self._attached.items()):
            try:
                segment.close()
            except BufferError:  # pragma: no cover - caller leaked a view
                continue
            if unlink:
                try:
                    segment.unlink()
                except (FileNotFoundError, OSError):
                    pass  # the owner already removed it: the normal case
        self._attached.clear()
        return names
