"""Instrumented lock wrappers: the dynamic half of the concurrency analysis.

The static analyzer (:mod:`repro.static.concurrency`) derives a
lock-acquisition graph from the AST; this module records the orders a
*running* process actually acquires its locks in, so the two can be
cross-validated the same way the static region I/O is checked against the
dynamic DDDG (:mod:`repro.static.crossval`).  A dynamic edge the static
graph lacks means the analyzer has a blind spot; a static edge the test
suite never exercises means untested lock nesting.

Wrappers are **opt-in** and zero-cost when unused: production code keeps
constructing plain :mod:`threading` primitives, and a test (or a debugging
session) swaps them for tracked ones after construction::

    from repro.obs.locks import instrument_object, RECORDER

    orc = Orchestrator()
    instrument_object(orc)           # wraps _lock, _state_lock, ...
    instrument_object(orc._pool._queue)  # the thread pool's queue condvar
    ... traffic ...
    RECORDER.edges()                 # {("Orchestrator._state_lock",
                                     #   "_RequestQueue._cond"): count, ...}

Lock names follow the static analyzer's identity convention —
``ClassName.attr`` — so recorded edges unify with the static graph's nodes
without translation.  Every tracked acquisition also feeds two latency
histograms on the process registry, labelled by lock name:

* ``repro_lock_wait_seconds`` — time spent waiting to acquire (plus
  condvar ``wait`` time, which is time waiting for the lock + predicate);
* ``repro_lock_held_seconds`` — time between acquire and release.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Mapping, Optional

from . import get_registry

__all__ = [
    "LockOrderRecorder",
    "RECORDER",
    "TrackedLock",
    "TrackedCondition",
    "instrument_object",
    "tracked_class_name",
]

_LOCK_TYPE = type(threading.Lock())
_RLOCK_TYPE = type(threading.RLock())


class LockOrderRecorder:
    """Process-wide log of (held-lock -> acquired-lock) order edges.

    Each thread keeps its own held stack; an acquisition of ``B`` while
    ``A`` is held records the edge ``A -> B``.  Reentrant re-acquisitions
    do not record self-edges (an RLock cannot deadlock against itself).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: dict[tuple[str, str], int] = {}  # cc: guarded-by(_lock)
        self._tls = threading.local()

    def _held_stack(self) -> list[str]:
        stack = getattr(self._tls, "held", None)
        if stack is None:
            stack = self._tls.held = []
        return stack

    def held(self) -> tuple[str, ...]:
        """Locks the calling thread currently holds (acquisition order)."""
        return tuple(self._held_stack())

    def on_acquire(self, name: str) -> None:
        stack = self._held_stack()
        new_edges = [
            (held, name) for held in dict.fromkeys(stack) if held != name
        ]
        stack.append(name)
        if new_edges:
            with self._lock:
                for edge in new_edges:
                    self._edges[edge] = self._edges.get(edge, 0) + 1

    def on_release(self, name: str) -> None:
        stack = self._held_stack()
        # release the innermost matching hold (LIFO discipline)
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    def edges(self) -> dict[tuple[str, str], int]:
        """Every recorded (held, acquired) pair with its observation count."""
        with self._lock:
            return dict(self._edges)

    def reset(self) -> None:
        with self._lock:
            self._edges.clear()


#: Default process-global recorder every tracked lock reports to.
RECORDER = LockOrderRecorder()


def _histograms():
    registry = get_registry()
    wait = registry.histogram(
        "repro_lock_wait_seconds",
        "Seconds spent waiting to acquire a tracked lock",
        labels=("lock",),
    )
    held = registry.histogram(
        "repro_lock_held_seconds",
        "Seconds a tracked lock was held per acquire/release pair",
        labels=("lock",),
    )
    return wait, held


class TrackedLock:
    """Wrapper around ``threading.Lock``/``RLock`` that records orders.

    Context-manager and ``acquire``/``release`` compatible, so it can be
    swapped into any attribute that held the plain primitive.
    """

    def __init__(
        self,
        inner,
        name: str,
        *,
        recorder: Optional[LockOrderRecorder] = None,
    ) -> None:
        self._inner = inner
        self.name = name
        self._recorder = recorder if recorder is not None else RECORDER
        self._m_wait, self._m_held = _histograms()
        self._tls = threading.local()

    def _entry_times(self) -> list[float]:
        times = getattr(self._tls, "times", None)
        if times is None:
            times = self._tls.times = []
        return times

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        start = time.perf_counter()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            now = time.perf_counter()
            self._m_wait.observe(now - start, lock=self.name)
            self._recorder.on_acquire(self.name)
            self._entry_times().append(now)
        return acquired

    def release(self) -> None:
        times = self._entry_times()
        self._inner.release()
        self._recorder.on_release(self.name)
        if times:
            self._m_held.observe(time.perf_counter() - times.pop(), lock=self.name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrackedLock {self.name} wrapping {self._inner!r}>"


class TrackedCondition(TrackedLock):
    """Tracked ``threading.Condition``: lock tracking plus condvar verbs.

    ``wait`` time is observed into ``repro_lock_wait_seconds`` — while a
    thread sits in ``wait`` it is, from the caller's perspective, waiting
    to (re)own the lock with the predicate true.
    """

    def wait(self, timeout: Optional[float] = None) -> bool:
        start = time.perf_counter()
        notified = self._inner.wait(timeout)
        self._m_wait.observe(time.perf_counter() - start, lock=self.name)
        return notified

    def wait_for(self, predicate, timeout: Optional[float] = None):
        start = time.perf_counter()
        result = self._inner.wait_for(predicate, timeout)
        self._m_wait.observe(time.perf_counter() - start, lock=self.name)
        return result

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


def tracked_class_name(obj: object) -> str:
    """The static analyzer's class component of a lock identity."""
    return type(obj).__name__


def instrument_object(
    obj: object,
    attrs: Optional[Iterable[str]] = None,
    *,
    recorder: Optional[LockOrderRecorder] = None,
    prefix: Optional[str] = None,
) -> Mapping[str, str]:
    """Swap ``obj``'s lock attributes for tracked wrappers, in place.

    Every instance attribute holding a ``Lock``, ``RLock`` or
    ``Condition`` (or only those named in ``attrs``) is replaced by a
    tracked equivalent named ``ClassName.attr`` — the same identity the
    static lock-order graph uses, so recorded edges cross-validate
    directly.  Already-tracked attributes are left alone.  Returns the
    ``{attr: lock name}`` mapping that was instrumented.
    """
    prefix = prefix if prefix is not None else tracked_class_name(obj)
    names = tuple(attrs) if attrs is not None else tuple(vars(obj))
    wrapped: dict[str, str] = {}
    for attr in names:
        value = getattr(obj, attr, None)
        if isinstance(value, (TrackedLock, TrackedCondition)):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(value, threading.Condition):
            setattr(obj, attr, TrackedCondition(value, name, recorder=recorder))
        elif isinstance(value, (_LOCK_TYPE, _RLOCK_TYPE)):
            setattr(obj, attr, TrackedLock(value, name, recorder=recorder))
        else:
            continue
        wrapped[attr] = name
    return wrapped
