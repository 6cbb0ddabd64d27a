"""Per-layer spans for perfbench's traced runs.

The program itself is not instrumented for this: a traced run wraps the
public functions each layer exposes (``Client.put_tensor``,
``Orchestrator.submit``, ``CompiledPlan.predict``, ``train_autoencoder``
...) with spans on one :class:`repro.obs.Tracer`, and removes the
wrappers again for the untraced pass it is compared against.

Self time is a span's duration minus the time its children cover.
Spans from other threads (the serving worker's ``CompiledPlan.predict``)
are children of the innermost span of the operation's own thread that
was open at their midpoint — usually the wait for the result — so a
worker forward is not counted twice.  What no span covers inside an
operation is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, Optional

from repro.obs import Span, Tracer


class LayerSpans:
    """Wraps public callables with spans; ``remove()`` restores them."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a version that runs inside span ``name``.

        ``observe(span, args, kwargs, result)`` may attach attributes to
        the span (rows per forward, cache hit) once the call returned.
        """
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = tracer.start_span(name)
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(span, args, kwargs, result)
                return result
            finally:
                tracer.end_span(span)

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def wrap_arg(self, owner: Any, attr: str, arg: str, name: str) -> None:
        """Time every call of the callable passed as keyword ``arg``."""
        original = getattr(owner, attr)
        tracer = self.tracer

        def timed_callable(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

            return inner

        @functools.wraps(original)
        def patched(*args, **kwargs):
            if kwargs.get(arg) is not None:
                kwargs[arg] = timed_callable(kwargs[arg])
            return original(*args, **kwargs)

        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class TimedEvent:
    """``threading.Event`` stand-in whose ``wait`` runs inside a span."""

    __slots__ = ("_event", "_tracer", "_name")

    def __init__(self, event, tracer: Tracer, name: str) -> None:
        self._event = event
        self._tracer = tracer
        self._name = name

    def set(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        with self._tracer.span(self._name):
            return self._event.wait(timeout)


class Breakdown:
    """Per-layer totals over many traced operations."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.attrs: dict[str, float] = defaultdict(float)
        self.unattributed_s = 0.0
        self.total_s = 0.0
        self.ops = 0

    def add(self, spans: Iterable[Span], root: Span) -> None:
        """Account one operation: ``root`` and every span it caused."""
        spans = [s for s in spans if s.finished]
        by_id = {s.span_id: s for s in spans}
        local = [s for s in spans if s.thread_id == root.thread_id]
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent_id in by_id:
                covered[s.parent_id] += s.duration
            elif s.thread_id != root.thread_id:
                host = _innermost(local, (s.start + s.end) / 2)
                if host is not None:
                    covered[host.span_id] += s.duration
        for s in spans:
            own = s.duration - covered[s.span_id]
            if s is root:
                self.unattributed_s += own
                continue
            self.self_s[s.name] += own
            self.incl_s[s.name] += s.duration
            self.calls[s.name] += 1
            for key, value in s.attributes.items():
                self.attrs[f"{s.name}.{key}"] += float(value)
        self.total_s += root.duration
        self.ops += 1

    def attributed_s(self) -> float:
        return sum(self.self_s.values()) + self.unattributed_s

    def report(self, title: str, untraced_s: float) -> list[str]:
        """Self time per layer, largest first, plus the remainder, summed
        and set against the same work's untraced end-to-end time."""
        total = self.total_s or 1.0
        lines = [f"  {title}: {self.ops} ops, {self.total_s:.4f} s traced"]
        for name, own in sorted(self.self_s.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"    {name:<32} self {own:10.4f} s {own / total:7.1%}"
                f"  ({self.calls[name]} calls)"
            )
        lines.append(
            f"    {'unattributed':<32} self {self.unattributed_s:10.4f} s "
            f"{self.unattributed_s / total:7.1%}"
        )
        lines.append(
            f"    layers + unattributed = {self.attributed_s():.4f} s against "
            f"{untraced_s:.4f} s untraced end to end "
            f"({self.attributed_s() / untraced_s - 1:+.1%})"
        )
        return lines


class OpRecorder:
    """Feeds each traced operation to a :class:`Breakdown`.

    The first ``keep`` operations stay on the tracer and are exported as
    a Chrome trace to ``path``; after that the tracer is emptied after
    every operation, so a long run holds one operation's spans at a time.
    """

    def __init__(self, tracer: Tracer, path, keep: int) -> None:
        self.tracer = tracer
        self.path = path
        self.keep = keep
        self.breakdown = Breakdown()
        self._ops = 0
        self._mark = 0

    def record(self, root: Span) -> None:
        spans = self.tracer.finished_spans()
        self.breakdown.add(spans[self._mark:], root)
        self._ops += 1
        if self._ops < self.keep:
            self._mark = len(spans)
            return
        if self._ops == self.keep:
            self.tracer.export_chrome_trace(self.path)
        self.tracer.reset()
        self._mark = 0

    def finish(self) -> Breakdown:
        if self._ops < self.keep:
            self.tracer.export_chrome_trace(self.path)
        return self.breakdown


def _innermost(local: list[Span], t: float) -> Optional[Span]:
    best = None
    for s in local:
        if s.start <= t <= s.end and (best is None or s.start >= best.start):
            best = s
    return best
