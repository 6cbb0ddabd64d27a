"""Static/dynamic cross-validation of the lock-order graph.

The static graph (:mod:`~.graph`) and the runtime recorder
(:class:`repro.obs.locks.LockOrderRecorder`) answer the same question —
in what order does this code acquire its locks — from independent
evidence, exactly like the region-I/O cross-validation in
:mod:`repro.static.crossval`:

* a **dynamic-only** edge means a running thread nested two locks in an
  order the analyzer never derived — a blind spot in the static model
  (an unmodeled call path, monkey-patching, locks passed around as
  values), reported as an **error** (CC401);
* a **static-only** edge means the analyzer sees a nesting the test
  traffic never exercised — untested lock ordering, reported as
  **info** (CC402) so coverage gaps are visible without failing CI.

Agreement (every recorded edge present in the static graph) is the
precondition for trusting the static cycle/deadlock verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..diagnostics import Diagnostic, Severity, diagnostic
from .graph import LockOrderGraph

__all__ = ["LockOrderCrossValidation", "cross_validate_lock_orders"]


@dataclass(frozen=True)
class LockOrderCrossValidation:
    """Both edge sets plus the disagreement diagnostics."""

    static_edges: tuple[tuple[str, str], ...]
    dynamic_edges: tuple[tuple[str, str], ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def agrees(self) -> bool:
        """True when no dynamic edge escaped the static graph."""
        return not any(d.severity >= Severity.ERROR for d in self.diagnostics)

    def summary(self) -> str:
        status = ("agree" if self.agrees
                  else f"{len([d for d in self.diagnostics if d.severity >= Severity.ERROR])} dynamic-only edge(s)")
        return (
            f"lock-order cross-validation: {status}; "
            f"static={len(self.static_edges)} edge(s) "
            f"dynamic={len(self.dynamic_edges)} edge(s)"
        )


def cross_validate_lock_orders(
    graph: LockOrderGraph,
    recorded: Mapping[tuple[str, str], int],
) -> LockOrderCrossValidation:
    """Diff recorded acquisition orders against the static graph."""
    static_edges = graph.edge_set()
    dynamic_edges = frozenset(recorded)

    diags: list[Diagnostic] = []
    for held, acquired in sorted(dynamic_edges - static_edges):
        count = recorded[(held, acquired)]
        diags.append(diagnostic(
            "CC401",
            (
                f"runtime acquired {acquired} while holding {held} "
                f"({count} time(s)) but the static lock-order graph has no "
                "such edge — the analyzer has a blind spot on this path"
            ),
            region=acquired,
        ))
    for held, acquired in sorted(static_edges - dynamic_edges):
        site = graph.edges[(held, acquired)][0]
        diags.append(diagnostic(
            "CC402",
            (
                f"static edge {held} -> {acquired} "
                f"({site.cls}.{site.method} at {site.file}:{site.line}) was "
                "never exercised by the recorded traffic — untested lock "
                "nesting"
            ),
            region=acquired,
            file=site.file,
            line=site.line,
        ))

    return LockOrderCrossValidation(
        static_edges=tuple(sorted(static_edges)),
        dynamic_edges=tuple(sorted(dynamic_edges)),
        diagnostics=tuple(diags),
    )
