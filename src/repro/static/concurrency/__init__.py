"""Concurrency static analysis for the serving stack (CC rules).

Three analyses, in the spirit of Clang's thread-safety analysis, run
purely on the AST (nothing is imported):

* **guarded-by inference** (CC1xx) — which lock protects which instance
  field, from ``# cc: guarded-by`` annotations or from the dominant
  lock observed at write sites; accesses outside the guard are flagged;
* **lock-order graph** (CC2xx) — a whole-package graph of which locks
  are acquired while which are held, across method calls; cycles are
  potential deadlocks, non-reentrant re-acquisition is a self-deadlock;
* **condvar lints** (CC3xx) — ``wait()`` outside a predicate loop,
  wait/notify without the condition held, inline timeout arithmetic.

The static graph cross-validates against acquisition orders recorded at
runtime by :mod:`repro.obs.locks` (CC4xx), mirroring how the static
region I/O is checked against the dynamic DDDG.

This subpackage holds the analyzer only.  The CC rules run through the
one lint driver, :mod:`repro.static.linter` (``lint_module`` for a file,
directory or dotted target, ``lint_source`` for one in-memory module),
next to the SF rules and over the same parsed modules;
``repro.static.lock_order_graph`` gives the graph of a file or directory.
Entry points here: :func:`analyze_sources`, :func:`build_graph`,
:func:`check_package` and :func:`cross_validate_lock_orders`.
"""

from .analyze import AnnotationIssue, PackageAnalysis, analyze_sources
from .crossval import LockOrderCrossValidation, cross_validate_lock_orders
from .graph import EdgeSite, LockOrderGraph, Reentry, build_graph
from .model import parse_pragmas
from .rules import CC_RULES, check_package

__all__ = [
    "AnnotationIssue",
    "PackageAnalysis",
    "analyze_sources",
    "LockOrderCrossValidation",
    "cross_validate_lock_orders",
    "EdgeSite",
    "LockOrderGraph",
    "Reentry",
    "build_graph",
    "parse_pragmas",
    "CC_RULES",
    "check_package",
]
