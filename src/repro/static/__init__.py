"""Static surrogate-fitness analysis: preflight pass, linter, cross-validation.

This subpackage is the correctness-tooling layer in front of the dynamic
extractor.  It answers, *without running the region*, the two questions
the pipeline otherwise discovers the expensive way:

1. **What are the region's inputs and outputs?**
   (:mod:`~repro.static.inference` — AST read-before-write analysis plus
   liveness of the continuation.)
2. **Is the region fit to be replaced by a surrogate at all?**
   (:mod:`~repro.static.rules` — determinism, purity, argument-mutation
   and metadata-consistency rules with stable ``SFxxx`` ids.)

A third pass (:mod:`~repro.static.crossval`) diffs the static answer
against the dynamic DDDG of a traced region, so each analysis checks the
other.  The concurrency rules (:mod:`~repro.static.concurrency`, CC ids)
share the one lint driver (:mod:`~repro.static.linter`): a file,
directory or dotted target is parsed once and checked by both rule
families.  Entry points::

    from repro.static import lint_module       # file, directory or dotted name
    from repro.static import lint_source       # one in-memory module
    from repro.static import lint_region_fn    # a live region (SF rules)
    from repro.static import cross_validate    # static vs trace
    from repro.static import preflight_region  # pipeline hook
    from repro.static import lock_order_graph  # static lock-order graph

plus the ``repro lint`` CLI subcommand (see README.md).
"""

from .diagnostics import RULES, Diagnostic, LintReport, Severity
from .inference import (
    RegionMeta,
    StaticRegionReport,
    infer_function,
    infer_region_fn,
)
from .rules import run_rules
from .linter import (
    discover_regions,
    lint_module,
    lint_region_fn,
    lint_source,
    lock_order_graph,
    resolve_target,
)
from .crossval import CrossValidation, cross_validate
from .concurrency import (
    CC_RULES,
    LockOrderCrossValidation,
    LockOrderGraph,
    cross_validate_lock_orders,
)
from .preflight import (
    PREFLIGHT_MODES,
    PreflightError,
    PreflightWarning,
    preflight_region,
)

__all__ = [
    "Diagnostic", "LintReport", "Severity",
    "RegionMeta", "StaticRegionReport", "infer_function", "infer_region_fn",
    "RULES", "run_rules",
    "discover_regions", "lint_module", "lint_region_fn", "lint_source",
    "resolve_target",
    "CrossValidation", "cross_validate",
    "CC_RULES", "LockOrderCrossValidation", "LockOrderGraph",
    "cross_validate_lock_orders", "lock_order_graph",
    "PREFLIGHT_MODES", "PreflightError", "PreflightWarning",
    "preflight_region",
]
