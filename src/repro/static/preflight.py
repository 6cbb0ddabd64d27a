"""Pipeline preflight: refuse to acquire data for an unfit region.

A bad annotation — an impure region, hidden global state, metadata that
contradicts the code — used to surface only after an expensive
trace-and-train cycle, or worse, as a silently wrong surrogate.  The
preflight runs the static linter on the region *before*
:meth:`AutoHPCnet.build` spends anything, and (configurably) refuses to
continue on error-level findings.

Modes (``AutoHPCnetConfig.preflight``):

* ``"error"`` (default) — raise :class:`PreflightError` on error-level
  diagnostics; warnings are emitted via :mod:`warnings`;
* ``"warn"`` — emit everything as warnings, never refuse;
* ``"off"`` — skip the preflight entirely.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from .diagnostics import Diagnostic, Severity
from .linter import lint_region_fn

__all__ = [
    "PreflightError",
    "PreflightWarning",
    "preflight_region",
    "PREFLIGHT_MODES",
]

PREFLIGHT_MODES = ("off", "warn", "error")


class PreflightWarning(UserWarning):
    """Non-fatal static-preflight findings."""


class PreflightError(RuntimeError):
    """The region failed the static surrogate-fitness preflight."""

    def __init__(self, region: str, diagnostics: Sequence[Diagnostic]) -> None:
        self.region = region
        self.diagnostics = tuple(diagnostics)
        errors = [d for d in diagnostics if d.severity >= Severity.ERROR]
        lines = "\n".join(f"  {d.format()}" for d in errors)
        super().__init__(
            f"region {region!r} failed the static surrogate-fitness "
            f"preflight with {len(errors)} error(s):\n{lines}\n"
            "(fix the region/annotation, or set preflight='warn'/'off' in "
            "AutoHPCnetConfig to override)"
        )


def preflight_region(fn, *, mode: str = "error") -> list[Diagnostic]:
    """Lint ``fn`` and enforce ``mode``; returns the diagnostics found."""
    if mode not in PREFLIGHT_MODES:
        raise ValueError(
            f"unknown preflight mode {mode!r}; expected one of {PREFLIGHT_MODES}"
        )
    if mode == "off":
        return []
    report, diags = lint_region_fn(fn)
    errors = [d for d in diags if d.severity >= Severity.ERROR]
    if errors and mode == "error":
        raise PreflightError(report.region_name, diags)
    for d in diags:
        if d.severity >= Severity.WARNING:
            warnings.warn(d.format(), PreflightWarning, stacklevel=2)
    return diags
