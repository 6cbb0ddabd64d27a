"""Diagnostic model of the static surrogate-fitness analyzer.

Every check in :mod:`repro.static` — metadata validation, purity linting,
static/dynamic cross-validation — reports its findings as
:class:`Diagnostic` records: a stable rule id, a severity, a source
location and a human-readable message.  :class:`LintReport` aggregates the
diagnostics for one lint target and renders them as text (one
``file:line:col`` line per finding, the format editors and CI annotate) or
as JSON (for machine consumption).

:data:`RULES` is the one catalogue of rule ids — the SF rules of
:mod:`repro.static.rules` and :mod:`repro.static.crossval`, and the CC
rules of :mod:`repro.static.concurrency` — and :func:`diagnostic` the one
constructor that gives each finding its catalogued severity.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Optional, Sequence

__all__ = ["Severity", "Diagnostic", "LintReport", "RULES", "diagnostic"]


class Severity(IntEnum):
    """Diagnostic severity; ordering allows threshold comparisons."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, label: str) -> "Severity":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {label!r}; expected one of "
                f"{[s.name.lower() for s in cls]}"
            ) from None

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    rule: str                      # stable id, e.g. "SF201"
    severity: Severity
    message: str
    region: Optional[str] = None   # region name the finding concerns
    file: Optional[str] = None
    line: int = 0
    col: int = 0

    def format(self) -> str:
        location = f"{self.file or '<unknown>'}:{self.line}:{self.col}"
        scope = f" [{self.region}]" if self.region else ""
        return f"{location}: {self.severity.label} {self.rule}{scope}: {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.label,
            "message": self.message,
            "region": self.region,
            "file": self.file,
            "line": self.line,
            "col": self.col,
        }


#: rule id -> (severity, one-line summary) — the documented catalogue
RULES: dict[str, tuple[Severity, str]] = {
    "SF001": (Severity.INFO, "no annotated regions found"),
    "SF002": (Severity.ERROR, "lint target cannot be resolved"),
    "SF003": (Severity.ERROR, "module cannot be decoded or parsed"),
    "SF101": (Severity.ERROR, "region has no non-empty name"),
    "SF102": (Severity.ERROR, "continuation_source does not parse"),
    "SF103": (Severity.ERROR, "live_after name never written by the region"),
    "SF104": (Severity.WARNING, "region outputs cannot be derived"),
    "SF105": (Severity.INFO, "returned name not declared live_after"),
    "SF106": (Severity.WARNING, "live_after inconsistent with continuation_source"),
    "SF107": (Severity.ERROR, "duplicate region name in module"),
    "SF201": (Severity.ERROR, "nondeterministic call in region"),
    "SF202": (Severity.ERROR, "I/O call in region"),
    "SF203": (Severity.ERROR, "global or nonlocal mutation in region"),
    "SF204": (Severity.ERROR, "mutation of input argument not declared live_after"),
    "SF205": (Severity.ERROR, "unsupported construct in region"),
    "SF206": (Severity.WARNING, "closure over region-local state"),
    "SF301": (Severity.WARNING, "static-only input (cross-validation)"),
    "SF302": (Severity.ERROR, "dynamic-only input (cross-validation)"),
    "SF303": (Severity.WARNING, "static-only output (cross-validation)"),
    "SF304": (Severity.ERROR, "dynamic-only output (cross-validation)"),
    "CC101": (Severity.ERROR, "write to guarded field without its lock"),
    "CC102": (Severity.WARNING, "read of guarded field without its lock"),
    "CC103": (Severity.WARNING, "field locked inconsistently"),
    "CC104": (Severity.ERROR, "requires()-method called without the lock"),
    "CC105": (Severity.ERROR, "unresolvable concurrency annotation"),
    "CC201": (Severity.ERROR, "lock-acquisition cycle (potential deadlock)"),
    "CC202": (Severity.ERROR, "non-reentrant lock re-acquired while held"),
    "CC203": (Severity.WARNING, "blocking wait while holding another lock"),
    "CC301": (Severity.ERROR, "condvar wait() outside a predicate loop"),
    "CC302": (Severity.ERROR, "condvar verb without the condition held"),
    "CC303": (Severity.WARNING, "inline timeout arithmetic in timed wait"),
    "CC401": (Severity.ERROR, "dynamic-only lock-order edge"),
    "CC402": (Severity.INFO, "static-only lock-order edge never exercised"),
}


def diagnostic(
    rule: str,
    message: str,
    *,
    node: Optional[ast.AST] = None,
    region: Optional[str] = None,
    file: Optional[str] = None,
    line: int = 0,
    col: int = 0,
) -> Diagnostic:
    """A finding of ``rule`` at its catalogued severity; an AST ``node``
    gives the line and column."""
    if node is not None:
        line, col = node.lineno, node.col_offset
    return Diagnostic(rule=rule, severity=RULES[rule][0], message=message,
                      region=region, file=file, line=line, col=col)


@dataclass
class LintReport:
    """All diagnostics produced for one lint target."""

    target: str
    regions: tuple[str, ...] = ()
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def filter(
        self,
        select: Sequence[str] = (),
        ignore: Sequence[str] = (),
    ) -> "LintReport":
        """A copy keeping only rules matching ``select`` minus ``ignore``.

        Codes are prefix-matched case-insensitively, so ``CC`` selects
        every concurrency rule and ``CC1`` just the guarded-by family.
        An empty ``select`` keeps everything.
        """
        selects = tuple(code.upper() for code in select)
        ignores = tuple(code.upper() for code in ignore)

        def keep(diag: Diagnostic) -> bool:
            if selects and not diag.rule.upper().startswith(selects):
                return False
            return not (ignores and diag.rule.upper().startswith(ignores))

        return LintReport(
            target=self.target,
            regions=self.regions,
            diagnostics=[d for d in self.diagnostics if keep(d)],
        )

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.at_least(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    def counts(self) -> dict[str, int]:
        counts = {"error": 0, "warning": 0, "info": 0}
        for d in self.diagnostics:
            counts[d.severity.label] += 1
        return counts

    def exit_code(self, fail_on: Severity = Severity.ERROR) -> int:
        """0 when clean at the threshold, 1 otherwise (CI contract)."""
        return 1 if self.at_least(fail_on) else 0

    # -- rendering --------------------------------------------------------

    def format_text(self) -> str:
        lines = [f"lint {self.target}: {len(self.regions)} region(s) "
                 f"{list(self.regions)}"]
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.file or "", d.line, d.rule),
        )
        lines.extend(d.format() for d in ordered)
        c = self.counts()
        lines.append(
            f"{c['error']} error(s), {c['warning']} warning(s), {c['info']} info"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "regions": list(self.regions),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "summary": self.counts(),
        }

    def format_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)
