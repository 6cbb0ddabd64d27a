"""Static/dynamic cross-validation of region I/O identification.

The dynamic extractor (trace → DDDG → :func:`classify_io`) and the static
analyzer (:mod:`repro.static.inference`) answer the same question — which
variables are the region's inputs and outputs — from independent evidence.
Running both and diffing the answers catches exactly the failures each
side is blind to:

* a **dynamic-only** input/output means the trace observed dataflow the
  AST pass missed — a hole in the static model (or monkey-business like
  ``exec``), reported as an **error**;
* a **static-only** input/output means the AST sees a read/write the
  example trace never exercised — usually an input-dependent branch, so
  the training samples may not cover that path; reported as a **warning**.

Agreement on both sets is the preflight's strongest signal that the
annotation, the tracer and the analyzer all describe the same region.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..extract.dddg import build_dddg
from ..extract.directives import get_region_spec
from ..extract.tracer import RegionTracer
from .diagnostics import Diagnostic, diagnostic
from .inference import StaticRegionReport, infer_region_fn

__all__ = ["CrossValidation", "cross_validate"]

_RULES = {
    "static_only_input": "SF301",
    "dynamic_only_input": "SF302",
    "static_only_output": "SF303",
    "dynamic_only_output": "SF304",
}


@dataclass(frozen=True)
class CrossValidation:
    """Both answers plus the disagreement diagnostics."""

    region_name: str
    static_inputs: tuple[str, ...]
    dynamic_inputs: tuple[str, ...]
    static_outputs: tuple[str, ...]
    dynamic_outputs: tuple[str, ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def agrees(self) -> bool:
        return not self.diagnostics

    def summary(self) -> str:
        status = "agree" if self.agrees else f"{len(self.diagnostics)} disagreement(s)"
        return (
            f"cross-validation {self.region_name!r}: {status}; "
            f"inputs static={list(self.static_inputs)} "
            f"dynamic={list(self.dynamic_inputs)}; "
            f"outputs static={list(self.static_outputs)} "
            f"dynamic={list(self.dynamic_outputs)}"
        )


def _diff(
    kind: str,
    names: set[str],
    region: str,
    report: StaticRegionReport,
    filename: Optional[str],
) -> list[Diagnostic]:
    side, _, what = kind.partition("_only_")
    other = "dynamic trace" if side == "static" else "static analysis"
    return [
        diagnostic(
            _RULES[kind],
            (
                f"{side}-only {what} {name!r}: identified by "
                f"{side} analysis but not by the {other}"
            ),
            region=region,
            file=filename,
            line=report.lineno,
        )
        for name in sorted(names)
    ]


def cross_validate(
    region_fn,
    example_inputs: Mapping[str, Any],
    *,
    dddg_workers: int = 1,
) -> CrossValidation:
    """Trace the region on ``example_inputs`` and diff dynamic vs static I/O.

    Inputs are compared as *parameters read at version 0* on both sides
    (before the dynamic side's data-type filtering, which needs runtime
    values the static side deliberately never looks at); outputs as
    *written ∩ live-after*.
    """
    spec = get_region_spec(region_fn)
    report = infer_region_fn(region_fn)
    filename = inspect.getsourcefile(region_fn)

    tracer = RegionTracer(region_fn)
    _, trace = tracer.trace(**example_inputs)
    dddg = build_dddg(trace, workers=dddg_workers)
    live = spec.live

    params = set(report.params)
    dynamic_inputs = frozenset(dddg.root_reads) & params
    static_inputs = frozenset(report.inputs)
    dynamic_outputs = frozenset(dddg.written) & live
    static_outputs = frozenset(report.outputs)

    diags: list[Diagnostic] = []
    diags += _diff("static_only_input", set(static_inputs - dynamic_inputs),
                   spec.name, report, filename)
    diags += _diff("dynamic_only_input", set(dynamic_inputs - static_inputs),
                   spec.name, report, filename)
    diags += _diff("static_only_output", set(static_outputs - dynamic_outputs),
                   spec.name, report, filename)
    diags += _diff("dynamic_only_output", set(dynamic_outputs - static_outputs),
                   spec.name, report, filename)

    return CrossValidation(
        region_name=spec.name,
        static_inputs=tuple(sorted(static_inputs)),
        dynamic_inputs=tuple(sorted(dynamic_inputs)),
        static_outputs=tuple(sorted(static_outputs)),
        dynamic_outputs=tuple(sorted(dynamic_outputs)),
        diagnostics=tuple(diags),
    )
