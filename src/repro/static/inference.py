"""Static region dataflow: infer inputs/outputs without running the code.

The dynamic extractor (:mod:`repro.extract`) identifies a region's inputs
as the variables whose version-0 value is read in the traced DDDG, and its
outputs as the written variables that are live after the region.  This
module computes the same two sets *statically*, from the region function's
AST alone:

* **inputs** — parameters read before they are (must-)written, via a
  forward scan of the body that reuses the per-statement read/write sets
  of :func:`repro.extract.analysis.analyze_statement`;
* **outputs** — names written anywhere in the body, intersected with the
  live-after set of :func:`repro.extract.directives.resolve_live`, the
  precedence the dynamic extractor uses too.

Branches and loops are handled conservatively for the *read* side (every
reachable read counts) and precisely for the *kill* side (only writes that
must execute kill a later read), so the static input set over-approximates
any single dynamic trace — which is exactly what the cross-validation pass
(:mod:`repro.static.crossval`) exploits.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass
from typing import Optional

from ..extract.analysis import analyze_statement
from ..extract.directives import (
    function_ast,
    get_region_spec,
    resolve_live,
    returned_names,
)

__all__ = [
    "RegionMeta",
    "StaticRegionReport",
    "infer_function",
    "infer_region_fn",
    "function_params",
    "region_function",
]


@dataclass(frozen=True)
class RegionMeta:
    """The ``@code_region`` metadata as far as it is statically known.

    ``live_after=None`` (as opposed to ``()``) means the value could not be
    determined statically (e.g. a non-literal decorator argument); rules
    that depend on it are skipped rather than guessed at.
    """

    name: Optional[str] = None
    live_after: Optional[tuple[str, ...]] = None
    continuation_source: Optional[str] = None
    lineno: int = 0


@dataclass(frozen=True)
class StaticRegionReport:
    """Everything the static analyzer inferred about one region."""

    region_name: str
    function_name: str
    params: tuple[str, ...]
    inputs: tuple[str, ...]        # params read before must-written
    free_reads: tuple[str, ...]    # non-param, non-builtin read-before-write
    writes: tuple[str, ...]        # every name written anywhere in the body
    returns: tuple[str, ...]       # names of the final return statement
    live: Optional[tuple[str, ...]]  # resolved live-after set (None: unknown)
    outputs: tuple[str, ...]       # writes ∩ live
    lineno: int = 0


# -- helpers ---------------------------------------------------------------


def function_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """All parameter names of a function definition."""
    a = func.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        params.append(a.vararg.arg)
    if a.kwarg:
        params.append(a.kwarg.arg)
    return tuple(params)


def _comprehension_targets(stmt: ast.AST) -> frozenset[str]:
    """Names bound by comprehension generators anywhere under ``stmt``.

    Comprehensions have their own scope in Python 3, but the statement-level
    read/write analysis flattens them; excluding their targets keeps a
    generator variable from looking like a read-before-write free name.
    """
    targets: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                for name in ast.walk(gen.target):
                    if isinstance(name, ast.Name):
                        targets.add(name.id)
    return frozenset(targets)


class _BodyScan:
    """Forward scan: read-before-write and write sets of a statement list."""

    def __init__(self) -> None:
        self.reads_before_write: set[str] = set()
        self.writes: set[str] = set()

    def scan(self, body: list[ast.stmt], written: set[str]) -> set[str]:
        """Scan ``body`` given the must-written set on entry.

        Returns the must-written set on (normal) exit; mutates the
        instance's accumulated read/write sets.
        """
        for stmt in body:
            written = self._scan_stmt(stmt, written)
        return written

    # -- per-statement ----------------------------------------------------

    def _record(self, reads: set[str], writes: set[str],
                written: set[str], *, must: bool) -> set[str]:
        self.reads_before_write |= reads - written
        self.writes |= writes
        if must:
            written = written | writes
        return written

    def _simple(self, stmt: ast.stmt, written: set[str], *, must: bool = True) -> set[str]:
        info = analyze_statement(stmt, -1)
        comp = _comprehension_targets(stmt)
        return self._record(
            set(info.reads) - comp, set(info.writes) - comp, written, must=must
        )

    def _scan_stmt(self, stmt: ast.stmt, written: set[str]) -> set[str]:
        if isinstance(stmt, ast.If):
            written = self._simple(stmt, written, must=False)  # header test
            after_body = self.scan(stmt.body, set(written))
            after_else = self.scan(stmt.orelse, set(written))
            return written | (after_body & after_else)
        if isinstance(stmt, ast.For):
            written = self._simple(stmt, written, must=False)  # iter reads
            header = analyze_statement(stmt, -1)
            # the target is bound before each iteration of the body
            self.scan(stmt.body, written | set(header.writes))
            self.writes |= set(header.writes)
            self.scan(stmt.orelse, set(written))
            return written  # body/target writes are may-writes (0 iterations)
        if isinstance(stmt, ast.While):
            written = self._simple(stmt, written, must=False)  # test reads
            self.scan(stmt.body, set(written))
            self.scan(stmt.orelse, set(written))
            return written
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                reads = _expr_names(item.context_expr, ast.Load)
                writes = (
                    _expr_names(item.optional_vars, ast.Store)
                    if item.optional_vars is not None else set()
                )
                written = self._record(reads, writes, written, must=True)
            return self.scan(stmt.body, written)
        if isinstance(stmt, ast.Try):
            self.scan(stmt.body, set(written))
            for handler in stmt.handlers:
                bound = {handler.name} if handler.name else set()
                self.scan(handler.body, written | bound)
                self.writes |= bound
            self.scan(stmt.orelse, set(written))
            return self.scan(stmt.finalbody, written)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # a nested def only *binds* its name; its body runs later
            self.writes.add(stmt.name)
            return written | {stmt.name}
        return self._simple(stmt, written)


def _expr_names(node: ast.AST, ctx: type) -> set[str]:
    return {
        n.id for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)
    }


# -- public API ------------------------------------------------------------


def infer_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    meta: RegionMeta,
) -> StaticRegionReport:
    """Infer the input/output sets of one region function definition."""
    params = function_params(func)
    # scan with nothing pre-written: a param read before the body writes it
    # is an input, and any other read-before-write is a free (module) name
    scan = _BodyScan()
    scan.scan(func.body, set())
    rbw = scan.reads_before_write
    inputs = tuple(sorted(set(params) & rbw))
    free = tuple(
        sorted(
            name for name in rbw
            if name not in params and not hasattr(builtins, name)
        )
    )
    returns = returned_names(func)
    try:
        live = resolve_live(meta.live_after, meta.continuation_source, returns)
    except SyntaxError:
        live = None  # reported separately as a metadata diagnostic
    writes = tuple(sorted(scan.writes))
    outputs = (
        tuple(sorted(set(writes) & set(live))) if live is not None else ()
    )
    return StaticRegionReport(
        region_name=meta.name or func.name,
        function_name=func.name,
        params=params,
        inputs=inputs,
        free_reads=free,
        writes=writes,
        returns=returns,
        live=live,
        outputs=outputs,
        lineno=func.lineno,
    )


def region_function(fn) -> tuple[ast.FunctionDef | ast.AsyncFunctionDef, RegionMeta]:
    """A live ``@code_region`` function's definition AST and its metadata."""
    spec = get_region_spec(fn)
    func = function_ast(fn)
    meta = RegionMeta(
        name=spec.name,
        live_after=tuple(spec.live_after),
        continuation_source=spec.continuation_source,
        lineno=func.lineno,
    )
    return func, meta


def infer_region_fn(fn) -> StaticRegionReport:
    """Run static inference on a live ``@code_region`` function."""
    return infer_function(*region_function(fn))
