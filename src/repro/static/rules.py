"""Surrogate-fitness lint rules.

A code region is a candidate for neural-surrogate replacement only when it
behaves like a pure function of its declared inputs: deterministic, free of
I/O and hidden state, and mutating nothing the caller can observe except
the declared outputs (HPAC-ML and "Programming with Neural Surrogates"
both treat this as the defining property of a surrogate-able region).
These rules check that property — plus the consistency of the
``@code_region`` metadata the extractor relies on — on the AST, before any
trace-and-train cycle is spent.

Rule catalogue (ids are stable; see README.md "Static preflight"):

========  ========  =====================================================
id        severity  meaning
========  ========  =====================================================
SF001     info      no annotated regions found in the lint target
SF002     error     lint target cannot be resolved to a Python file
SF003     error     a module of the target cannot be decoded or parsed
SF101     error     region has no (statically known) non-empty name
SF102     error     ``continuation_source`` does not parse
SF103     error     ``live_after`` names a variable the region never
                    writes (and that is not a parameter passed through)
SF104     warning   outputs underivable: no ``live_after``, no
                    ``continuation_source``, and no named final return
SF105     info      final return names not declared in ``live_after``
SF106     warning   ``live_after`` disagrees with liveness of
                    ``continuation_source`` (both given)
SF107     error     duplicate region name inside one module
SF201     error     nondeterministic call (random/time/uuid/secrets/...)
SF202     error     I/O call (print/open/input, sys.std*, logging, ...)
SF203     error     global/nonlocal mutation (``global``/``nonlocal``
                    declaration, or element/attribute write to a name not
                    bound in the region)
SF204     error     in-place mutation of an input argument that is not
                    declared ``live_after``
SF205     error     unsupported construct (exec/eval/compile, dynamic
                    attribute access via [gs]etattr, globals()/locals(),
                    import inside the region, yield/await)
SF206     warning   nested function/lambda closes over region-local state
SF301     warning   static-only input (cross-validation, crossval.py)
SF302     error     dynamic-only input (cross-validation)
SF303     warning   static-only output (cross-validation)
SF304     error     dynamic-only output (cross-validation)
========  ========  =====================================================

Concurrency rules (CC1xx guarded-by, CC2xx lock order, CC3xx condvars,
CC4xx lock-order cross-validation) are catalogued in
:mod:`repro.static.concurrency.rules`; both families share the one
:data:`~repro.static.diagnostics.RULES` table.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator, Optional

from ..extract.liveness import live_in
from .diagnostics import Diagnostic, diagnostic
from .inference import RegionMeta, StaticRegionReport, function_params

__all__ = ["run_rules"]

# call-name denylists (matched against the dotted source text of the callee)
_NONDET_PREFIXES = (
    "random.", "np.random.", "numpy.random.", "secrets.", "uuid.",
)
_NONDET_EXACT = frozenset({
    "random", "default_rng",
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "os.urandom", "os.getrandom",
})
_IO_PREFIXES = ("sys.stdout.", "sys.stderr.", "sys.stdin.", "logging.")
_IO_EXACT = frozenset({
    "print", "input", "open", "breakpoint",
    "os.remove", "os.unlink", "os.rename", "os.makedirs", "os.mkdir",
    "os.system", "os.popen", "subprocess.run", "subprocess.Popen",
    "subprocess.call", "subprocess.check_output",
})
_UNSUPPORTED_EXACT = frozenset({
    "exec", "eval", "compile", "globals", "locals", "vars",
    "setattr", "getattr", "delattr", "__import__",
})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _local_bindings(func: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    """Names bound inside the function: params plus every plain-name store.

    Comprehension targets count too (harmlessly — they only ever *narrow*
    the global-mutation rule), but names bound by *nested* function bodies
    do not leak into the region scope.
    """
    bound: set[str] = set(function_params(func))
    skip_roots: set[int] = set()
    for node in ast.walk(func):
        if node is not func and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            for sub in ast.walk(node):
                skip_roots.add(id(sub))
            skip_roots.discard(id(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
    for node in ast.walk(func):
        if id(node) in skip_roots:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return frozenset(bound)


# -- metadata rules (SF1xx) ------------------------------------------------


def _metadata_rules(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    meta: RegionMeta,
    report: StaticRegionReport,
    filename: Optional[str],
) -> Iterator[Diagnostic]:
    region = report.region_name

    if meta.name is not None and not meta.name:
        yield diagnostic("SF101", "@code_region name is empty", node=func,
                         region=region, file=filename)

    continuation_live: Optional[frozenset[str]] = None
    if meta.continuation_source is not None:
        try:
            continuation_live = live_in(meta.continuation_source)
        except SyntaxError as exc:
            yield diagnostic(
                "SF102",
                f"continuation_source does not parse: {exc.msg} "
                f"(continuation line {exc.lineno})",
                node=func, region=region, file=filename,
            )

    writes = set(report.writes)
    for name in meta.live_after or ():
        if name not in writes and name not in report.params:
            yield diagnostic(
                "SF103",
                f"live_after name {name!r} is never written by the region "
                f"(writes: {sorted(writes) or 'none'})",
                node=func, region=region, file=filename,
            )

    if report.live is None:
        yield diagnostic(
            "SF104",
            "cannot derive outputs: no live_after, no continuation_source, "
            "and the final return does not name its values",
            node=func, region=region, file=filename,
        )

    if meta.live_after:
        for name in report.returns:
            if name not in meta.live_after:
                yield diagnostic(
                    "SF105",
                    f"returned name {name!r} is not declared live_after "
                    "(dropped from the surrogate's outputs)",
                    node=func, region=region, file=filename,
                )

    if meta.live_after and continuation_live is not None:
        declared = set(meta.live_after) & writes
        derived = set(continuation_live) & writes
        if declared != derived:
            yield diagnostic(
                "SF106",
                f"live_after {sorted(declared)} disagrees with liveness of "
                f"continuation_source {sorted(derived)}",
                node=func, region=region, file=filename,
            )


# -- purity / construct rules (SF2xx) --------------------------------------


def _call_rules(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    filename: Optional[str],
    region: str,
) -> Iterator[Diagnostic]:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        if dotted in _UNSUPPORTED_EXACT:
            yield diagnostic(
                "SF205",
                f"call to {dotted}() — dynamic execution/attribute access "
                "cannot be traced or replayed by a surrogate",
                node=node, region=region, file=filename,
            )
        elif dotted in _NONDET_EXACT or dotted.startswith(_NONDET_PREFIXES):
            yield diagnostic(
                "SF201",
                f"nondeterministic call {dotted}() — the region must be a "
                "deterministic function of its inputs",
                node=node, region=region, file=filename,
            )
        elif dotted in _IO_EXACT or dotted.startswith(_IO_PREFIXES):
            yield diagnostic(
                "SF202",
                f"I/O call {dotted}() — a surrogate cannot reproduce side "
                "effects",
                node=node, region=region, file=filename,
            )


def _construct_rules(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    meta: RegionMeta,
    report: StaticRegionReport,
    filename: Optional[str],
) -> Iterator[Diagnostic]:
    region = report.region_name
    local = _local_bindings(func)
    declared_live = set(meta.live_after or ())

    def base_name(target: ast.AST) -> Optional[str]:
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        return target.id if isinstance(target, ast.Name) else None

    def check_mutation(target: ast.AST) -> Iterator[Diagnostic]:
        """Element/attribute stores mutate the object the base name holds."""
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        base = base_name(target)
        if base is None:
            return
        kind = "element" if isinstance(target, ast.Subscript) else "attribute"
        if base in report.params:
            if base not in declared_live:
                yield diagnostic(
                    "SF204",
                    f"{kind} write mutates input argument {base!r}, which is "
                    "not declared live_after — the caller observes a side "
                    "effect the surrogate will not reproduce",
                    node=target, region=region, file=filename,
                )
        elif base not in local and not hasattr(builtins, base):
            yield diagnostic(
                "SF203",
                f"{kind} write mutates global {base!r} — hidden state makes "
                "the region non-replayable",
                node=target, region=region, file=filename,
            )

    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            yield diagnostic(
                "SF203",
                f"'global {', '.join(node.names)}' — the region writes "
                "module state",
                node=node, region=region, file=filename,
            )
        elif isinstance(node, ast.Nonlocal):
            yield diagnostic(
                "SF203",
                f"'nonlocal {', '.join(node.names)}' — the region writes "
                "enclosing-scope state",
                node=node, region=region, file=filename,
            )
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            getattr(node, "ctx", None), (ast.Store, ast.Del)
        ):
            yield from check_mutation(node)
        elif isinstance(node, ast.AugAssign):
            yield from check_mutation(node.target)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield diagnostic(
                "SF205",
                "import inside the region — move imports to module scope so "
                "the region stays a pure data transformation",
                node=node, region=region, file=filename,
            )
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            yield diagnostic(
                "SF205",
                "yield inside the region — generators cannot be replaced by "
                "a one-shot surrogate",
                node=node, region=region, file=filename,
            )
        elif isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            yield diagnostic(
                "SF205",
                "async construct inside the region — the tracer and runtime "
                "replay are synchronous",
                node=node, region=region, file=filename,
            )


def _closure_rules(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    filename: Optional[str],
    region: str,
) -> Iterator[Diagnostic]:
    outer = _local_bindings(func)
    for node in ast.walk(func):
        if node is func or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        inner_bound = set(
            function_params(node) if not isinstance(node, ast.Lambda)
            else [a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                  *node.args.kwonlyargs)]
        )
        body = node.body if isinstance(node.body, list) else [node.body]
        for sub in body:
            for name in ast.walk(sub):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    inner_bound.add(name.id)
        captured = sorted(
            name.id
            for sub in body
            for name in ast.walk(sub)
            if isinstance(name, ast.Name)
            and isinstance(name.ctx, ast.Load)
            and name.id in outer
            and name.id not in inner_bound
        )
        if captured:
            label = getattr(node, "name", "<lambda>")
            yield diagnostic(
                "SF206",
                f"nested {label!r} closes over region variables "
                f"{captured} — captured state is invisible to the tracer",
                node=node, region=region, file=filename,
            )


# -- entry point -----------------------------------------------------------


def run_rules(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    meta: RegionMeta,
    report: StaticRegionReport,
    filename: Optional[str] = None,
) -> list[Diagnostic]:
    """All per-region rule diagnostics for one region definition."""
    region = report.region_name
    diags = list(_metadata_rules(func, meta, report, filename))
    diags.extend(_call_rules(func, filename, region))
    diags.extend(_construct_rules(func, meta, report, filename))
    diags.extend(_closure_rules(func, filename, region))
    return diags
