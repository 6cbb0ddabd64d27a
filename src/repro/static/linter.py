"""Region discovery and the one lint driver.

:func:`lint_sources` turns ``(filename, source)`` pairs into one
:class:`LintReport`.  Each source is parsed once; the SF rules run on
every ``@code_region`` function of each module, and the CC analyzer runs
once over all the modules as one package, so lock-order edges and
``requires`` contracts cross file boundaries.  ``# cc: ignore(CCxxx)``
pragmas suppress matching CC findings on their line, and the CC findings
are ordered by file, line and rule.  Nothing is imported, so linting
untrusted or heavyweight modules is free of side effects; ``@code_region``
metadata is recovered from the decorator's literal arguments.

Entry points:

* :func:`lint_module` — a file, a directory (every ``*.py`` under it, as
  one package) or a dotted module name; the ``repro lint`` CLI;
* :func:`lint_source` — one in-memory module;
* :func:`lint_region_fn` — **runtime**: a live decorated function is
  analyzed via its attached :class:`RegionSpec` (authoritative metadata)
  and ``inspect``-recovered source, with line numbers mapped back to the
  defining file (the SF rules only; this is the build's preflight).
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import io
import os
import tokenize
from typing import Optional, Union

from .concurrency.analyze import PackageAnalysis, analyze_modules, analyze_sources
from .concurrency.graph import LockOrderGraph, build_graph
from .concurrency.rules import check_package
from .diagnostics import Diagnostic, LintReport, diagnostic
from .inference import (
    RegionMeta,
    StaticRegionReport,
    infer_function,
    region_function,
)
from .rules import run_rules

__all__ = [
    "collect_sources",
    "discover_regions",
    "lint_sources",
    "lint_source",
    "lint_region_fn",
    "lint_module",
    "lock_order_graph",
    "resolve_target",
]

_DECORATOR_NAMES = ("code_region",)


def _decorator_call(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Optional[ast.Call]:
    """The ``@code_region(...)`` decorator call, if present."""
    for deco in func.decorator_list:
        node = deco
        if isinstance(node, ast.Call):
            target = node.func
        else:
            target = node
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name in _DECORATOR_NAMES:
            return node if isinstance(node, ast.Call) else ast.Call(
                func=target, args=[], keywords=[]
            )
    return None


def _literal(node: ast.AST):
    """``ast.literal_eval`` that returns None instead of raising."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return None


def _meta_from_decorator(call: ast.Call, func: ast.FunctionDef) -> RegionMeta:
    name = None
    live_after: Optional[tuple[str, ...]] = ()
    continuation = None
    if call.args:
        value = _literal(call.args[0])
        name = value if isinstance(value, str) else None
    for kw in call.keywords:
        if kw.arg == "name":
            value = _literal(kw.value)
            name = value if isinstance(value, str) else None
        elif kw.arg == "live_after":
            value = _literal(kw.value)
            if value is None and not isinstance(kw.value, ast.Constant):
                live_after = None  # non-literal: statically unknown
            else:
                try:
                    live_after = tuple(str(v) for v in (value or ()))
                except TypeError:
                    live_after = None
        elif kw.arg == "continuation_source":
            value = _literal(kw.value)
            continuation = value if isinstance(value, str) else None
    return RegionMeta(
        name=name,
        live_after=live_after,
        continuation_source=continuation,
        lineno=func.lineno,
    )


def discover_regions(
    tree: ast.Module,
) -> list[tuple[ast.FunctionDef, RegionMeta]]:
    """All ``@code_region``-decorated function definitions in a module AST."""
    regions = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            call = _decorator_call(node)
            if call is not None:
                regions.append((node, _meta_from_decorator(call, node)))
    return regions


def _lint_one(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    meta: RegionMeta,
    filename: Optional[str],
) -> tuple[StaticRegionReport, list[Diagnostic]]:
    report = infer_function(func, meta)
    return report, run_rules(func, meta, report, filename)


def collect_sources(target: str) -> list[tuple[str, Union[str, bytes]]]:
    """``[(filename, source), ...]`` for a file, or for every ``*.py``
    under a directory (unreadable files there are skipped).

    A source is decoded as Python decodes it (its coding declaration,
    else UTF-8); one that cannot be decoded stays raw bytes, which do not
    parse either, so the linter reports the file (SF003) instead of
    failing on it.
    """
    if not os.path.isdir(target):
        return [(target, _read_source(target))]
    sources = []
    for root, dirs, files in os.walk(target):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            try:
                sources.append((path, _read_source(path)))
            except OSError:
                continue
    return sources


def _read_source(path: str) -> Union[str, bytes]:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        encoding, _ = tokenize.detect_encoding(io.BytesIO(raw).readline)
        return raw.decode(encoding)
    except (SyntaxError, UnicodeDecodeError, LookupError):
        return raw


def _lint_regions(
    tree: ast.Module, filename: str, report: LintReport
) -> list[str]:
    """SF rules over one module's regions; returns the region names."""
    names: list[str] = []
    seen: dict[str, int] = {}
    for func, meta in discover_regions(tree):
        static_report, diags = _lint_one(func, meta, filename)
        names.append(static_report.region_name)
        report.extend(diags)
        key = meta.name or static_report.region_name
        if key in seen:
            report.diagnostics.append(diagnostic(
                "SF107",
                f"duplicate region name {key!r} (first defined at "
                f"line {seen[key]})",
                region=key, file=filename, line=func.lineno,
            ))
        else:
            seen[key] = func.lineno
    return names


def _suppressed(diag: Diagnostic, analysis: PackageAnalysis) -> bool:
    """Whether a ``# cc: ignore`` pragma on the finding's line covers it."""
    if diag.file is None:
        return False
    codes = analysis.ignores.get(diag.file, {}).get(diag.line)
    if codes is None:
        return False
    return any(diag.rule == code or (code == "CC" and diag.rule.startswith("CC"))
               for code in codes)


def lint_sources(
    target: str, sources: list[tuple[str, Union[str, bytes]]]
) -> LintReport:
    """Lint ``[(filename, source), ...]`` as one package.

    A module that cannot be decoded or parsed is reported (SF003) and
    left out of the CC analysis.  SF001 is reported when the parsed
    modules hold no region at all: at the file when there is one, else
    at ``target``.
    """
    report = LintReport(target=target)
    modules: list[tuple[str, str, ast.Module]] = []
    names: list[str] = []
    for filename, source in sources:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            report.diagnostics.append(diagnostic(
                "SF003", f"module cannot be decoded or parsed: {exc.msg}",
                file=filename, line=exc.lineno or 0,
            ))
            continue
        modules.append((filename, source, tree))
        names.extend(_lint_regions(tree, filename, report))
    report.regions = tuple(names)
    if modules and not names:
        report.diagnostics.append(diagnostic(
            "SF001", "no @code_region-annotated functions found",
            file=modules[0][0] if len(modules) == 1 else target,
        ))

    analysis = analyze_modules(modules)
    graph, reentries = build_graph(analysis)
    report.extend(sorted(
        (d for d in check_package(analysis, graph, reentries)
         if not _suppressed(d, analysis)),
        key=lambda d: (d.file or "", d.line, d.rule),
    ))
    return report


def lint_source(source: str, filename: str = "<string>") -> LintReport:
    """Lint one in-memory module (SF and CC rules)."""
    return lint_sources(filename, [(filename, source)])


def lock_order_graph(target: str) -> LockOrderGraph:
    """The static lock-order graph of a file or package directory."""
    graph, _ = build_graph(analyze_sources(collect_sources(target)))
    return graph


def lint_region_fn(fn) -> tuple[StaticRegionReport, list[Diagnostic]]:
    """Lint one live ``@code_region`` function using its attached spec."""
    func, meta = region_function(fn)
    return _lint_one(func, meta, inspect.getsourcefile(fn) or "<unknown>")


def resolve_target(target: str) -> Optional[str]:
    """Map a lint target (file path or dotted module name) to a file path.

    Returns None when the target cannot be resolved.  Dotted names are
    located with :func:`importlib.util.find_spec` — the module file is
    found but **not** imported.
    """
    if os.path.isfile(target):
        return target
    if "/" in target or target.endswith(".py"):
        return None
    try:
        spec = importlib.util.find_spec(target)
    except (ImportError, ValueError, ModuleNotFoundError):
        return None
    if spec is None or not spec.origin or spec.origin == "built-in":
        return None
    return spec.origin


def lint_module(target: str) -> LintReport:
    """Lint a file, directory, or dotted module name; never imports it."""
    if os.path.isdir(target):
        return lint_sources(target, collect_sources(target))
    path = resolve_target(target)
    if path is None:
        report = LintReport(target=target)
        report.diagnostics.append(diagnostic(
            "SF002",
            f"cannot resolve lint target {target!r} to a Python "
            "file (expected a path, dotted module, or app name)",
        ))
        return report
    label = target if target == path else f"{target} ({path})"
    return lint_sources(label, collect_sources(path))
