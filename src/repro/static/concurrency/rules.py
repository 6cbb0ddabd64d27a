"""Concurrency lint rules (CC codes).

Rule catalogue (ids are stable; see README.md "Concurrency analysis"):

========  ========  =====================================================
id        severity  meaning
========  ========  =====================================================
CC101     error     write/mutation of a guarded field without its lock
CC102     warning   read of a guarded field without its lock (waived by
                    the ``atomic-reads`` annotation flag)
CC103     warning   field is locked inconsistently — written under two
                    different locks with no annotation to arbitrate
CC104     error     call to a ``# cc: requires(L)`` method without L held
CC105     error     unresolvable/malformed ``# cc:`` annotation
CC201     error     lock-acquisition cycle across methods (deadlock)
CC202     error     non-reentrant lock (re)acquired while already held,
                    lexically or through a call chain (self-deadlock)
CC203     warning   blocking ``wait()`` while holding an unrelated lock
CC301     error     condvar ``wait()`` not inside a predicate loop
CC302     error     condvar wait/notify without the condition held
CC303     warning   timed ``wait()`` with inline timeout arithmetic
                    (compute the remaining time explicitly instead)
CC401     error     dynamic-only lock-order edge (cross-validation)
CC402     info      static-only lock-order edge never exercised
========  ========  =====================================================

Guard discipline, per field:

* an explicit ``# cc: guarded-by(L)`` pragma is authoritative — every
  non-``__init__`` access is checked against L (reads are waived when
  the pragma carries ``atomic-reads``);
* otherwise the guard is *inferred*: if every non-init write happens
  under one common lock, that lock is the guard and bare reads warn
  (CC102); writes split between bare and locked flag the bare ones
  (CC101); writes split across two locks with no dominant one flag the
  field itself (CC103).  Fields only ever written in ``__init__`` are
  immutable-after-init and exempt, as are fields never written under
  any lock (single-threaded by construction — annotate them if that is
  wrong).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..diagnostics import RULES, Diagnostic, diagnostic
from .analyze import PackageAnalysis
from .graph import LockOrderGraph, Reentry
from .model import ClassInfo, FieldAccess, FieldGuard, QLock

__all__ = ["CC_RULES", "check_package"]

#: the CC part of the one rule catalogue
CC_RULES = {rule: entry for rule, entry in RULES.items() if rule.startswith("CC")}


def _held_names(access) -> set[str]:
    return {h.name for h in access.held}


# -- guarded-by checks (CC101/CC102/CC103/CC105) ----------------------------


class _PooledAccess:
    """One field access attributed to its owning class."""

    __slots__ = ("access", "from_cls", "from_method", "file", "init_exempt")

    def __init__(self, access: FieldAccess, from_cls: str, from_method: str,
                 file: str, init_exempt: bool) -> None:
        self.access = access
        self.from_cls = from_cls
        self.from_method = from_method
        self.file = file
        self.init_exempt = init_exempt


def _guard_owner(
    analysis: PackageAnalysis, cls: ClassInfo, field: str
) -> tuple[str, Optional[FieldGuard], ClassInfo]:
    """(pool key class, declared guard, declaring class) for a field."""
    for info in analysis.index.mro(cls):
        if field in info.guards:
            return info.name, info.guards[field], info
    return cls.name, None, cls


def _resolve_access_owner(
    analysis: PackageAnalysis, cls: ClassInfo, path: tuple[str, ...]
) -> Optional[tuple[ClassInfo, str]]:
    """(owning class, field name) for an access path, or None."""
    if len(path) == 1:
        return cls, path[0]
    owner: Optional[ClassInfo] = cls
    members = analysis.index.resolved_members(cls)
    for comp in path[:-1]:
        type_name = members.get(comp)
        if type_name is None:
            return None
        owner = analysis.index.get(type_name)
        if owner is None:
            return None
        members = analysis.index.resolved_members(owner)
    return owner, path[-1]


def _qualify_guard(
    analysis: PackageAnalysis, owner: ClassInfo, guard_path: tuple[str, ...]
) -> Optional[QLock]:
    """Resolve a guard path (e.g. ``('_latch', '_lock')``) in ``owner``."""
    locks = analysis.index.resolved_locks(owner)
    members = analysis.index.resolved_members(owner)
    for i, comp in enumerate(guard_path):
        if i == len(guard_path) - 1:
            decl = locks.get(comp)
            if decl is None:
                return None
            return QLock(decl.name, decl.kind, decl.reentrant)
        member = analysis.index.get(members.get(comp, ""))
        if member is None:
            return None
        locks = analysis.index.resolved_locks(member)
        members = analysis.index.resolved_members(member)
    return None


def _access_verb(kind: str) -> str:
    return {"write": "write to", "mutate": "mutation of",
            "read": "read of"}[kind]


def _check_guards(analysis: PackageAnalysis) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    pooled: dict[tuple[str, str], list[_PooledAccess]] = {}
    owners: dict[str, ClassInfo] = {}

    for summary in analysis.summaries:
        cls = analysis.index.get(summary.cls)
        if cls is None:
            continue
        for access in summary.accesses:
            resolved = _resolve_access_owner(analysis, cls, access.path)
            if resolved is None:
                continue
            owner_cls, field = resolved
            # locks, typed members and methods are not data fields
            if (field in analysis.index.resolved_locks(owner_cls)
                    or field in analysis.index.resolved_methods(owner_cls)):
                continue
            pool_key_cls, _, declaring = _guard_owner(analysis, owner_cls,
                                                      field)
            owners.setdefault(pool_key_cls, declaring)
            init_exempt = (
                len(access.path) == 1
                and summary.method == "__init__"
                and summary.cls == owner_cls.name
            )
            pooled.setdefault((pool_key_cls, field), []).append(_PooledAccess(
                access, summary.cls, summary.method, cls.module, init_exempt,
            ))

    for (owner_name, field), entries in sorted(pooled.items()):
        owner = owners.get(owner_name) or analysis.index.get(owner_name)
        if owner is None:
            continue
        guards = analysis.index.resolved_guards(owner)
        guard = guards.get(field)
        region = f"{owner_name}.{field}"
        if guard is not None:
            qlock = _qualify_guard(analysis, owner, guard.guard_path)
            if qlock is None:
                diags.append(diagnostic(
                    "CC105",
                    f"guarded-by({'.'.join(guard.guard_path)}) on {region} "
                    "does not resolve to a known lock (declare the lock or "
                    "add a '# cc: type(...)' pragma on the member path)",
                    region=region, file=owner.module, line=guard.line,
                ))
                continue
            diags.extend(_check_declared(entries, qlock, guard, region))
        else:
            diags.extend(_infer_guard(entries, region))
    return diags


def _check_declared(
    entries: list[_PooledAccess], qlock: QLock, guard: FieldGuard, region: str
) -> list[Diagnostic]:
    diags = []
    for entry in entries:
        if entry.init_exempt:
            continue
        access = entry.access
        if qlock.name in _held_names(access):
            continue
        where = f"{entry.from_cls}.{entry.from_method}"
        if access.kind in ("write", "mutate"):
            diags.append(diagnostic(
                "CC101",
                f"{_access_verb(access.kind)} {region} in {where} without "
                f"holding its declared guard {qlock.name}",
                region=region, file=entry.file,
                line=access.line, col=access.col,
            ))
        elif not guard.atomic_reads:
            diags.append(diagnostic(
                "CC102",
                f"read of {region} in {where} without holding its declared "
                f"guard {qlock.name} (annotate 'atomic-reads' if a stale "
                "snapshot is acceptable)",
                region=region, file=entry.file,
                line=access.line, col=access.col,
            ))
    return diags


def _infer_guard(entries: list[_PooledAccess], region: str) -> list[Diagnostic]:
    writes = [e for e in entries
              if e.access.kind in ("write", "mutate") and not e.init_exempt]
    if not writes:
        return []                       # immutable after construction
    locked_writes = [e for e in writes if e.access.held]
    if not locked_writes:
        return []                       # never locked: single-threaded field

    votes: Counter[str] = Counter()
    for entry in locked_writes:
        for name in _held_names(entry.access):
            votes[name] += 1
    ranked = votes.most_common()
    candidate, candidate_votes = ranked[0]
    if len(ranked) > 1 and ranked[1][1] == candidate_votes:
        rivals = sorted(name for name, count in ranked
                        if count == candidate_votes)
        first = writes[0]
        return [diagnostic(
            "CC103",
            f"{region} is written under different locks with no dominant "
            f"guard ({', '.join(rivals)}) — annotate the intended guard "
            "with '# cc: guarded-by(...)'",
            region=region, file=first.file,
            line=first.access.line, col=first.access.col,
        )]

    diags = []
    for entry in writes:
        if candidate in _held_names(entry.access):
            continue
        where = f"{entry.from_cls}.{entry.from_method}"
        diags.append(diagnostic(
            "CC101",
            f"{_access_verb(entry.access.kind)} {region} in {where} without "
            f"holding {candidate}, which guards its other writes",
            region=region, file=entry.file,
            line=entry.access.line, col=entry.access.col,
        ))
    if diags:
        return diags                    # fix the writes first; reads follow
    for entry in entries:
        if entry.init_exempt or entry.access.kind != "read":
            continue
        if candidate in _held_names(entry.access):
            continue
        where = f"{entry.from_cls}.{entry.from_method}"
        diags.append(diagnostic(
            "CC102",
            f"read of {region} in {where} without holding {candidate}, "
            f"which guards every write (annotate "
            "'# cc: guarded-by(..., atomic-reads)' if a stale snapshot is "
            "acceptable)",
            region=region, file=entry.file,
            line=entry.access.line, col=entry.access.col,
        ))
    return diags


# -- requires checks (CC104) ------------------------------------------------


def _check_requires(analysis: PackageAnalysis) -> list[Diagnostic]:
    diags = []
    for summary in analysis.summaries:
        cls = analysis.index.get(summary.cls)
        if cls is None:
            continue
        for call in summary.calls:
            callee_cls = analysis.index.get(call.target_class)
            if callee_cls is None:
                continue
            callee = analysis.index.resolved_methods(callee_cls).get(
                call.method
            )
            if callee is None or not callee.requires:
                continue
            held = {h.name for h in call.held}
            for path in callee.requires:
                qlock = _qualify_guard(analysis, callee_cls, path)
                if qlock is None or qlock.name in held:
                    continue  # unresolvable paths already reported as CC105
                region = f"{call.target_class}.{call.method}"
                diags.append(diagnostic(
                    "CC104",
                    f"{summary.cls}.{summary.method} calls {region}, which "
                    f"requires {qlock.name}, without holding it",
                    region=region, file=cls.module,
                    line=call.line, col=call.col,
                ))
    return diags


# -- condvar checks (CC203/CC301/CC302/CC303) -------------------------------


def _check_cond_ops(analysis: PackageAnalysis) -> list[Diagnostic]:
    diags = []
    for summary in analysis.summaries:
        cls = analysis.index.get(summary.cls)
        file = cls.module if cls is not None else None
        where = f"{summary.cls}.{summary.method}"
        for op in summary.cond_ops:
            held = {h.name for h in op.held}
            region = op.lock.name
            if op.lock.kind == "condition":
                if op.lock.name not in held:
                    diags.append(diagnostic(
                        "CC302",
                        f"{op.op}() on {op.lock.name} in {where} without "
                        "holding the condition (raises RuntimeError at "
                        "runtime, or silently races)",
                        region=region, file=file, line=op.line, col=op.col,
                    ))
                if op.op == "wait" and not op.in_while:
                    diags.append(diagnostic(
                        "CC301",
                        f"wait() on {op.lock.name} in {where} is not inside "
                        "a while loop — spurious wakeups make un-looped "
                        "waits incorrect (re-test the predicate, or use "
                        "wait_for)",
                        region=region, file=file, line=op.line, col=op.col,
                    ))
                if op.op in ("wait", "wait_for") and op.timeout_inline_arith:
                    diags.append(diagnostic(
                        "CC303",
                        f"timed {op.op}() on {op.lock.name} in {where} "
                        "computes its timeout inline — bind the remaining "
                        "time to a variable and re-check it for <= 0 so the "
                        "deadline arithmetic cannot go negative unnoticed",
                        region=region, file=file, line=op.line, col=op.col,
                    ))
            if op.op in ("wait", "wait_for"):
                others = sorted(held - {op.lock.name})
                if others:
                    diags.append(diagnostic(
                        "CC203",
                        f"{op.op}() on {op.lock.name} in {where} while "
                        f"holding {', '.join(others)} — those locks stay "
                        "held for the whole wait and can starve or "
                        "deadlock other threads",
                        region=region, file=file, line=op.line, col=op.col,
                    ))
    return diags


# -- graph checks (CC201/CC202) ---------------------------------------------


def _check_graph(graph: LockOrderGraph,
                 reentries: list[Reentry]) -> list[Diagnostic]:
    diags = []
    for component in graph.cycles():
        sites = graph.cycle_sites(component)
        witness = sites[0] if sites else None
        chain = " -> ".join(component + (component[0],))
        evidence = "; ".join(
            f"{s.cls}.{s.method} at {s.file}:{s.line}"
            + (f" (via {s.via})" if s.via else "")
            for s in sites[:4]
        )
        diags.append(diagnostic(
            "CC201",
            f"lock-acquisition cycle {chain} — threads taking these locks "
            f"in different orders can deadlock (evidence: {evidence})",
            region=component[0],
            file=witness.file if witness else None,
            line=witness.line if witness else 0,
        ))
    for reentry in sorted(reentries,
                          key=lambda r: (r.site.file, r.site.line)):
        site = reentry.site
        via = f" via {site.via}" if site.via else ""
        diags.append(diagnostic(
            "CC202",
            f"{site.cls}.{site.method} (re)acquires non-reentrant "
            f"{reentry.lock.name} while already holding it{via} — a plain "
            "Lock self-deadlocks; use an RLock or restructure the call",
            region=reentry.lock.name, file=site.file, line=site.line,
        ))
    return diags


# -- entry point ------------------------------------------------------------


def check_package(
    analysis: PackageAnalysis,
    graph: LockOrderGraph,
    reentries: list[Reentry],
) -> list[Diagnostic]:
    """All CC diagnostics for one analyzed package."""
    diags = [
        diagnostic("CC105", issue.message, file=issue.file, line=issue.line)
        for issue in analysis.issues
    ]
    diags.extend(_check_guards(analysis))
    diags.extend(_check_requires(analysis))
    diags.extend(_check_cond_ops(analysis))
    diags.extend(_check_graph(graph, reentries))
    return diags
