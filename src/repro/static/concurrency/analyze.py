"""Two-pass AST extraction behind the concurrency rules.

Pass 1 (:func:`index_module`) scans every class definition for lock
declarations (``self._lock = threading.Lock()``, annotated dataclass
fields, ``field(default_factory=threading.Lock)``), member attributes
whose class is statically known (``self._queue = _RequestQueue()`` or a
``# cc: type(...)`` pragma), ``# cc: guarded-by(...)`` field guards and
``# cc: requires(...)`` method contracts, building a
:class:`~.model.PackageIndex`.

Pass 2 (:func:`summarize_class`) walks each method body with a lexical
*held-lock* stack — ``with self._lock:`` pushes, leaving the block pops —
recording every field access, lock acquisition, method call and condvar
verb together with the locks held at that point.  Local aliases
(``latch = self._latch``) are tracked so accesses through them attribute
to the right object.  Nested functions are walked with an *empty* held
set: they may run on any thread later, so locks held at their definition
site prove nothing about their execution.

Nothing here produces diagnostics; the facts are interpreted by
:mod:`~.rules` and :mod:`~.graph`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    Acquisition,
    CallSite,
    ClassInfo,
    CondOp,
    FieldAccess,
    FieldGuard,
    LockDecl,
    MethodDef,
    MethodSummary,
    PackageIndex,
    Pragma,
    QLock,
    parse_pragmas,
    pragma_for,
)

__all__ = ["AnnotationIssue", "PackageAnalysis", "analyze_sources"]

#: ``Lock()`` constructor spellings -> (kind, reentrant)
_LOCK_CTORS: dict[str, tuple[str, bool]] = {
    "threading.Lock": ("lock", False), "Lock": ("lock", False),
    "threading.RLock": ("rlock", True), "RLock": ("rlock", True),
    "threading.Condition": ("condition", True), "Condition": ("condition", True),
    "threading.Event": ("event", False), "Event": ("event", False),
}

#: receiver methods that mutate the receiver in place
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "popitem", "clear", "update", "setdefault",
    "remove", "discard", "add", "sort", "reverse",
})

_KNOWN_DIRECTIVES = frozenset({"guarded-by", "requires", "type", "ignore"})


def _dotted(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _lock_from_value(value: Optional[ast.AST]) -> Optional[tuple[str, bool]]:
    """(kind, reentrant) when ``value`` constructs a threading primitive."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted(value.func)
    if dotted in _LOCK_CTORS:
        kind, reentrant = _LOCK_CTORS[dotted]
        if kind == "condition" and value.args:
            inner = _lock_from_value(value.args[0])
            if inner is not None and inner[0] == "lock":
                reentrant = False
        return kind, reentrant
    if dotted is not None and dotted.split(".")[-1] == "field":
        for kw in value.keywords:
            if kw.arg == "default_factory":
                factory = _dotted(kw.value)
                if factory in _LOCK_CTORS:
                    return _LOCK_CTORS[factory]
    return None


def _lock_from_annotation(ann: Optional[ast.AST]) -> Optional[tuple[str, bool]]:
    if ann is None:
        return None
    dotted = _dotted(ann)
    if dotted in _LOCK_CTORS:
        return _LOCK_CTORS[dotted]
    return None


def _class_candidate(value: Optional[ast.AST]) -> Optional[str]:
    """Simple class name when ``value`` looks like ``SomeClass(...)``."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted(value.func)
    if dotted is None or dotted in _LOCK_CTORS:
        return None
    name = dotted.split(".")[-1]
    if name == "field" or not name[:1].isalpha() and name[:1] != "_":
        return None
    return name


@dataclass(frozen=True)
class AnnotationIssue:
    """A ``# cc:`` pragma the analyzer cannot honor (-> CC105)."""

    file: str
    line: int
    message: str


@dataclass
class PackageAnalysis:
    """All extracted facts for one lint target (file or package)."""

    index: PackageIndex
    summaries: list[MethodSummary] = field(default_factory=list)
    issues: list[AnnotationIssue] = field(default_factory=list)
    #: file -> line -> rule codes suppressed by an ignore pragma
    ignores: dict[str, dict[int, tuple[str, ...]]] = field(default_factory=dict)
    #: file of each class, for diagnostics
    files: list[str] = field(default_factory=list)

    def summary_for(self, cls_name: str, method: str) -> Optional[MethodSummary]:
        """Summary of ``method`` as seen from ``cls_name`` (walks bases)."""
        cls = self.index.get(cls_name)
        if cls is None:
            return None
        for info in self.index.mro(cls):
            found = self._by_key.get((info.name, method))
            if found is not None:
                return found
        return None

    def finalize(self) -> None:
        self._by_key = {(s.cls, s.method): s for s in self.summaries}


# -- pass 1 -----------------------------------------------------------------


def _requires_paths(pragma: Optional[Pragma]) -> tuple[tuple[str, ...], ...]:
    if pragma is None:
        return ()
    return tuple(tuple(arg.split(".")) for arg in pragma.args)


def _index_class(
    node: ast.ClassDef,
    filename: str,
    pragmas: dict[int, Pragma],
) -> ClassInfo:
    bases = tuple(
        base.id if isinstance(base, ast.Name)
        else base.attr if isinstance(base, ast.Attribute) else "?"
        for base in node.bases
    )
    info = ClassInfo(name=node.name, module=filename, line=node.lineno, bases=bases)

    def note_guard(attr: str, stmt: ast.AST) -> None:
        pragma = pragma_for(pragmas, stmt, "guarded-by")
        if pragma is not None and pragma.args:
            info.guards.setdefault(attr, FieldGuard(
                field=attr,
                guard_path=pragma.guard_path,
                atomic_reads=pragma.atomic_reads,
                line=pragma.line,
            ))

    def note_self_assign(stmt: ast.Assign | ast.AnnAssign) -> None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            lock = _lock_from_value(value)
            if lock is None and isinstance(stmt, ast.AnnAssign):
                lock = _lock_from_annotation(stmt.annotation)
            if lock is not None:
                kind, reentrant = lock
                info.locks.setdefault(attr, LockDecl(
                    attr=attr, kind=kind, owner=info.name,
                    line=stmt.lineno, reentrant=reentrant,
                ))
            type_pragma = pragma_for(pragmas, stmt, "type")
            if type_pragma is not None and type_pragma.args:
                info.members[attr] = type_pragma.args[0]
                info.alternates[attr] = type_pragma.args[1:]
            elif lock is None:
                candidate = _class_candidate(value)
                if candidate is not None:
                    info.members.setdefault(attr, candidate)
            note_guard(attr, stmt)

    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            # class-body (dataclass-style) field declaration
            attr = item.target.id
            lock = _lock_from_value(item.value) or _lock_from_annotation(
                item.annotation
            )
            if lock is not None:
                kind, reentrant = lock
                info.locks.setdefault(attr, LockDecl(
                    attr=attr, kind=kind, owner=info.name,
                    line=item.lineno, reentrant=reentrant,
                ))
            note_guard(attr, item)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            requires = _requires_paths(pragma_for(pragmas, item, "requires"))
            info.methods[item.name] = MethodDef(
                name=item.name, node=item, requires=requires, line=item.lineno,
            )
            for stmt in ast.walk(item):
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    note_self_assign(stmt)
    return info


def index_module(
    tree: ast.Module,
    filename: str,
    pragmas: dict[int, Pragma],
    analysis: PackageAnalysis,
) -> None:
    """Pass 1 over one module: populate the class index and pragma maps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            analysis.index.add(_index_class(node, filename, pragmas))
    ignores: dict[int, tuple[str, ...]] = {}
    for line, pragma in pragmas.items():
        if pragma.directive == "ignore":
            ignores[line] = tuple(code.upper() for code in pragma.args)
        elif pragma.directive not in _KNOWN_DIRECTIVES:
            analysis.issues.append(AnnotationIssue(
                file=filename, line=line,
                message=(
                    f"unrecognized '# cc:' directive {pragma.directive!r} "
                    "(known: guarded-by, requires, type, ignore)"
                ),
            ))
    if ignores:
        analysis.ignores[filename] = ignores


# -- pass 2 -----------------------------------------------------------------


class _MethodWalker:
    """Walk one method body tracking the lexically held lock set."""

    def __init__(
        self,
        index: PackageIndex,
        cls: ClassInfo,
        method: MethodDef,
        locks: dict[str, LockDecl],
        members: dict[str, str],
        methods: dict[str, MethodDef],
        initial_held: tuple[QLock, ...],
    ) -> None:
        self.index = index
        self.cls = cls
        self.locks = locks
        # only members whose class the index actually knows are "typed";
        # `self._items = deque()` stays an ordinary field
        self.members = {
            attr: name for attr, name in members.items()
            if index.get(name) is not None
        }
        self.method_names = methods
        self.summary = MethodSummary(cls=cls.name, method=method.name,
                                     line=method.line)
        self.held: list[QLock] = list(initial_held)
        self.aliases: dict[str, tuple[str, ...]] = {}
        self.while_depth = 0
        self.is_init = method.name == "__init__"

    # -- path / lock resolution -------------------------------------------

    def _self_path(self, node: ast.AST) -> Optional[tuple[str, ...]]:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        if node.id == "self":
            return tuple(reversed(parts))
        base = self.aliases.get(node.id)
        if base is not None:
            return base + tuple(reversed(parts))
        return None

    def _qlock(self, path: Optional[tuple[str, ...]]) -> Optional[QLock]:
        if not path:
            return None
        locks, members = self.locks, self.members
        for i, comp in enumerate(path):
            if i == len(path) - 1:
                decl = locks.get(comp)
                if decl is None:
                    return None
                return QLock(decl.name, decl.kind, decl.reentrant)
            member_cls = self.index.get(members.get(comp, ""))
            if member_cls is None:
                return None
            locks = self.index.resolved_locks(member_cls)
            members = self.index.resolved_members(member_cls)
        return None

    def _member_class(self, path: tuple[str, ...]) -> Optional[ClassInfo]:
        cls: Optional[ClassInfo] = self.cls
        members = self.members
        for comp in path:
            type_name = members.get(comp)
            if type_name is None:
                return None
            cls = self.index.get(type_name)
            if cls is None:
                return None
            members = self.index.resolved_members(cls)
        return cls

    def _record(self, path: tuple[str, ...], kind: str, node: ast.AST) -> None:
        self.summary.accesses.append(FieldAccess(
            path=path, kind=kind, held=tuple(self.held),
            line=node.lineno, col=node.col_offset,
        ))

    # -- dispatch ----------------------------------------------------------

    def visit(self, node: ast.AST) -> None:
        handler = getattr(self, f"visit_{type(node).__name__}", None)
        if handler is not None:
            handler(node)
        else:
            self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def run(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> MethodSummary:
        for stmt in node.body:
            self.visit(stmt)
        return self.summary

    # -- nested scopes: locks held here prove nothing there ----------------

    def _visit_nested(self, node) -> None:
        saved = (self.held, self.aliases, self.while_depth)
        self.held, self.aliases, self.while_depth = [], {}, 0
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            self.visit(stmt)
        self.held, self.aliases, self.while_depth = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_nested(node)

    # -- lock scopes -------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: list[QLock] = []
        for item in node.items:
            ctx = item.context_expr
            qlock = self._qlock(self._self_path(ctx))
            if qlock is not None and qlock.kind != "event":
                self.summary.acquisitions.append(Acquisition(
                    lock=qlock, held=tuple(self.held),
                    line=ctx.lineno, col=ctx.col_offset,
                ))
                self.held.append(qlock)
                acquired.append(qlock)
            else:
                self.visit(ctx)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    visit_AsyncWith = visit_With

    # -- assignments and aliases ------------------------------------------

    def _assign_target(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            path = self._self_path(value) if value is not None else None
            if path:
                self.aliases[target.id] = path
            else:
                self.aliases.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None)
        else:
            self.visit(target)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._assign_target(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self._assign_target(node.target, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self.aliases.pop(node.target.id, None)
        else:
            self.visit(node.target)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.aliases.pop(node.id, None)

    # -- accesses ----------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        path = self._self_path(node)
        if path is None:
            self.generic_visit(node)
            return
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record(path, "write", node)
            return
        # structural loads: locks, typed members and bound methods are
        # construction-time constants, not shared mutable state
        if self._qlock(path) is not None:
            return
        if len(path) == 1 and (
            path[0] in self.members or path[0] in self.method_names
        ):
            return
        self._record(path, "read", node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            base = self._self_path(node.value)
            if base is not None:
                self._record(base, "mutate", node)
                self.visit(node.slice)
                return
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------

    def _wait_timeout(self, attr: str, node: ast.Call) -> Optional[ast.AST]:
        position = 0 if attr == "wait" else 1
        if len(node.args) > position:
            return node.args[position]
        for kw in node.keywords:
            if kw.arg == "timeout":
                return kw.value
        return None

    def _attr_call(self, base: tuple[str, ...], attr: str,
                   node: ast.Call) -> None:
        if base == ():
            # self.method(...) — or a call through a callable field
            if attr in self.method_names:
                self.summary.calls.append(CallSite(
                    target_class=self.cls.name, method=attr,
                    held=tuple(self.held),
                    line=node.lineno, col=node.col_offset,
                ))
            elif attr not in self.locks and attr not in self.members:
                self._record((attr,), "read", node)
            return
        qlock = self._qlock(base)
        if qlock is not None:
            if attr == "acquire":
                self.summary.acquisitions.append(Acquisition(
                    lock=qlock, held=tuple(self.held),
                    line=node.lineno, col=node.col_offset,
                ))
            elif attr in ("wait", "wait_for") and qlock.kind in (
                "condition", "event"
            ):
                timeout = self._wait_timeout(attr, node)
                self.summary.cond_ops.append(CondOp(
                    lock=qlock,
                    op=attr,
                    held=tuple(self.held),
                    in_while=self.while_depth > 0,
                    timeout_inline_arith=isinstance(timeout, ast.BinOp),
                    line=node.lineno, col=node.col_offset,
                ))
            elif attr in ("notify", "notify_all") and qlock.kind == "condition":
                self.summary.cond_ops.append(CondOp(
                    lock=qlock, op=attr, held=tuple(self.held),
                    in_while=self.while_depth > 0,
                    timeout_inline_arith=False,
                    line=node.lineno, col=node.col_offset,
                ))
            # release/locked/set/clear/is_set: structural, nothing to check
            return
        member = self._member_class(base)
        if member is not None:
            alternates = self.cls.alternates.get(base[0], ()) if len(base) == 1 else ()
            for target in (member.name, *alternates):
                self.summary.calls.append(CallSite(
                    target_class=target, method=attr,
                    held=tuple(self.held),
                    line=node.lineno, col=node.col_offset,
                ))
            return
        kind = "mutate" if attr in _MUTATORS else "read"
        self._record(base, kind, node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = self._self_path(func.value)
            if base is not None or (
                isinstance(func.value, ast.Name) and func.value.id == "self"
            ):
                self._attr_call(base if base is not None else (), func.attr,
                                node)
                for arg in node.args:
                    self.visit(arg)
                for kw in node.keywords:
                    self.visit(kw.value)
                return
        self.generic_visit(node)

    # -- control flow ------------------------------------------------------

    def visit_While(self, node: ast.While) -> None:
        self.while_depth += 1
        self.generic_visit(node)
        self.while_depth -= 1


def summarize_class(
    cls: ClassInfo,
    index: PackageIndex,
    analysis: PackageAnalysis,
) -> None:
    """Pass 2 over one class: summarize every method it *owns*."""
    locks = index.resolved_locks(cls)
    members = index.resolved_members(cls)
    methods = index.resolved_methods(cls)
    for method in cls.methods.values():
        initial: list[QLock] = []
        walker = _MethodWalker(index, cls, method, locks, members, methods, ())
        for path in method.requires:
            qlock = walker._qlock(path)
            if qlock is None:
                analysis.issues.append(AnnotationIssue(
                    file=cls.module, line=method.line,
                    message=(
                        f"requires({'.'.join(path)}) on {cls.name}."
                        f"{method.name} does not name a known lock "
                        "(declare the lock or add a '# cc: type(...)' pragma)"
                    ),
                ))
            else:
                initial.append(qlock)
        walker.held = list(initial)
        analysis.summaries.append(walker.run(method.node))


# -- driver -----------------------------------------------------------------


def analyze_sources(sources: list[tuple[str, str]]) -> PackageAnalysis:
    """Analyze ``[(filename, source), ...]`` as one package.

    Files that cannot be decoded or parsed are skipped here — the linter
    reports them (SF003) on a per-file basis.
    """
    modules = []
    for filename, source in sources:
        try:
            modules.append((filename, source, ast.parse(source)))
        except SyntaxError:
            continue
    return analyze_modules(modules)


def analyze_modules(
    modules: list[tuple[str, str, ast.Module]],
) -> PackageAnalysis:
    """Analyze already-parsed ``[(filename, source, tree), ...]`` as one
    package (the source text carries the ``# cc:`` pragmas)."""
    analysis = PackageAnalysis(index=PackageIndex())
    for filename, source, tree in sorted(modules, key=lambda m: m[:2]):
        analysis.files.append(filename)
        index_module(tree, filename, parse_pragmas(source), analysis)
    for cls in list(analysis.index.classes.values()):
        summarize_class(cls, analysis.index, analysis)
    analysis.finalize()
    return analysis
