"""Data model of the concurrency analyzer.

The analyzer reasons about three kinds of facts, all extracted purely
from the AST (nothing is ever imported):

* **lock declarations** — ``self._lock = threading.Lock()`` (or an
  annotated dataclass field with a ``threading`` lock type / factory)
  makes ``ClassName._lock`` a lock node.  Lock identity is
  ``DeclaringClass.attr`` — the same convention the runtime wrappers in
  :mod:`repro.obs.locks` use, so static and dynamic edges unify.
* **annotations** — ``# cc:`` comment pragmas declare intent the AST
  alone cannot recover (see :func:`parse_pragmas`).  Annotations are
  *checked disciplines*, not suppressions: a ``guarded-by`` field still
  has every access verified, a ``requires`` method has every call site
  verified.
* **method summaries** — per-method records of field accesses, lock
  acquisitions, call sites and condvar operations, each with the set of
  locks lexically held at that point.

Pragma grammar (one directive per comment, attached to the statement on
its line)::

    self._items = deque()   # cc: guarded-by(_cond)
    self._running = False   # cc: guarded-by(_state_lock, atomic-reads)
    self._orc = orch        # cc: type(Orchestrator)
    def _activate(self):    # cc: requires(_lock)
    risky_line()            # cc: ignore(CC102)

``guarded-by(PATH)`` declares the lock protecting a field; with the
``atomic-reads`` flag, bare *reads* are tolerated (GIL-atomic snapshot
reads) while writes are still checked.  ``requires(PATH)`` declares a
method that must be called with the lock already held: the method body
is analyzed with the lock credited, and every call site is checked.
``type(ClassName)`` declares a member attribute's class when the
constructor call is not statically resolvable.  ``ignore(CCxxx)``
suppresses matching diagnostics on that line only — supported for
downstream users, but ``src/repro`` itself must contain none (enforced
by the self-hosting test).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "LockDecl",
    "QLock",
    "FieldGuard",
    "MethodDef",
    "ClassInfo",
    "PackageIndex",
    "FieldAccess",
    "Acquisition",
    "CallSite",
    "CondOp",
    "MethodSummary",
    "Pragma",
    "parse_pragmas",
    "pragma_for",
    "LOCK_KINDS",
    "REENTRANT_KINDS",
]

#: attribute-call kinds the analyzer models
LOCK_KINDS = ("lock", "rlock", "condition", "event")
#: kinds that may be re-acquired by the holding thread without deadlock
REENTRANT_KINDS = frozenset({"rlock", "condition"})


# -- pragmas ----------------------------------------------------------------

_PRAGMA_RE = re.compile(r"#\s*cc:\s*([a-z-]+)\s*\(([^)]*)\)")


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# cc:`` directive."""

    directive: str                 # guarded-by | requires | type | ignore
    args: tuple[str, ...]
    line: int

    @property
    def guard_path(self) -> tuple[str, ...]:
        """For guarded-by/requires: the dotted lock path, split."""
        return tuple(self.args[0].split("."))

    @property
    def atomic_reads(self) -> bool:
        return "atomic-reads" in self.args[1:]


_KNOWN_DIRECTIVES = frozenset({"guarded-by", "requires", "type", "ignore"})


def parse_pragmas(source: str) -> dict[int, Pragma]:
    """Map line number -> ``# cc:`` pragma for a module's source text.

    Unknown directives and malformed pragmas are returned with the
    directive name preserved so the linter can flag them (CC105) rather
    than silently ignoring a typo.
    """
    pragmas: dict[int, Pragma] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                if re.search(r"#\s*cc:", tok.string):
                    pragmas[tok.start[0]] = Pragma("<malformed>", (), tok.start[0])
                continue
            directive = match.group(1)
            args = tuple(
                a.strip() for a in match.group(2).split(",") if a.strip()
            )
            pragmas[tok.start[0]] = Pragma(directive, args, tok.start[0])
    except tokenize.TokenError:
        pass
    return pragmas


def pragma_for(
    pragmas: dict[int, Pragma], node: ast.AST, directive: str
) -> Optional[Pragma]:
    """The pragma of ``directive`` attached to ``node``'s source lines."""
    start = getattr(node, "lineno", None)
    if start is None:
        return None
    end = getattr(node, "end_lineno", start) or start
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        # a def's pragma sits on the signature lines, not the body
        end = node.body[0].lineno - 1 if node.body else start
        end = max(end, start)
    for line in range(start, end + 1):
        pragma = pragmas.get(line)
        if pragma is not None and pragma.directive == directive:
            return pragma
    return None


# -- declarations -----------------------------------------------------------


@dataclass(frozen=True)
class LockDecl:
    """A lock-like attribute declared by a class."""

    attr: str
    kind: str                      # one of LOCK_KINDS
    owner: str                     # declaring class name
    line: int
    reentrant: bool

    @property
    def name(self) -> str:
        """Graph-node identity: ``DeclaringClass.attr``."""
        return f"{self.owner}.{self.attr}"


@dataclass(frozen=True)
class QLock:
    """A fully qualified lock: graph identity plus behavioral kind."""

    name: str                      # "Orchestrator._lock"
    kind: str
    reentrant: bool


@dataclass(frozen=True)
class FieldGuard:
    """A declared (pragma) guard for a field."""

    field: str
    guard_path: tuple[str, ...]
    atomic_reads: bool
    line: int


@dataclass
class MethodDef:
    """One method of a class, pre-pass."""

    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    requires: tuple[tuple[str, ...], ...] = ()   # lock paths from pragmas
    line: int = 0


@dataclass
class ClassInfo:
    """Everything pass 1 learns about one class definition."""

    name: str
    module: str                    # module file path (for diagnostics)
    line: int
    bases: tuple[str, ...] = ()
    locks: dict[str, LockDecl] = field(default_factory=dict)
    members: dict[str, str] = field(default_factory=dict)   # attr -> class name
    #: further classes a member may hold (``type(A, B)``): calls through it
    #: reach each of them
    alternates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    guards: dict[str, FieldGuard] = field(default_factory=dict)
    methods: dict[str, MethodDef] = field(default_factory=dict)

    def has_locks(self) -> bool:
        return bool(self.locks)


@dataclass
class PackageIndex:
    """All classes across the analyzed files, keyed by simple name.

    Name collisions keep the first definition seen (file order is
    sorted, so this is deterministic); the analyzer is conservative
    wherever resolution is ambiguous.
    """

    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def add(self, info: ClassInfo) -> None:
        self.classes.setdefault(info.name, info)

    def get(self, name: str) -> Optional[ClassInfo]:
        return self.classes.get(name)

    def resolved_locks(self, cls: ClassInfo) -> dict[str, LockDecl]:
        """Lock decls of ``cls`` including single-inherited base classes."""
        merged: dict[str, LockDecl] = {}
        for info in self.mro(cls):
            for attr, decl in info.locks.items():
                merged.setdefault(attr, decl)
        return merged

    def resolved_members(self, cls: ClassInfo) -> dict[str, str]:
        merged: dict[str, str] = {}
        for info in self.mro(cls):
            for attr, type_name in info.members.items():
                merged.setdefault(attr, type_name)
        return merged

    def resolved_guards(self, cls: ClassInfo) -> dict[str, FieldGuard]:
        merged: dict[str, FieldGuard] = {}
        for info in self.mro(cls):
            for attr, guard in info.guards.items():
                merged.setdefault(attr, guard)
        return merged

    def resolved_methods(self, cls: ClassInfo) -> dict[str, MethodDef]:
        merged: dict[str, MethodDef] = {}
        for info in self.mro(cls):
            for name, meth in info.methods.items():
                merged.setdefault(name, meth)
        return merged

    def mro(self, cls: ClassInfo) -> Iterable[ClassInfo]:
        """Linearized cls + known bases (cycle-safe, by simple name)."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            info = stack.pop(0)
            if info.name in seen:
                continue
            seen.add(info.name)
            yield info
            for base in info.bases:
                base_info = self.classes.get(base)
                if base_info is not None:
                    stack.append(base_info)


# -- per-method facts -------------------------------------------------------


@dataclass(frozen=True)
class FieldAccess:
    """A read/write/mutate of a self-rooted attribute path."""

    path: tuple[str, ...]          # ("_items",) or ("_latch", "_remaining")
    kind: str                      # "read" | "write" | "mutate"
    held: tuple[QLock, ...]
    line: int
    col: int


@dataclass(frozen=True)
class Acquisition:
    """A ``with <lock>:`` entry (or bare ``.acquire()``)."""

    lock: QLock
    held: tuple[QLock, ...]        # locks held *before* this acquisition
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """A call to a method of self or of a typed member."""

    target_class: str
    method: str
    held: tuple[QLock, ...]
    line: int
    col: int


@dataclass(frozen=True)
class CondOp:
    """A condvar/event verb: wait / wait_for / notify / notify_all."""

    lock: QLock
    op: str
    held: tuple[QLock, ...]
    in_while: bool                 # lexically inside a while loop
    timeout_inline_arith: bool     # timeout argument is inline arithmetic
    line: int
    col: int


@dataclass
class MethodSummary:
    """Everything pass 2 extracts from one method body."""

    cls: str
    method: str
    line: int
    accesses: list[FieldAccess] = field(default_factory=list)
    acquisitions: list[Acquisition] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    cond_ops: list[CondOp] = field(default_factory=list)
