"""Dynamic data-dependency graph construction and I/O classification (§3.1).

Vertices are *versions* of variables (``name@k``: the value produced by the
k-th write to ``name``); edges are the operations transforming read values
into written values, following FlipTracker's DDDG formulation [30] that the
paper extends.

Two extensions from the paper are implemented:

* **array grouping** — element accesses are recorded at base-array
  granularity by the static analysis, so an array is one feature, not
  thousands (§3.1 "group variables for effective feature reduction");
* **parallel construction** — the flattened trace is split into chunks, a
  cheap sequential pre-pass computes per-chunk starting versions for every
  variable, and a thread pool then builds per-chunk edge lists that merge
  into a graph identical to the sequential result.
"""

from __future__ import annotations

import builtins
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterator, KeysView, Mapping, Sequence

import numpy as np

from ..sparse import COOMatrix, CSCMatrix, CSRMatrix
from .events import Trace

__all__ = ["DDDG", "DependencyGraph", "Edge", "build_dddg", "IOClassification", "classify_io"]

_DATA_TYPES = (int, float, complex, np.ndarray, np.generic, COOMatrix, CSRMatrix, CSCMatrix)


def _node(name: str, version: int) -> str:
    return f"{name}@{version}"


@dataclass
class Edge:
    """One operation edge: the first statement that made it, and how many
    dynamic executions (loop multiplicity) it stands for."""

    stmt: int
    weight: int


class DependencyGraph:
    """Directed graph over version nodes, kept in insertion order.

    Nodes iterate in the order they were first added; edges iterate by
    source node in that order, then by target in the order each edge was
    first added (the order ``networkx.DiGraph`` uses, so exported text
    keeps its layout).
    """

    def __init__(self) -> None:
        self.succ: dict[str, dict[str, Edge]] = {}
        self._in_degree: dict[str, int] = {}

    def add_node(self, node: str) -> None:
        if node not in self.succ:
            self.succ[node] = {}
            self._in_degree[node] = 0

    def add_edge(self, src: str, dst: str, stmt: int, weight: int) -> None:
        """Add ``src -> dst``; an edge already present keeps its statement
        and accumulates ``weight``."""
        self.add_node(src)
        self.add_node(dst)
        edge = self.succ[src].get(dst)
        if edge is None:
            self.succ[src][dst] = Edge(stmt, weight)
            self._in_degree[dst] += 1
        else:
            edge.weight += weight

    @property
    def nodes(self) -> KeysView[str]:
        return self.succ.keys()

    def edges(self) -> Iterator[tuple[str, str, Edge]]:
        for src, targets in self.succ.items():
            for dst, edge in targets.items():
                yield src, dst, edge

    def out_degree(self, node: str) -> int:
        return len(self.succ[node])

    def degree(self, node: str) -> int:
        return len(self.succ[node]) + self._in_degree[node]

    def number_of_edges(self) -> int:
        return sum(len(targets) for targets in self.succ.values())


@dataclass
class DDDG:
    """The dependency graph plus the summaries classification needs."""

    graph: DependencyGraph
    root_reads: frozenset[str]     # vars read at version 0 (read before written)
    written: frozenset[str]        # vars written at least once in the region
    read: frozenset[str]           # vars read at least once

    @property
    def roots(self) -> frozenset[str]:
        """Root *nodes* (version-0 vertices with successors)."""
        return frozenset(
            n for n in self.graph.nodes
            if n.endswith("@0") and self.graph.out_degree(n) > 0
        )

    @property
    def leaves(self) -> frozenset[str]:
        """Leaf nodes: final versions never read again inside the region."""
        return frozenset(
            n for n in self.graph.nodes if self.graph.out_degree(n) == 0
        )

    def final_version_vars(self) -> frozenset[str]:
        """Variable names whose final version is a leaf."""
        return frozenset(n.split("@", 1)[0] for n in self.leaves)


def _chunk_edges(
    chunk: Sequence[tuple[int, int]],
    stmt_table: Mapping[int, Any],
    start_versions: Mapping[str, int],
) -> tuple[list[tuple[str, str, int, int]], set[str], set[str], set[str]]:
    """Edge list for one trace chunk given each variable's starting version."""
    versions = dict(start_versions)
    edges: list[tuple[str, str, int, int]] = []
    root_reads: set[str] = set()
    written: set[str] = set()
    read: set[str] = set()
    for stmt_id, mult in chunk:
        info = stmt_table[stmt_id]
        read_nodes = []
        for r in sorted(info.reads):
            v = versions.get(r, 0)
            if v == 0:
                root_reads.add(r)
            read.add(r)
            read_nodes.append(_node(r, v))
        for w in sorted(info.writes):
            versions[w] = versions.get(w, 0) + 1
            written.add(w)
            dst = _node(w, versions[w])
            for src in read_nodes:
                edges.append((src, dst, stmt_id, mult))
            if not read_nodes:
                # constant assignment still creates the version node
                edges.append((_node(w, versions[w] - 1), dst, stmt_id, 0))
    return edges, root_reads, written, read


def build_dddg(trace: Trace, *, workers: int = 1) -> DDDG:
    """Construct the DDDG from a (possibly compressed) trace.

    With ``workers > 1`` construction parallelizes over trace chunks as the
    paper describes; the result is identical to the sequential build.
    """
    flat = list(trace.flatten())
    stmt_table = trace.stmt_table

    if workers <= 1 or len(flat) < 2 * workers:
        chunks = [flat]
    else:
        per = (len(flat) + workers - 1) // workers
        chunks = [flat[i : i + per] for i in range(0, len(flat), per)]

    # pre-pass: starting version of every variable for every chunk
    start_versions: list[dict[str, int]] = []
    running: dict[str, int] = {}
    for chunk in chunks:
        start_versions.append(dict(running))
        for stmt_id, _mult in chunk:
            for w in stmt_table[stmt_id].writes:
                running[w] = running.get(w, 0) + 1

    if len(chunks) == 1:
        results = [_chunk_edges(chunks[0], stmt_table, start_versions[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    lambda pair: _chunk_edges(pair[0], stmt_table, pair[1]),
                    zip(chunks, start_versions),
                )
            )

    graph = DependencyGraph()
    root_reads: set[str] = set()
    written: set[str] = set()
    read: set[str] = set()
    for edges, chunk_roots, chunk_written, chunk_read in results:
        # a "root read" is only genuine if no earlier chunk wrote the var;
        # the pre-pass versions already encode that (version 0 check), so
        # chunk_roots are correct as-is.
        root_reads |= chunk_roots
        written |= chunk_written
        read |= chunk_read
        for src, dst, stmt_id, mult in edges:
            graph.add_edge(src, dst, stmt_id, mult)

    # ensure every version-0 node of a root read exists even if isolated
    for name in sorted(root_reads):
        graph.add_node(_node(name, 0))

    return DDDG(
        graph=graph,
        root_reads=frozenset(root_reads),
        written=frozenset(written),
        read=frozenset(read),
    )


@dataclass(frozen=True)
class IOClassification:
    """Input / output / internal variable sets of a region (§3)."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    internals: tuple[str, ...]


def _is_data(value: Any) -> bool:
    return isinstance(value, _DATA_TYPES)


def classify_io(
    dddg: DDDG,
    namespace: Mapping[str, Any],
    live_after: frozenset[str] | set[str] | Sequence[str],
) -> IOClassification:
    """Classify region variables per the paper's definitions (§3).

    * **inputs** — declared outside the region (present in ``namespace``,
      i.e. the region's arguments/closure) and read before written inside
      (their version-0 node is a DDDG root).  Non-data bindings (modules,
      functions) are filtered out.
    * **outputs** — written in the region and live afterwards
      (``live_after`` comes from liveness/use-def analysis of the
      continuation, or from the region's returned names).
    * **internals** — everything else the region touches.
    """
    live = frozenset(live_after)
    inputs = tuple(
        sorted(
            name
            for name in dddg.root_reads
            if name in namespace and _is_data(namespace[name])
        )
    )
    outputs = tuple(sorted(name for name in dddg.written if name in live))
    touched = dddg.read | dddg.written
    classified = set(inputs) | set(outputs)
    internals = tuple(
        sorted(
            name
            for name in touched
            if name not in classified
            and not (name in namespace and not _is_data(namespace[name]))
            and not hasattr(builtins, name)
        )
    )
    return IOClassification(inputs=inputs, outputs=outputs, internals=internals)
