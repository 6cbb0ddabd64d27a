"""DDDG export and inspection tooling.

The paper's extractor "automatically analyzes the graph" — this module
gives the user the same visibility: export the dynamic data-dependency
graph to Graphviz DOT (with inputs/outputs/internals colour-coded), or
summarize it as text, so a domain scientist can sanity-check what the
tracer identified before committing to a surrogate.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .dddg import DDDG, IOClassification

__all__ = ["to_dot", "write_dot", "summarize_dddg"]


def _variable(node: str) -> str:
    return node.split("@", 1)[0]


def to_dot(
    dddg: DDDG,
    io: Optional[IOClassification] = None,
    *,
    max_nodes: int = 400,
    graph_name: str = "dddg",
) -> str:
    """Render the DDDG as Graphviz DOT text.

    Inputs are drawn as green boxes, outputs as blue double circles,
    internals as grey ellipses.  Graphs larger than ``max_nodes`` are
    truncated (highest-degree nodes kept) so the output stays plottable.
    """
    graph = dddg.graph
    nodes = list(graph.nodes)
    truncated = False
    if len(nodes) > max_nodes:
        nodes = sorted(graph.nodes, key=lambda n: -graph.degree(n))[:max_nodes]
        truncated = True
    keep = set(nodes)

    inputs = set(io.inputs) if io else set()
    outputs = set(io.outputs) if io else set()

    lines = [f"digraph {graph_name} {{", "  rankdir=LR;"]
    if truncated:
        lines.append(
            f'  label="truncated to the {max_nodes} highest-degree nodes";'
        )
    for node in nodes:
        var = _variable(node)
        if var in inputs:
            style = 'shape=box, style=filled, fillcolor="#c7e9c0"'
        elif var in outputs:
            style = 'shape=doublecircle, style=filled, fillcolor="#c6dbef"'
        else:
            style = 'shape=ellipse, style=filled, fillcolor="#eeeeee"'
        lines.append(f'  "{node}" [{style}];')
    for src, dst, edge in graph.edges():
        if src in keep and dst in keep:
            label = f' [label="x{edge.weight}"]' if edge.weight > 1 else ""
            lines.append(f'  "{src}" -> "{dst}"{label};')
    lines.append("}")
    return "\n".join(lines)


def write_dot(
    dddg: DDDG,
    path: Union[str, Path],
    io: Optional[IOClassification] = None,
    **kwargs,
) -> Path:
    """Write :func:`to_dot` output to ``path``; returns the path."""
    path = Path(path)
    path.write_text(to_dot(dddg, io, **kwargs))
    return path


def summarize_dddg(dddg: DDDG, io: Optional[IOClassification] = None) -> str:
    """Human-readable summary: sizes, roots/leaves, per-variable versions."""
    graph = dddg.graph
    versions: dict[str, int] = {}
    for node in graph.nodes:
        var = _variable(node)
        versions[var] = versions.get(var, 0) + 1
    hottest = sorted(versions.items(), key=lambda kv: -kv[1])[:8]
    lines = [
        f"DDDG: {len(graph.nodes)} nodes, {graph.number_of_edges()} edges",
        f"roots (read-before-written): {sorted(dddg.root_reads)}",
        f"leaf variables: {sorted(dddg.final_version_vars())}",
        "most-versioned variables: "
        + ", ".join(f"{var} (x{count})" for var, count in hottest),
    ]
    if io is not None:
        lines.append(f"classified inputs:  {list(io.inputs)}")
        lines.append(f"classified outputs: {list(io.outputs)}")
        lines.append(f"internals: {list(io.internals)}")
    return "\n".join(lines)
