"""DDDG export tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.extract import (
    RegionTracer,
    build_dddg,
    classify_io,
    summarize_dddg,
    to_dot,
    write_dot,
)

from . import regions

GOLDEN = Path(__file__).parent / "golden"


def pcg_trace(rng):
    n = 6
    m = rng.random((n, n))
    A = m @ m.T + n * np.eye(n)
    inputs = dict(A=A, b=rng.random(n), x0=np.zeros(n), iters=30, tol=1e-14)
    _, trace = RegionTracer(regions.pcg_like).trace(**inputs)
    return trace, inputs


@pytest.fixture
def pcg_graph(rng):
    trace, inputs = pcg_trace(rng)
    dddg = build_dddg(trace)
    io = classify_io(dddg, inputs, {"x"})
    return dddg, io


class TestDotExport:
    def test_valid_dot_structure(self, pcg_graph):
        dddg, io = pcg_graph
        dot = to_dot(dddg, io)
        assert dot.startswith("digraph dddg {")
        assert dot.rstrip().endswith("}")
        assert '"A@0"' in dot
        assert "->" in dot

    def test_io_styling(self, pcg_graph):
        dddg, io = pcg_graph
        dot = to_dot(dddg, io)
        assert "shape=box" in dot          # inputs
        assert "shape=doublecircle" in dot  # outputs

    def test_edge_weights_labelled(self, pcg_graph):
        dddg, io = pcg_graph
        assert 'label="x' in to_dot(dddg, io)

    def test_truncation(self, pcg_graph):
        dddg, io = pcg_graph
        dot = to_dot(dddg, io, max_nodes=5)
        assert "truncated" in dot
        node_lines = [l for l in dot.splitlines() if "shape=" in l]
        assert len(node_lines) <= 5

    def test_write_dot(self, pcg_graph, tmp_path):
        dddg, io = pcg_graph
        path = write_dot(dddg, tmp_path / "g.dot", io)
        assert path.exists()
        assert path.read_text().startswith("digraph")


class TestSummary:
    def test_summary_mentions_counts_and_io(self, pcg_graph):
        dddg, io = pcg_graph
        text = summarize_dddg(dddg, io)
        assert "nodes" in text and "edges" in text
        assert "classified inputs" in text
        assert "x" in text

    def test_summary_without_io(self, pcg_graph):
        dddg, _ = pcg_graph
        text = summarize_dddg(dddg)
        assert "classified inputs" not in text
        assert "roots" in text


#: renders ``pcg_graph`` (the ``rng`` fixture's seed) in a fresh
#: interpreter; a statement's reads are a frozenset, so node order
#: follows the string hash seed
RENDER = """
import json, sys
import numpy as np
from repro.extract import build_dddg, classify_io, summarize_dddg, to_dot
from tests.extract.test_export import pcg_trace

trace, inputs = pcg_trace(np.random.default_rng(12345))
dddg = build_dddg(trace)
io = classify_io(dddg, inputs, {"x"})
json.dump({
    "pcg.dot": to_dot(dddg, io),
    "pcg_truncated.dot": to_dot(dddg, io, max_nodes=5),
    "pcg_summary.txt": summarize_dddg(dddg, io),
    "pcg_summary_noio.txt": summarize_dddg(dddg),
    "workers": [to_dot(build_dddg(trace, workers=w), io) for w in (2, 4)],
}, sys.stdout)
"""


class TestGoldenText:
    """The exporters' text, captured when the DDDG was a
    ``networkx.DiGraph``, at string hash seed 0."""

    @pytest.fixture(scope="class")
    def rendered(self):
        root = Path(__file__).resolve().parents[2]
        env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", RENDER],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(proc.stdout)

    @pytest.mark.parametrize(
        "name", ["pcg.dot", "pcg_truncated.dot", "pcg_summary.txt", "pcg_summary_noio.txt"]
    )
    def test_matches_golden(self, rendered, name):
        assert rendered[name] == (GOLDEN / name).read_text()

    def test_parallel_build_renders_the_same(self, rendered):
        golden = (GOLDEN / "pcg.dot").read_text()
        assert rendered["workers"] == [golden, golden]
