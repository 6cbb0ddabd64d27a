"""DDDG construction and input/output classification tests."""

import numpy as np
import pytest

from repro.extract import RegionTracer, build_dddg, classify_io

from . import regions


def trace_pcg(rng, n=8):
    m = rng.random((n, n))
    A = m @ m.T + n * np.eye(n)
    inputs = dict(A=A, b=rng.random(n), x0=np.zeros(n), iters=40, tol=1e-16)
    _, trace = RegionTracer(regions.pcg_like).trace(**inputs)
    return trace, inputs


class TestConstruction:
    def test_roots_are_inputs(self, rng):
        trace, inputs = trace_pcg(rng)
        dddg = build_dddg(trace)
        assert {"A", "b", "x0"} <= dddg.root_reads

    def test_written_vars_tracked(self, rng):
        trace, _ = trace_pcg(rng)
        dddg = build_dddg(trace)
        assert {"x", "r", "p", "alpha"} <= dddg.written

    def test_versions_in_graph(self, rng):
        trace, _ = trace_pcg(rng)
        dddg = build_dddg(trace)
        # x is written repeatedly: multiple version nodes exist
        x_versions = [n for n in dddg.graph.nodes if n.startswith("x@")]
        assert len(x_versions) >= 2

    def test_leaves_exist(self, rng):
        trace, _ = trace_pcg(rng)
        dddg = build_dddg(trace)
        assert dddg.leaves

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_parallel_build_identical_to_sequential(self, workers, rng):
        trace, _ = trace_pcg(rng)
        seq = build_dddg(trace, workers=1)
        par = build_dddg(trace, workers=workers)
        seq_edges = {(src, dst): edge for src, dst, edge in seq.graph.edges()}
        par_edges = {(src, dst): edge for src, dst, edge in par.graph.edges()}
        assert set(seq_edges) == set(par_edges)
        for key in seq_edges:
            assert seq_edges[key].weight == par_edges[key].weight
        assert seq.root_reads == par.root_reads
        assert seq.written == par.written

    def test_edge_weights_reflect_loop_multiplicity(self, rng):
        vals = rng.random(30)
        _, trace = RegionTracer(regions.loop_sum).trace(values=vals, n=30)
        dddg = build_dddg(trace)
        weights = [edge.weight for _, _, edge in dddg.graph.edges()]
        assert max(weights) >= 30  # the compressed loop body edge


class TestClassification:
    def test_pcg_classification(self, rng):
        trace, inputs = trace_pcg(rng)
        io = classify_io(build_dddg(trace), inputs, {"x"})
        assert set(io.inputs) >= {"A", "b", "x0"}
        assert io.outputs == ("x",)
        assert "r" in io.internals and "p" in io.internals

    def test_modules_excluded_from_inputs(self, rng):
        trace, inputs = trace_pcg(rng)
        namespace = dict(inputs)
        namespace["np"] = np  # module must not become a feature
        io = classify_io(build_dddg(trace), namespace, {"x"})
        assert "np" not in io.inputs

    def test_builtins_excluded_from_internals(self, rng):
        trace, inputs = trace_pcg(rng)
        io = classify_io(build_dddg(trace), inputs, {"x"})
        assert "range" not in io.internals
        assert "float" not in io.internals

    def test_live_after_filters_outputs(self, rng):
        x = rng.random(4)
        _, trace = RegionTracer(regions.two_outputs).trace(a=x, b=x + 1)
        dddg = build_dddg(trace)
        io_both = classify_io(dddg, dict(a=x, b=x + 1), {"u", "s"})
        assert set(io_both.outputs) == {"u", "s"}
        io_one = classify_io(dddg, dict(a=x, b=x + 1), {"u"})
        assert io_one.outputs == ("u",)
        assert "s" in io_one.internals

    def test_scalar_inputs_classified(self, rng):
        trace, inputs = trace_pcg(rng)
        io = classify_io(build_dddg(trace), inputs, {"x"})
        assert "iters" in io.inputs and "tol" in io.inputs
