"""Trace save/load tests."""

import numpy as np
import pytest

from repro.extract import RegionTracer, Trace, build_dddg, classify_io

from . import regions


class TestTracePersistence:
    def test_round_trip_preserves_everything(self, rng, tmp_path):
        n = 6
        m = rng.random((n, n))
        A = m @ m.T + n * np.eye(n)
        inputs = dict(A=A, b=rng.random(n), x0=np.zeros(n), iters=30, tol=1e-14)
        _, trace = RegionTracer(regions.pcg_like).trace(**inputs)
        path = trace.save(tmp_path / "trace.json")
        loaded = Trace.load(path)

        assert loaded.dynamic_length() == trace.dynamic_length()
        assert loaded.stored_length() == trace.stored_length()
        assert list(loaded.flatten()) == list(trace.flatten())
        assert loaded.stmt_table.keys() == trace.stmt_table.keys()
        for sid in trace.stmt_table:
            assert loaded.stmt_table[sid] == trace.stmt_table[sid]

    def test_loaded_trace_builds_identical_dddg(self, rng, tmp_path):
        vals = rng.random(25)
        _, trace = RegionTracer(regions.loop_sum).trace(values=vals, n=25)
        loaded = Trace.load(trace.save(tmp_path / "t.json"))
        original = build_dddg(trace)
        rebuilt = build_dddg(loaded)
        assert {(s, d) for s, d, _ in original.graph.edges()} == {
            (s, d) for s, d, _ in rebuilt.graph.edges()
        }
        assert original.root_reads == rebuilt.root_reads

    def test_loaded_trace_classifies_identically(self, rng, tmp_path):
        x = rng.random(4)
        _, trace = RegionTracer(regions.two_outputs).trace(a=x, b=x + 1)
        loaded = Trace.load(trace.save(tmp_path / "t.json"))
        namespace = dict(a=x, b=x + 1)
        io1 = classify_io(build_dddg(trace), namespace, {"u", "s"})
        io2 = classify_io(build_dddg(loaded), namespace, {"u", "s"})
        assert io1 == io2

    def test_unsupported_version_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"version": 99}')
        with pytest.raises(ValueError):
            Trace.load(tmp_path / "bad.json")
