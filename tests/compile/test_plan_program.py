"""A plan's program: bound calls on per-thread buffers, same bits.

``CompiledPlan.predict`` copies its input into a program's input row,
runs the program's NumPy calls and returns a fresh copy of its output.
Byte equality (no tolerance) with the interpreted ``package.predict``
and with the row of a stacked call is the whole contract.
"""

import threading

import numpy as np
import pytest

from repro.compile import compile_package
from repro.compile.plan import PROGRAM_CACHE_ROWS
from repro.nn.cnn import CNNTopology
from repro.nn.tensor import batch_invariant

from .test_conv_plans import cnn_package
from .test_plan import make_package

ACTIVATIONS = ("relu", "tanh", "sigmoid", "leaky_relu", "identity")


def interpreted(package, x, invariant=True):
    if not invariant:
        return package.predict(x)
    with batch_invariant():
        return package.predict(x)


def assert_rows_match(package, plan, rows):
    """Each 1-D call equals the interpreter's answer for that row and the
    same row of one stacked call, byte for byte."""
    stacked = plan.predict(rows)
    assert stacked.tobytes() == interpreted(package, rows).tobytes()
    for i, row in enumerate(rows):
        single = plan.predict(row)
        assert single.shape == (plan.output_dim,)
        assert single.tobytes() == interpreted(package, row).tobytes()
        assert single.tobytes() == stacked[i].tobytes()


def packages(rng):
    for activation in ACTIVATIONS:
        yield activation, make_package(rng, activation=activation)
    yield "residual", make_package(rng, hidden=(8, 8), residual=True, activation="tanh")
    yield "autoencoder", make_package(rng, latent_dim=3, activation="sigmoid")
    topology = CNNTopology(
        channels=(4, 3), kernel_sizes=(3, 5), pools=(2, -2), activation="relu"
    )
    yield "cnn", cnn_package(rng, 8, 2, topology)


class TestBits:
    @pytest.mark.parametrize("batch", [2, 5, PROGRAM_CACHE_ROWS, PROGRAM_CACHE_ROWS + 7])
    def test_single_rows_match_stacked_and_interpreter(self, rng, batch):
        for kind, package in packages(rng):
            plan = compile_package(package)
            rows = rng.standard_normal((batch, package.input_dim)) * 3.0
            assert_rows_match(package, plan, rows)

    def test_fast_mode_plans_match_the_fast_interpreter(self, rng):
        for kind, package in packages(rng):
            plan = compile_package(package, batch_invariant=False)
            rows = rng.standard_normal((6, package.input_dim))
            assert plan.predict(rows).tobytes() == interpreted(package, rows, False).tobytes()
            for row in rows:
                assert plan.predict(row).tobytes() == interpreted(package, row, False).tobytes()

    def test_float32_int_and_strided_inputs(self, rng):
        package = make_package(rng, activation="tanh")
        plan = compile_package(package)
        wide = rng.standard_normal((5, 12))
        inputs = [
            wide[:, ::2],                                        # strided rows
            wide[2, ::2],                                        # a strided 1-D row
            np.asfortranarray(wide[:, :6]),                      # Fortran order
            wide[:, :6].astype(np.float32),                      # float32
            wide[0, :6].astype(np.float32),
            np.arange(-12, 12, dtype=np.int64).reshape(4, 6),    # int
            np.arange(6, dtype=np.int32),
        ]
        for x in inputs:
            assert plan.predict(x).tobytes() == interpreted(package, x).tobytes(), x.dtype
            assert plan.predict(x.tolist()).tobytes() == interpreted(package, x).tobytes()


class TestBuffers:
    def test_output_is_fresh(self, rng):
        package = make_package(rng)
        plan = compile_package(package)
        for x in (rng.standard_normal(6), rng.standard_normal((3, 6))):
            first = plan.predict(x)
            keep = first.copy()
            first[...] = np.nan
            second = plan.predict(x)
            assert second.tobytes() == keep.tobytes()
            assert not np.shares_memory(first, second)

    def test_programs_are_cached_up_to_the_bound(self, rng):
        plan = compile_package(make_package(rng))
        for n in (1, 3, PROGRAM_CACHE_ROWS, PROGRAM_CACHE_ROWS + 1, 100):
            plan.predict(rng.standard_normal((n, 6)))
        assert sorted(plan._tls.programs) == [1, 3, PROGRAM_CACHE_ROWS]

    def test_interleaved_threads_use_their_own_buffers(self, rng):
        """Both threads copy their input in, then wait for each other
        before the first product: with one shared input buffer, one of
        them would compute the other's row."""
        package = make_package(rng, hidden=(16, 8), activation="tanh")
        plan = compile_package(package)
        rendezvous = threading.Barrier(2, timeout=10.0)
        first = plan.steps[0]

        class Rendezvous:
            kind, out_dim = first.kind, first.out_dim

            def emit(self, x, out, invariant, calls):
                calls.append((rendezvous.wait, ()))
                first.emit(x, out, invariant, calls)

        plan.steps[0] = Rendezvous()
        rows = {name: rng.standard_normal(6) for name in ("a", "b")}
        got, buffers, errors = {}, {}, []

        def serve(name):
            try:
                for _ in range(5):
                    got.setdefault(name, []).append(plan.predict(rows[name]))
                buffers[name] = plan._tls.programs[1].x
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                rendezvous.abort()

        threads = [threading.Thread(target=serve, args=(n,)) for n in rows]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert buffers["a"] is not buffers["b"]
        for name, row in rows.items():
            want = interpreted(package, row).tobytes()
            assert [y.tobytes() for y in got[name]] == [want] * 5
