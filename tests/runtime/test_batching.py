"""Micro-batched serving: grouping, scatter, bit-identity, the submit handle."""

import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.nas import evaluate_topology
from repro.nn import Topology
from repro.runtime import (
    BatchResult,
    Client,
    Orchestrator,
    OrchestratorStopped,
    measure_serving_throughput,
)


def make_package(rng, din=6, dout=2, hidden=(16,)):
    x = rng.standard_normal((80, din))
    y = x @ rng.standard_normal((din, dout))
    return evaluate_topology(
        Topology(hidden=hidden, activation="tanh"), x, y, rng=rng
    ).package


class TestConstructorKnobs:
    def test_defaults(self):
        orc = Orchestrator()
        assert orc.max_batch_size == 32
        assert orc.num_workers == 1
        assert orc.batch_invariant

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"num_processes": -1},
            {"num_workers": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Orchestrator(**kwargs)


class TestMicroBatching:
    def test_compatible_requests_batch_into_one_forward(self, rng):
        calls = []

        def model(x):
            calls.append(np.asarray(x).shape)
            return np.asarray(x) * 2.0

        orc = Orchestrator(max_batch_size=16)
        orc.register_model("scale", model, batchable=True)
        for i in range(8):
            orc.put_tensor(f"in{i}", np.full(4, float(i)))
        # one submit queues everything at once, so one drain sees all
        orc.start()
        batch = orc.submit(
            "scale", [(f"in{i}",) for i in range(8)], [f"out{i}" for i in range(8)]
        )
        assert batch.done.wait(timeout=5.0)
        assert batch.errors == [None] * 8
        orc.stop()
        assert (8, 4) in calls  # one stacked forward, not 8 singles
        for i in range(8):
            assert np.allclose(orc.get_tensor(f"out{i}"), 2.0 * i)

    def test_incompatible_shapes_grouped_separately(self, rng):
        shapes_seen = []

        def model(x):
            shapes_seen.append(np.asarray(x).shape)
            return np.asarray(x) * -1.0

        orc = Orchestrator(max_batch_size=8)
        orc.register_model("neg", model, batchable=True)
        orc.put_tensor("a", np.ones(3))
        orc.put_tensor("b", np.ones(3))
        orc.put_tensor("c", np.ones(5))
        orc.start()
        batch = orc.submit(
            "neg", [(k,) for k in ("a", "b", "c")], [f"o_{k}" for k in ("a", "b", "c")]
        )
        assert batch.done.wait(timeout=5.0)
        assert batch.errors == [None] * 3
        orc.stop()
        # the two (3,) inputs stack; the (5,) input runs alone
        assert (2, 3) in shapes_seen
        assert (5,) in shapes_seen

    def test_multi_key_inputs_stay_per_request(self, rng):
        shapes_seen = []

        def model(x):
            shapes_seen.append(np.asarray(x).shape)
            return np.asarray(x).sum(keepdims=True)

        orc = Orchestrator(max_batch_size=8)
        orc.register_model("sum", model, batchable=False)
        orc.put_tensor("p", np.ones(2))
        orc.put_tensor("q", np.ones(3))
        orc.start()
        batch = orc.submit("sum", [("p", "q")], ["out"])
        assert batch.done.wait(timeout=5.0)
        orc.stop()
        assert batch.errors == [None]
        assert shapes_seen == [(5,)]  # concatenated, per-request path
        assert np.allclose(orc.get_tensor("out"), 5.0)

    def test_non_batchable_model_served_per_request(self, rng):
        shapes_seen = []

        def model(x):
            shapes_seen.append(np.asarray(x).shape)
            return np.asarray(x) * 3.0

        orc = Orchestrator(max_batch_size=8)
        orc.register_model("m", model, batchable=False)
        for i in range(4):
            orc.put_tensor(f"i{i}", np.ones(2))
        orc.start()
        batch = orc.submit(
            "m", [(f"i{i}",) for i in range(4)], [f"o{i}" for i in range(4)]
        )
        assert batch.done.wait(timeout=5.0)
        assert batch.errors == [None] * 4
        orc.stop()
        assert all(shape == (2,) for shape in shapes_seen)
        assert len(shapes_seen) == 4

    def test_bad_request_does_not_poison_batchmates(self, rng):
        orc = Orchestrator(max_batch_size=8)
        pkg = make_package(rng)
        orc.register_model("m", pkg.predict, batchable=True)
        orc.put_tensor("good1", rng.standard_normal(6))
        orc.put_tensor("bad", rng.standard_normal(9))   # wrong feature count
        orc.put_tensor("good2", rng.standard_normal(6))
        keys = ("good1", "bad", "good2")
        orc.start()
        batch = orc.submit("m", [(k,) for k in keys], [f"o_{k}" for k in keys])
        assert batch.done.wait(timeout=5.0)
        orc.stop()
        assert batch.errors[0] is None
        assert isinstance(batch.errors[1], ValueError)
        assert batch.errors[2] is None
        assert orc.tensor_exists("o_good1") and orc.tensor_exists("o_good2")

    def test_batching_is_opt_in_for_raw_callables(self):
        # regression (REVIEW high): a non-row-wise model that still returns
        # batch-shaped output (normalizes over the whole stack) must NOT be
        # batched by default — batching it silently corrupts per-request
        # results whenever two same-shape requests share a micro-batch
        def normalize(x):
            x = np.asarray(x)
            return x / np.linalg.norm(x)

        orc = Orchestrator(max_batch_size=8)
        orc.register_model("norm", normalize)  # default: per-request path
        orc.put_tensor("a", np.array([3.0, 4.0]))
        orc.put_tensor("b", np.array([30.0, 40.0]))
        orc.start()
        batch = orc.submit("norm", [("a",), ("b",)], ["o_a", "o_b"])
        assert batch.done.wait(timeout=5.0)
        assert batch.errors == [None, None]
        orc.stop()
        # each request normalized by its own norm, not the stacked norm
        assert np.allclose(orc.get_tensor("o_a"), [0.6, 0.8])
        assert np.allclose(orc.get_tensor("o_b"), [0.6, 0.8])

    def test_rowwise_scalar_outputs_batch_and_unpack(self, rng):
        # regression (REVIEW medium): a row-wise model returning one scalar
        # per row — predict((B, F)) -> (B,) — must scatter real 0-d
        # ndarrays, not np.float64 scalars that break get_tensor
        orc = Orchestrator(max_batch_size=8)
        orc.register_model(
            "rowsum", lambda x: np.asarray(x).sum(axis=-1), batchable=True
        )
        client = Client(orc)
        x = rng.standard_normal((6, 4))
        for i in range(6):
            orc.put_tensor(f"i{i}", x[i])
        with orc:
            outs = client.run_model_batch(
                "rowsum",
                [f"i{i}" for i in range(6)],
                [f"o{i}" for i in range(6)],
            )
        for i in range(6):
            assert np.allclose(outs[i], x[i].sum())

    def test_non_rowwise_batchable_model_falls_back(self, rng):
        # claims batchable but returns one row regardless of batch size:
        # the shape check must route every request to the per-request path
        def collapse(x):
            x = np.atleast_2d(np.asarray(x))
            return x.sum(axis=0)

        orc = Orchestrator(max_batch_size=8)
        orc.register_model("collapse", collapse, batchable=True)
        orc.put_tensor("u", np.full(3, 1.0))
        orc.put_tensor("v", np.full(3, 2.0))
        orc.start()
        batch = orc.submit("collapse", [("u",), ("v",)], ["o_u", "o_v"])
        assert batch.done.wait(timeout=5.0)
        assert batch.errors == [None, None]
        orc.stop()
        assert np.allclose(orc.get_tensor("o_u"), 1.0)
        assert np.allclose(orc.get_tensor("o_v"), 2.0)

    def test_worker_pool_serves_all_requests(self, rng):
        pkg = make_package(rng)
        orc = Orchestrator(max_batch_size=4, num_workers=4)
        client = Client(orc)
        client.set_model("m", pkg)
        x = rng.standard_normal((40, 6))
        with orc:
            outs = orc.submit("m", list(x), [f"o{i}" for i in range(40)]).result(
                timeout=10.0
            )
        for i in range(40):
            assert np.allclose(outs[i], pkg.predict(x[i]))

    def test_batch_telemetry_recorded(self, rng):
        registry = obs.get_registry()
        rows_before = registry.counter(
            "repro_orchestrator_batched_rows_total"
        ).total()
        pkg = make_package(rng)
        orc = Orchestrator(max_batch_size=16)
        client = Client(orc)
        client.set_model("m", pkg)
        x = rng.standard_normal((16, 6))
        with orc:
            # one submit queues all 16 rows before the worker drains
            client.run_model_batch("m", list(x), timeout=10.0)
        assert registry.counter("repro_orchestrator_batched_rows_total").total() > rows_before
        assert registry.histogram("repro_orchestrator_batch_size").count() > 0


class TestPlanGroupedBatching:
    """Non-batchable package models still batch through a resolved plan.

    ``batchable`` is opt-in because an arbitrary callable may mix rows —
    but a compiled plan is row-wise *by construction*, so once a version
    has a plan for a row shape, same-shape bursts vectorize through one
    plan execution instead of falling back to per-request serving.
    """

    def test_warm_plan_vectorizes_a_burst(self, rng):
        registry = obs.get_registry()
        pkg = make_package(rng)
        orc = Orchestrator(max_batch_size=16)
        # deliberately NOT batchable: only the plan legitimizes grouping
        orc.register_model("m", pkg.predict, package=pkg, batchable=False)
        client = Client(orc)
        x = rng.standard_normal((12, 6))
        with orc:
            warm = client.run_model("m", x[0], "warm").copy()  # builds the plan
            rows_before = registry.counter(
                "repro_orchestrator_batched_rows_total"
            ).total()
            # one submit queues the whole burst before a drain
            outs = [
                out.copy()
                for out in client.run_model_batch("m", list(x), timeout=10.0)
            ]
            # the burst crossed the vectorized path, not 12 singles
            assert (
                registry.counter("repro_orchestrator_batched_rows_total").total()
                > rows_before
            )
            # bit-identity: the batched rows equal their single-request runs
            assert np.array_equal(outs[0], warm)
            refs = [
                client.run_model("m", x[i], f"r{i}").copy() for i in range(12)
            ]
        for got, ref in zip(outs, refs):
            assert np.array_equal(got, ref)

    def test_without_plans_non_batchable_stays_per_request(self, rng):
        registry = obs.get_registry()
        rows_before = registry.counter(
            "repro_orchestrator_batched_rows_total"
        ).total()
        pkg = make_package(rng)
        orc = Orchestrator(max_batch_size=16, compile_plans=False)
        orc.register_model("m", pkg.predict, package=pkg, batchable=False)
        client = Client(orc)
        x = rng.standard_normal((6, 6))
        with orc:
            outs = orc.submit("m", list(x), [f"o{i}" for i in range(6)]).result(
                timeout=10.0
            )
        for i in range(6):
            assert np.allclose(outs[i], pkg.predict(x[i]))
        assert (
            registry.counter("repro_orchestrator_batched_rows_total").total()
            == rows_before
        )


class TestBitIdentity:
    """Batched serving must be bit-identical to per-request serving."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [2, 7, 32])
    def test_property_batched_equals_per_request(self, seed, batch):
        rng = np.random.default_rng(seed)
        din = int(rng.integers(3, 12))
        hidden = tuple(int(h) for h in rng.integers(4, 24, size=rng.integers(1, 3)))
        pkg = make_package(rng, din=din, hidden=hidden)
        x = rng.standard_normal((batch + 1, din))

        per_request = Orchestrator(max_batch_size=1)
        batched = Orchestrator(max_batch_size=batch)
        c_per, c_bat = Client(per_request), Client(batched)
        c_per.set_model("m", pkg)
        c_bat.set_model("m", pkg)
        with per_request:
            ref = [
                c_per.run_model("m", x[i], f"r{i}").copy() for i in range(len(x))
            ]
        with batched:
            # one submit: the worker drains full batches
            got = [
                out.copy()
                for out in c_bat.run_model_batch("m", list(x), timeout=10.0)
            ]
        for i in range(len(x)):
            assert np.array_equal(ref[i], got[i]), f"row {i} differs"

    def test_direct_run_model_matches_server_mode(self, rng):
        pkg = make_package(rng)
        x = rng.standard_normal(6)
        offline = Orchestrator()
        offline.register_model("m", pkg.predict)
        offline.put_tensor("in", x)
        offline.run_model("m", ("in",), ("out",))
        direct = offline.get_tensor("out").copy()

        served = Orchestrator(max_batch_size=32)
        client = Client(served)
        client.set_model("m", pkg)
        with served:
            out = client.run_model("m", x, "out")
        assert np.array_equal(direct, out)

    def test_float32_rows_batch_bit_identically(self, rng):
        pkg = make_package(rng)
        x = rng.standard_normal((9, 6)).astype(np.float32)
        per_request = Orchestrator(max_batch_size=1)
        batched = Orchestrator(max_batch_size=8)
        c_per, c_bat = Client(per_request), Client(batched)
        c_per.set_model("m", pkg)
        c_bat.set_model("m", pkg)
        with per_request:
            ref = [c_per.run_model("m", x[i], f"r{i}").copy() for i in range(9)]
        with batched:
            got = [
                out.copy()
                for out in c_bat.run_model_batch("m", list(x), timeout=10.0)
            ]
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)


class TestAsyncClient:
    """The handle ``Orchestrator.submit`` returns, and the client's calls."""

    def test_future_resolves_with_result(self, rng):
        pkg = make_package(rng)
        orc = Orchestrator(max_batch_size=4)
        client = Client(orc)
        client.set_model("m", pkg)
        x = rng.standard_normal(6)
        with orc:
            handle = orc.submit("m", [x], ["out"])
            assert isinstance(handle, BatchResult)
            (out,) = handle.result(timeout=5.0)
            assert handle.done.is_set()
            # repeated result() returns the same output
            assert np.array_equal(out, handle.result()[0])
        # served forwards run batch-invariant (stacked matmul), direct
        # predict on BLAS: equal to rounding, bit-equal only within the
        # serving path
        assert np.allclose(out, pkg.predict(x))

    def test_future_raises_serving_error(self):
        orc = Orchestrator(max_batch_size=4)
        with orc:
            handle = orc.submit("ghost", [np.ones(3)], ["out"])
            with pytest.raises(KeyError):
                handle.result(timeout=5.0)
            # the error is kept too
            with pytest.raises(KeyError):
                handle.result()

    def test_future_without_server_resolves_synchronously(self, rng):
        pkg = make_package(rng)
        orc = Orchestrator()
        client = Client(orc)
        client.set_model("m", pkg)
        x = rng.standard_normal(6)
        handle = orc.submit("m", [x], ["out"])
        assert handle.done.is_set()
        assert np.allclose(handle.result()[0], pkg.predict(x))

    def test_future_timeout(self, rng):
        stall = threading.Event()

        def slow(x):
            stall.wait(timeout=10.0)
            return np.asarray(x)

        orc = Orchestrator(max_batch_size=1)
        orc.register_model("slow", slow)
        with orc:
            handle = orc.submit("slow", [np.ones(2)], ["out"])
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.05)
            stall.set()
            handle.result(timeout=5.0)

    def test_result_timeout_honored_while_another_caller_waits(self):
        # regression (REVIEW low): one caller blocked inside result() must
        # not make a second caller's result(timeout) wait indefinitely
        release = threading.Event()

        def slow(x):
            release.wait(timeout=10.0)
            return np.asarray(x)

        orc = Orchestrator(max_batch_size=1)
        orc.register_model("slow", slow)
        try:
            with orc:
                handle = orc.submit("slow", [np.ones(2)], ["out"])
                blocker = threading.Thread(
                    target=lambda: handle.result(timeout=10.0), daemon=True
                )
                blocker.start()
                time.sleep(0.05)  # let the blocker enter result()
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    handle.result(timeout=0.1)
                assert time.monotonic() - start < 5.0
                release.set()
                blocker.join(timeout=5.0)
                assert not blocker.is_alive()
        finally:
            release.set()

    def test_run_model_batch_timeout(self):
        release = threading.Event()
        orc = Orchestrator(max_batch_size=1)
        orc.register_model(
            "slow", lambda x: (release.wait(timeout=1.0), np.asarray(x))[1]
        )
        client = Client(orc)
        with orc:
            with pytest.raises(TimeoutError):
                client.run_model_batch("slow", [np.ones(2)], ["o"], timeout=0.05)
            release.set()

    def test_run_model_batch_orders_outputs(self, rng):
        pkg = make_package(rng)
        orc = Orchestrator(max_batch_size=8)
        client = Client(orc)
        client.set_model("m", pkg)
        x = rng.standard_normal((12, 6))
        with orc:
            outs = client.run_model_batch(
                "m", [x[i] for i in range(12)], [f"o{i}" for i in range(12)]
            )
        assert len(outs) == 12
        for i in range(12):
            assert np.allclose(outs[i], pkg.predict(x[i]))

    def test_run_model_batch_length_mismatch(self, rng):
        client = Client(Orchestrator())
        with pytest.raises(ValueError):
            client.run_model_batch("m", [np.ones(2)], ["a", "b"])

    def test_scratch_keys_unique_and_cleaned(self, rng):
        pkg = make_package(rng)
        orc = Orchestrator(max_batch_size=8)
        client = Client(orc)
        client.set_model("m", pkg)
        x = rng.standard_normal((6, 6))
        outs: dict = {}

        def caller(i):
            outs[i] = client.run_model("m", x[i], f"o{i}").copy()

        callers = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
        with orc:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=10.0)
        # concurrent calls staged distinct scratch keys: no input was
        # overwritten by another caller's
        for i in range(6):
            assert np.allclose(outs[i], pkg.predict(x[i]))
        leftover = [k for k in orc._tensors if k.startswith("__scratch")]
        assert leftover == []

    def test_sync_run_model_cleans_scratch_on_error(self, rng):
        orc = Orchestrator()
        client = Client(orc)
        with pytest.raises(KeyError):
            client.run_model("ghost", np.ones(3), "out")
        assert not [k for k in orc._tensors if k.startswith("__scratch")]


class TestStoreDtypes:
    def test_float32_preserved(self):
        orc = Orchestrator()
        orc.put_tensor("k", np.ones((3, 3), dtype=np.float32))
        assert orc.get_tensor("k").dtype == np.float32

    def test_float64_preserved(self):
        orc = Orchestrator()
        orc.put_tensor("k", np.ones(3))
        assert orc.get_tensor("k").dtype == np.float64

    def test_int_coerced_to_float64(self):
        orc = Orchestrator()
        orc.put_tensor("k", np.arange(4))
        assert orc.get_tensor("k").dtype == np.float64

    def test_defensive_copy_kept_for_float32(self):
        orc = Orchestrator()
        t = np.ones(4, dtype=np.float32)
        orc.put_tensor("k", t)
        t[0] = 99.0
        assert orc.get_tensor("k")[0] == 1.0


class TestStopDiagnostics:
    def test_stuck_worker_warns_and_sets_gauge(self):
        release = threading.Event()

        def wedge(x):
            release.wait(timeout=30.0)
            return np.asarray(x)

        orc = Orchestrator(max_batch_size=1)
        orc.register_model("wedge", wedge)
        orc.put_tensor("in", np.ones(2))
        orc.start()
        orc.submit("wedge", [("in",)], ["out"])
        time.sleep(0.05)  # let the worker pick the request up
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            orc.stop(join_timeout=0.1)
        release.set()
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        gauge = obs.get_registry().gauge("repro_orchestrator_stuck_workers")
        assert gauge.value() >= 1
        # a clean stop afterwards resets the gauge
        orc2 = Orchestrator()
        orc2.start()
        orc2.stop()
        assert gauge.value() == 0

    def test_stop_abandons_queued_requests_in_batches(self):
        orc = Orchestrator(max_batch_size=8)
        orc.register_model("id", lambda x: x)
        orc.put_tensor("a", np.ones(2))
        orc.start()
        batch = orc.submit("id", [("a",)], ["b"])
        assert batch.done.wait(timeout=5.0)
        orc.stop()
        # a stopped pool serves a later submit on the caller's thread
        after = orc.submit("id", [("a",)], ["c"])
        assert after.done.is_set()
        assert np.array_equal(after.result()[0], np.ones(2))
        assert np.array_equal(orc.get_tensor("c"), np.ones(2))


class TestThroughputHelper:
    def test_measure_timeout_enforced(self, rng):
        # regression (REVIEW low): the advertised timeout must actually
        # bound the measurement instead of being discarded
        class WedgedPackage:
            def predict(self, x):
                time.sleep(0.3)
                return np.atleast_2d(np.asarray(x)) * 2.0

        with pytest.raises(TimeoutError):
            measure_serving_throughput(
                WedgedPackage(), rng.standard_normal((4, 3)), timeout=0.01
            )

    def test_measure_reports_all_requests(self, rng):
        pkg = make_package(rng)
        rows = rng.standard_normal((32, 6))
        result = measure_serving_throughput(pkg, rows, max_batch_size=8)
        assert result.requests == 32
        assert result.seconds > 0
        assert result.requests_per_sec > 0
        assert "req/s" in result.format()
