"""Process-mode serving: sharded workers + shared-memory transport.

Every test spins up real spawned worker processes, so the suite keeps
the pool count small (2) and reuses one orchestrator per test.  The
contract under test: process mode is observably identical to thread
mode — same client API, same results (bit-identical for
``batch_invariant`` packages), same metric names — while requests cross
process boundaries through the shm tensor store.
"""

import glob

import numpy as np
import pytest

from repro import obs
from repro.nn.tensor import batch_invariant
from repro.runtime import Client, Orchestrator, UnknownModelError

from ..compile.test_conv_plans import cnn_package
from ..compile.test_plan import make_package
from . import procmodels


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def shm_entries():
    return glob.glob("/dev/shm/repro_*")


@pytest.fixture
def orc():
    orchestrator = Orchestrator(num_processes=2)
    yield orchestrator
    orchestrator.stop()
    assert shm_entries() == []  # the leak gate: shutdown owns every segment


class TestProcessServing:
    def test_mixed_model_traffic_round_trip(self, orc, rng):
        orc.register_model("aff", procmodels.affine, batchable=True)
        orc.register_model("neg", procmodels.negate, batchable=True)
        orc.start()
        client = Client(orc)
        inputs = [rng.standard_normal(5) for _ in range(12)]
        names = ["aff" if i % 2 == 0 else "neg" for i in range(12)]
        outs = client.run_model_batch(names, inputs, timeout=60)
        assert len(outs) == 12
        for name, x, got in zip(names, inputs, outs):
            want = getattr(procmodels, "affine" if name == "aff" else "negate")(x)
            np.testing.assert_array_equal(np.ravel(got), np.ravel(want))

    def test_single_request_api_works_across_processes(self, orc, rng):
        orc.register_model("aff", procmodels.affine, batchable=True)
        orc.start()
        client = Client(orc)
        x = rng.standard_normal(4)
        (out,) = orc.submit("aff", [x], ["out"]).result(timeout=60)
        np.testing.assert_array_equal(np.ravel(out), procmodels.affine(x))
        # store-keyed requests cross the boundary too
        orc.put_tensor("staged", x)
        got = client.run_model("aff", ("staged",), ("y",))
        np.testing.assert_array_equal(np.ravel(got), procmodels.affine(x))

    def test_worker_error_propagates_with_type(self, orc):
        orc.register_model("bad", procmodels.FailingModel(), batchable=True)
        orc.start()
        handle = orc.submit("bad", [np.ones(3)], ["out"])
        with pytest.raises(ValueError, match="synthetic failure"):
            handle.result(timeout=60)

    def test_unknown_model_rejected_at_the_front_end(self, orc):
        orc.register_model("aff", procmodels.affine, batchable=True)
        orc.start()
        client = Client(orc)
        with pytest.raises(UnknownModelError):
            client.run_model_batch("nope", [np.ones(3)], timeout=60)

    def test_deploy_and_rollback_flip_serving_version(self, orc):
        client = Client(orc)
        orc.register_model("aff", procmodels.affine, batchable=True)
        v2 = orc.register_model(
            "aff", procmodels.affine_x10, batchable=True, deploy=False
        )
        orc.start()
        x = np.arange(4, dtype=np.float64)
        base = procmodels.affine(x)

        (got,) = client.run_model_batch("aff", [x], timeout=60)
        np.testing.assert_array_equal(np.ravel(got), base)
        client.deploy_model("aff", v2)
        (got,) = client.run_model_batch("aff", [x], timeout=60)
        np.testing.assert_array_equal(np.ravel(got), base * 10.0)
        client.rollback_model("aff")
        (got,) = client.run_model_batch("aff", [x], timeout=60)
        np.testing.assert_array_equal(np.ravel(got), base)

    def test_pinned_version_served_while_another_is_active(self, orc):
        orc.register_model("aff", procmodels.affine, batchable=True)
        orc.register_model("aff", procmodels.affine_x10, batchable=True)
        orc.start()
        x = np.arange(4, dtype=np.float64)
        orc.put_tensor("in", x)
        pinned = orc.submit("aff", [("in",)], ["out"], version=1)
        assert pinned.done.wait(timeout=60) and pinned.errors == [None]
        assert pinned.versions == [1]
        np.testing.assert_array_equal(
            np.ravel(orc.get_tensor("out")), procmodels.affine(x)
        )
        rows = orc.submit("aff", [x])
        np.testing.assert_array_equal(
            np.ravel(rows.result(timeout=60)), procmodels.affine_x10(x)
        )

    def test_run_batch_vectorizes_a_stacked_batch(self, orc, rng):
        orc.register_model("aff", procmodels.affine, batchable=True)
        orc.start()
        stacked = rng.standard_normal((16, 5))
        rows = orc.submit("aff", list(stacked))
        np.testing.assert_array_equal(
            np.ravel(rows.result(timeout=60)), procmodels.affine(stacked)
        )


class TestSparseAndCnnTraffic:
    def test_cnn_package_bit_identical_across_processes(self, orc, rng):
        from repro.nn.cnn import CNNTopology

        topology = CNNTopology(channels=(4, 3), kernel_sizes=(3, 5), pools=(2, -2))
        package = cnn_package(rng, 8, 2, topology)
        client = Client(orc)
        client.set_model("m", package)
        orc.start()
        rows = [rng.standard_normal(8) for _ in range(12)]
        outs = client.run_model_batch("m", rows, timeout=120)
        with batch_invariant():
            expected = package.predict(np.stack(rows))
        for got, want in zip(outs, expected):
            np.testing.assert_array_equal(np.ravel(got), np.ravel(want))


class TestCrossModeIdentity:
    def test_process_mode_bit_identical_to_thread_mode(self, rng):
        package = make_package(rng, hidden=(16, 8), activation="tanh")
        rows = [rng.standard_normal(6) for _ in range(24)]
        results = {}
        for mode, kwargs in {
            "thread": {"num_workers": 2},
            "process": {"num_processes": 2},
        }.items():
            orchestrator = Orchestrator(**kwargs)
            client = Client(orchestrator)
            client.set_model("m", package)
            try:
                orchestrator.start()
                results[mode] = client.run_model_batch("m", rows, timeout=120)
            finally:
                orchestrator.stop()
        with batch_invariant():
            expected = package.predict(np.stack(rows))
        for thread_out, process_out, want in zip(
            results["thread"], results["process"], expected
        ):
            got_t = np.ravel(np.asarray(thread_out))
            got_p = np.ravel(np.asarray(process_out))
            assert got_t.tobytes() == got_p.tobytes()
            np.testing.assert_array_equal(got_p, np.ravel(want))


class TestMergedTelemetry:
    def test_worker_metrics_land_in_front_end_registry(self, orc, rng):
        orc.register_model("aff", procmodels.affine, batchable=True)
        orc.start()
        client = Client(orc)
        inputs = [rng.standard_normal(4) for _ in range(10)]
        client.run_model_batch("aff", inputs, timeout=60)
        orc.stop()  # final worker deltas flush in the farewell message
        registry = obs.get_registry()
        served = registry.get("repro_orchestrator_served_total")
        assert served is not None and served.total() >= 10
        latency = registry.get("repro_orchestrator_inference_seconds")
        assert latency is not None and latency.count(model="aff") >= 1
        # the fleet gauges belong to the front end and exist alongside
        assert registry.get("repro_shard_queue_depth") is not None
        assert registry.get("repro_shm_segments") is not None

    def test_worker_failures_count_once(self, orc):
        orc.register_model("bad", procmodels.FailingModel(), batchable=True)
        orc.start()
        handle = orc.submit("bad", [np.ones(3)], ["out"])
        with pytest.raises(ValueError):
            handle.result(timeout=60)
        orc.stop()
        failed = obs.get_registry().get("repro_orchestrator_failed_total")
        assert failed is not None and failed.total() == 1
