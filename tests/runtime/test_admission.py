"""Admission control: bounded queues, backpressure, load shedding.

Uses deliberately tiny queue depths plus :class:`SleepyModel` to jam a
single worker, so the front end has to choose between waiting
(backpressure) and shedding (:class:`OverloadError`).
"""

import numpy as np
import pytest

from repro import obs
from repro.runtime import Client, Orchestrator, OverloadError

from ..compile.test_plan import make_package
from . import procmodels


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def make_orc(**kwargs):
    kwargs.setdefault("num_processes", 1)
    kwargs.setdefault("max_queue_depth", 2)
    kwargs.setdefault("admission_timeout_ms", 30.0)
    return Orchestrator(**kwargs)


class TestLoadShedding:
    def test_overload_surfaces_through_future_result(self):
        orc = make_orc()
        orc.register_model("slow", procmodels.SleepyModel(0.4), batchable=True)
        try:
            orc.start()
            handles = [
                orc.submit("slow", [np.ones(3)], [f"o{i}"])
                for i in range(3)
            ]
            # depth 2 admits the first two; the third sheds after the
            # 30 ms admission wait
            with pytest.raises(OverloadError):
                handles[2].result(timeout=60)
            for handle in handles[:2]:
                handle.result(timeout=60)
            assert (
                obs.get_registry().get("repro_overload_total").total() >= 1
            )
        finally:
            orc.stop()

    def test_overload_surfaces_through_run_model_batch(self):
        orc = make_orc()
        orc.register_model("slow", procmodels.SleepyModel(0.4), batchable=True)
        try:
            orc.start()
            client = Client(orc)
            jam = [
                orc.submit("slow", [np.ones(3)], [f"o{i}"])
                for i in range(2)
            ]
            with pytest.raises(OverloadError):
                client.run_model_batch(
                    "slow", [np.ones(3), np.ones(3)], timeout=60
                )
            for handle in jam:
                handle.result(timeout=60)
        finally:
            orc.stop()

    def test_shed_request_does_not_occupy_the_queue(self):
        orc = make_orc()
        orc.register_model("slow", procmodels.SleepyModel(0.2), batchable=True)
        try:
            orc.start()
            client = Client(orc)
            jam = [
                orc.submit("slow", [np.ones(3)], [f"o{i}"])
                for i in range(2)
            ]
            shed = orc.submit("slow", [np.ones(3)], ["shed"])
            with pytest.raises(OverloadError):
                shed.result(timeout=60)
            for handle in jam:
                handle.result(timeout=60)
            # the shed request left no phantom depth behind: the queue
            # admits a fresh pair immediately
            outs = client.run_model_batch(
                "slow", [np.ones(3), np.ones(3)], timeout=60
            )
            assert len(outs) == 2
        finally:
            orc.stop()


class TestBurstAboveTheQueueBound:
    @pytest.mark.parametrize("keyed", [False, True], ids=["bulk", "store-keyed"])
    def test_one_model_burst_is_served_whole(self, rng, keyed):
        # 4096 rows of one model on one idle shard with the default
        # 512-row bound.  Bulk: 8 chunks, each waiting on the chunks
        # already sent, never on its own unsent predecessors.  Store-keyed
        # (named outputs): one request per row, each freeing its slot as
        # soon as it is served
        package = make_package(rng, activation="tanh")
        rows = [rng.standard_normal(6) for _ in range(4096)]
        out_keys = [f"o{i}" for i in range(len(rows))] if keyed else None
        outs = {}
        for mode, kwargs in {"thread": {}, "process": {"num_processes": 1}}.items():
            orc = Orchestrator(**kwargs)
            client = Client(orc)
            client.set_model("m", package)
            try:
                orc.start()
                outs[mode] = [
                    np.array(out)
                    for out in client.run_model_batch("m", rows, out_keys, timeout=120)
                ]
            finally:
                orc.stop()
        assert len(outs["process"]) == len(rows)
        for thread_out, process_out in zip(outs["thread"], outs["process"]):
            assert np.asarray(thread_out).tobytes() == np.asarray(process_out).tobytes()
        assert obs.get_registry().get("repro_overload_total").total() == 0


class TestBackpressure:
    def test_admission_waits_for_the_queue_to_drain(self):
        # generous admission window: the third request must *wait* for a
        # slot instead of shedding
        orc = make_orc(admission_timeout_ms=5000.0)
        orc.register_model("slow", procmodels.SleepyModel(0.05), batchable=True)
        try:
            orc.start()
            handles = [
                orc.submit("slow", [np.ones(3)], [f"o{i}"])
                for i in range(5)
            ]
            for handle in handles:
                np.testing.assert_array_equal(
                    np.ravel(handle.result(timeout=60)[0]),
                    procmodels.affine(np.ones(3)),
                )
            assert obs.get_registry().get("repro_overload_total").total() == 0
        finally:
            orc.stop()


class TestAdmissionTimePinning:
    def test_request_admitted_before_deploy_serves_its_pinned_version(self):
        orc = make_orc(admission_timeout_ms=5000.0)
        orc.register_model("m", procmodels.SleepyModel(0.3), batchable=True)
        v2 = orc.register_model(
            "m", procmodels.affine_x10, batchable=True, deploy=False
        )
        try:
            orc.start()
            client = Client(orc)
            x = np.arange(3, dtype=np.float64)
            pinned = orc.submit("m", [x], ["pinned"])
            # hot-swap while the pinned request is still being served
            client.deploy_model("m", v2)
            fresh = orc.submit("m", [x], ["fresh"])
            np.testing.assert_array_equal(
                np.ravel(pinned.result(timeout=60)[0]), procmodels.affine(x)
            )
            np.testing.assert_array_equal(
                np.ravel(fresh.result(timeout=60)[0]), procmodels.affine_x10(x)
            )
        finally:
            orc.stop()


class TestBulkPathFailures:
    """A bulk call fails, and is counted, row by row in both modes."""

    @pytest.mark.parametrize("num_processes", [0, 1], ids=["threads", "processes"])
    def test_non_rowwise_model_is_served_per_row(self, rng, num_processes):
        # the stacked block's forward returns one row for eight, so the
        # core serves the block again row by row
        orc = make_orc(num_processes=num_processes)
        orc.register_model("collapse", procmodels.collapse, batchable=True)
        rows = [rng.standard_normal(3) for _ in range(8)]
        try:
            orc.start()
            outs = Client(orc).run_model_batch("collapse", rows, timeout=60)
        finally:
            orc.stop()
        for row, out in zip(rows, outs):
            np.testing.assert_array_equal(np.ravel(out), procmodels.collapse(row))

    def test_shed_rows_count_as_failed(self):
        orc = make_orc()
        orc.register_model("slow", procmodels.SleepyModel(0.4), batchable=True)
        failed = obs.get_registry().get("repro_orchestrator_failed_total")
        try:
            orc.start()
            client = Client(orc)
            jam = [
                orc.submit("slow", [np.ones(3)], [f"o{i}"])
                for i in range(2)
            ]
            before = failed.total()
            with pytest.raises(OverloadError):
                client.run_model_batch("slow", [np.ones(3)] * 2, timeout=60)
            assert failed.total() - before == 2
            for handle in jam:
                handle.result(timeout=60)
        finally:
            orc.stop()
