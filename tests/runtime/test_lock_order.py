"""Dynamic lock-order recording cross-validated against the static graph,
plus regressions for the races the CC analyzer caught in the serving stack."""

import os
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.obs.locks import LockOrderRecorder, TrackedCondition, instrument_object
from repro.runtime import Orchestrator
from repro.runtime.sharding import _RequestQueue
from repro.static import cross_validate_lock_orders, lock_order_graph

PACKAGE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src", "repro"
)


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


@pytest.fixture(scope="module")
def static_graph():
    return lock_order_graph(PACKAGE_DIR)


def _queue(*items):
    """An open request queue holding ``items``."""
    q = _RequestQueue()
    q.open()
    q.put_many(list(items))
    return q


class TestLockOrderCrossValidation:
    def test_recorded_serving_edges_subset_of_static_graph(self, static_graph):
        """Every lock nesting real traffic exercises must be a static edge."""
        recorder = LockOrderRecorder()
        orc = Orchestrator(max_batch_size=4, num_workers=2)
        instrument_object(orc, recorder=recorder)
        instrument_object(orc._pool._queue, recorder=recorder)
        orc.register_model("double", lambda x: np.asarray(x) * 2.0)
        orc.start()
        try:
            for i in range(6):
                orc.put_tensor(f"in{i}", np.full(3, float(i)))
            batches = [
                orc.submit("double", [("in0",)], ["out0"]),
                orc.submit(
                    "double",
                    [(f"in{i}",) for i in range(1, 6)],
                    [f"out{i}" for i in range(1, 6)],
                ),
            ]
            for batch in batches:
                assert batch.done.wait(timeout=10.0)
                assert all(error is None for error in batch.errors)
        finally:
            orc.stop()

        recorded = recorder.edges()
        assert recorded, "traffic should nest at least one lock pair"
        xval = cross_validate_lock_orders(static_graph, recorded)
        assert xval.agrees, xval.summary()
        # stop's nesting (the state lock over the pool's queue) is the
        # edge we specifically modeled
        assert ("Orchestrator._state_lock", "_RequestQueue._cond") in recorded

    def test_static_graph_is_acyclic(self, static_graph):
        assert static_graph.cycles() == []


class TestQsizeRegression:
    def test_qsize_acquires_the_condition(self):
        # regression: qsize() used to read len(self._items) bare; taking
        # the condition shows up as one held-histogram observation
        q = _RequestQueue()
        instrument_object(q, recorder=LockOrderRecorder())
        assert isinstance(q._cond, TrackedCondition)
        held = obs.get_registry().histogram(
            "repro_lock_held_seconds", labels=("lock",)
        )
        before = held.count(lock="_RequestQueue._cond")
        assert q.qsize() == 0
        assert held.count(lock="_RequestQueue._cond") == before + 1


class TestGetBatchTimeoutEdges:
    """Edges of ``get_batch``'s one blocking wait: what a woken worker
    takes, and how the stop sentinels end the wait."""

    @staticmethod
    def _count_waits(q):
        """Record the queue depth at every ``_cond.wait`` call."""
        depths = []
        wait = q._cond.wait

        def counting_wait(timeout=None):
            depths.append(len(q._items))
            return wait(timeout)

        q._cond.wait = counting_wait
        return depths

    def test_held_item_returns_with_everything_queued(self):
        requests = [("m", f"a{i}") for i in range(8)]
        few = _queue(*requests[:3])
        waits = self._count_waits(few)
        assert few.get_batch(max_items=8) == requests[:3]
        deep = _queue(*requests)
        waits += self._count_waits(deep)
        assert deep.get_batch(max_items=4) == requests[:4]
        assert deep.qsize() == 4
        # a held item never waits for the batch to fill
        assert waits == []

    def test_lone_item_is_served_without_waiting_for_more(self):
        q = _queue()
        waits = self._count_waits(q)
        req = ("m", "a")
        result = []
        t = threading.Thread(target=lambda: result.append(q.get_batch(8)))
        t.start()
        time.sleep(0.05)  # let the worker block on the empty queue
        q.put_many([req])
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert result == [[req]]
        # one wait at most, on the empty queue before the item arrived;
        # none after it, for a batch that never fills
        assert waits in ([], [0])

    def test_sentinel_mid_drain_is_pushed_back(self):
        req = ("m", "a")
        q = _queue(req)
        q.close(1)  # the exit sentinel queues behind the request
        assert q.get_batch(max_items=8) == [req]
        # the sentinel is back at the head for the next worker
        assert q.get_batch(max_items=8) is None

    def test_one_sentinel_wakes_each_blocked_worker(self):
        q = _queue()
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(q.get_batch(4)))
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)        # let all three block in wait()
        q.close(len(threads))  # one sentinel per worker
        for t in threads:
            t.join(timeout=5.0)
            assert not t.is_alive()
        assert results == [None] * 3


class TestTracerResetRegression:
    def test_reset_swaps_epoch_and_spans_together(self):
        # regression: reset() cleared _finished under the lock but wrote
        # epoch outside it; both now move in one critical section
        tracer = obs.TELEMETRY.tracer
        with tracer.span("work"):
            pass
        assert tracer.finished_spans()
        old_epoch = tracer.epoch
        time.sleep(0.002)
        tracer.reset()
        assert tracer.finished_spans() == []
        assert tracer.epoch > old_epoch
