"""Orchestrator lifecycle in thread and process mode: stop() drains
pending work, telemetry reconciles, a lost worker fails its waiters at
once, and stored tensors cannot be aliased."""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from typing import Optional

import numpy as np
import pytest

from repro import obs
from repro.runtime import (
    Client,
    Orchestrator,
    OrchestratorStopped,
    UnknownModelError,
    WorkerLostError,
)

from . import procmodels


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def _counter(name: str) -> float:
    metric = obs.get_registry().get(name)
    return metric.total() if metric is not None else 0.0


MODES = ("thread", "process")


def _orchestrator(mode: str) -> Orchestrator:
    """A default thread-mode orchestrator, or one with a single worker process."""
    return Orchestrator(num_processes=1 if mode == "process" else 0)


def _held(
    mode: str,
    release: threading.Event,
    started: Optional[threading.Event] = None,
):
    """A model that holds its worker until ``release`` is set, setting
    ``started`` once a forward holds the worker.

    A worker process cannot see the events, so there the model holds for
    a fixed half second instead and ``started`` is set at once.
    """
    if mode == "process":
        if started is not None:
            started.set()
        return procmodels.SleepyModel(0.5)

    def held(x):
        if started is not None:
            started.set()
        release.wait(timeout=10.0)
        return x

    return held


def _until(condition) -> None:
    """Wait up to 5 s for ``condition()``, then assert it."""
    deadline = time.monotonic() + 5.0
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert condition()


class TestStopDrainsQueue:
    @pytest.mark.parametrize("mode", MODES)
    def test_pending_requests_complete_with_error(self, mode):
        orc = _orchestrator(mode)
        release, started = threading.Event(), threading.Event()
        orc.register_model("slow", _held(mode, release, started))
        orc.put_tensor("a", np.ones(2))
        orc.start()
        # first request occupies the worker; the rest stay queued
        requests = [orc.submit("slow", [("a",)], ["o0"])]
        assert started.wait(timeout=5.0)
        requests += [orc.submit("slow", [("a",)], [f"o{i}"]) for i in range(1, 5)]
        stopper = threading.Thread(target=orc.stop)
        stopper.start()
        time.sleep(0.05)
        release.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        for request in requests:
            # no waiter hangs forever: every done event fires
            assert request.done.wait(timeout=5.0)
        errors = [r.errors[0] for r in requests]
        assert any(isinstance(e, OrchestratorStopped) for e in errors)

    @pytest.mark.parametrize("mode", MODES)
    def test_blocked_waiter_unblocks(self, mode):
        orc = _orchestrator(mode)
        hold = threading.Event()
        orc.register_model("hold", _held(mode, hold))
        orc.put_tensor("a", np.ones(1))
        orc.start()
        orc.submit("hold", [("a",)], ["x"])
        pending = orc.submit("hold", [("a",)], ["y"])

        unblocked = threading.Event()

        def waiter():
            pending.done.wait(timeout=10.0)
            unblocked.set()

        t = threading.Thread(target=waiter)
        t.start()
        hold.set()
        orc.stop()
        assert unblocked.wait(timeout=5.0)
        t.join(timeout=5.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_double_stop_is_idempotent_and_restartable(self, mode):
        orc = _orchestrator(mode)
        orc.register_model("id", procmodels.affine)
        orc.put_tensor("a", np.ones(2))
        orc.start()
        orc.stop()
        orc.stop()
        assert not orc.is_running
        # a stale None sentinel must not kill the next serving session
        orc.start()
        assert orc.is_running
        req = orc.submit("id", [("a",)], ["b"])
        assert req.done.wait(timeout=5.0)
        assert req.errors == [None]
        orc.stop()

    @pytest.mark.parametrize("mode", MODES)
    def test_submit_runs_inline(self, mode):
        orc = _orchestrator(mode)
        orc.register_model("id", procmodels.affine)
        orc.put_tensor("a", np.ones(2))
        orc.start()
        orc.stop()
        # a stopped pool: the caller's thread serves before submit returns
        batch = orc.submit("id", [("a",)], ["b"])
        assert batch.done.is_set()
        assert orc.get_tensor("b").tolist() == procmodels.affine(np.ones(2)).tolist()
        with pytest.raises(UnknownModelError):
            orc.submit("m", [("a",)], ["c"]).result()


class TestMetricsReconcile:
    @pytest.mark.parametrize("mode", MODES)
    def test_submitted_equals_served_plus_failed_under_concurrency(self, mode):
        orc = _orchestrator(mode)
        orc.register_model("double", procmodels.affine)
        # "broken" raises for some inputs -> failed counter
        orc.register_model("broken", procmodels.FailingModel())
        n_producers, per_producer = 6, 25
        results: list = []
        lock = threading.Lock()

        def producer(worker: int) -> None:
            rng = np.random.default_rng(worker)
            for i in range(per_producer):
                key = f"in_{worker}_{i}"
                orc.put_tensor(key, rng.standard_normal(8))
                model = "broken" if i % 5 == 0 else "double"
                req = orc.submit(model, [(key,)], [f"out_{worker}_{i}"])
                with lock:
                    results.append(req)
                if i % 7 == 0:
                    orc.delete_tensor(key)  # churn the store concurrently

        with orc:
            threads = [
                threading.Thread(target=producer, args=(w,))
                for w in range(n_producers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for req in results:
                assert req.done.wait(timeout=10.0)

        total = n_producers * per_producer
        assert len(results) == total
        submitted = _counter("repro_orchestrator_submitted_total")
        served = _counter("repro_orchestrator_served_total")
        failed = _counter("repro_orchestrator_failed_total")
        assert submitted == total
        assert served + failed == submitted
        # every completed-without-error request really has its output
        ok = sum(1 for r in results if r.errors[0] is None)
        assert served == ok

    @pytest.mark.parametrize("mode", MODES)
    def test_admission_failures_fail_at_submit(self, mode):
        orc = _orchestrator(mode)
        orc.register_model("id", procmodels.affine)
        orc.put_tensor("a", np.ones(2))
        with orc:
            unknown = orc.submit("ghost", [("a",)], ["o1"])
            missing = orc.submit("id", [("nope",)], ["o2"])
            # failed at admission: done before any worker saw them
            assert unknown.done.is_set() and missing.done.is_set()
        assert isinstance(unknown.errors[0], UnknownModelError)
        assert isinstance(missing.errors[0], KeyError)
        assert _counter("repro_orchestrator_submitted_total") == 2
        assert _counter("repro_orchestrator_failed_total") == 2
        assert _counter("repro_orchestrator_served_total") == 0

    @pytest.mark.parametrize("outcome", ("ok", "model_raises", "unknown_model"))
    @pytest.mark.parametrize("pool", ("running", "stopped"))
    @pytest.mark.parametrize(
        "entry",
        ("client_run_model", "orc_submit", "run_model_batch", "orc_run_model"),
    )
    def test_every_entry_point_counts_each_request_once(self, entry, pool, outcome):
        orc = Orchestrator()
        client = Client(orc)
        orc.register_model("ok", procmodels.affine, batchable=True)
        orc.register_model("model_raises", procmodels.FailingModel(), batchable=True)
        name = {"unknown_model": "ghost"}.get(outcome, outcome)
        x = np.arange(4, dtype=np.float64)
        calls = {
            "client_run_model": lambda: client.run_model(name, x, "out"),
            "orc_submit": lambda: orc.submit(name, [x], ["out"]).result(10),
            "run_model_batch": lambda: client.run_model_batch(name, [x], timeout=10),
            "orc_run_model": lambda: orc.run_model(name, ("in",), ("out",)),
        }
        orc.put_tensor("in", x)
        if pool == "running":
            orc.start()
        try:
            if outcome == "ok":
                calls[entry]()
            else:
                with pytest.raises(Exception):
                    calls[entry]()
        finally:
            orc.stop()
        submitted = _counter("repro_orchestrator_submitted_total")
        served = _counter("repro_orchestrator_served_total")
        failed = _counter("repro_orchestrator_failed_total")
        assert submitted == 1
        assert submitted == served + failed
        assert failed == (outcome != "ok")

    @pytest.mark.parametrize(
        "mode, gauge_name, labels",
        [
            ("thread", "repro_orchestrator_queue_depth", {}),
            ("process", "repro_shard_queue_depth", {"shard": "0"}),
        ],
        ids=MODES,
    )
    def test_queue_depth_returns_to_zero(self, mode, gauge_name, labels):
        orc = _orchestrator(mode)
        orc.register_model("id", procmodels.affine)
        orc.put_tensor("a", np.ones(2))
        with orc:
            reqs = [orc.submit("id", [("a",)], [f"o{i}"]) for i in range(10)]
            for r in reqs:
                r.done.wait(timeout=5.0)
        gauge = obs.get_registry().get(gauge_name)
        assert gauge.value(**labels) == 0

    def test_tensor_store_gauge_tracks_size(self):
        orc = Orchestrator()
        orc.put_tensor("a", np.ones(2))
        orc.put_tensor("b", np.ones(2))
        orc.delete_tensor("a")
        gauge = obs.get_registry().get("repro_orchestrator_tensor_store_size")
        assert gauge.value() == 1


class TestWorkerLoss:
    def test_killed_worker_fails_its_waiters_at_once(self):
        orc = Orchestrator(num_processes=1)
        orc.register_model("sleepy", procmodels.SleepyModel(5.0))
        with orc:
            handle = orc.submit("sleepy", [np.ones(3)], ["out"])
            time.sleep(0.3)  # the worker is inside the 5 s forward
            shard = orc._pool._shards[0]
            os.kill(shard.proc.pid, signal.SIGKILL)
            killed = time.monotonic()
            with pytest.raises(WorkerLostError):
                handle.result(timeout=5.0)
            assert time.monotonic() - killed < 2.0
            assert shard.depth == 0
        submitted = _counter("repro_orchestrator_submitted_total")
        served = _counter("repro_orchestrator_served_total")
        failed = _counter("repro_orchestrator_failed_total")
        assert submitted == served + failed == 1
        assert not [n for n in os.listdir("/dev/shm") if n.startswith("repro_")]


    def test_killed_worker_fails_a_blocking_caller_at_once(self):
        orc = Orchestrator(num_processes=1)
        client = Client(orc)
        orc.register_model("sleepy", procmodels.SleepyModel(5.0))
        raised: list = []

        def caller():
            try:
                client.run_model("sleepy", np.ones(3), "out")
            except Exception as exc:  # noqa: BLE001 - checked below
                raised.append((exc, time.monotonic()))

        with orc:
            thread = threading.Thread(target=caller)
            thread.start()
            time.sleep(0.3)  # the worker is inside the 5 s forward
            os.kill(orc._pool._shards[0].proc.pid, signal.SIGKILL)
            killed = time.monotonic()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        (error, at), = raised
        assert isinstance(error, WorkerLostError)
        assert at - killed < 2.0
        submitted = _counter("repro_orchestrator_submitted_total")
        served = _counter("repro_orchestrator_served_total")
        failed = _counter("repro_orchestrator_failed_total")
        assert submitted == served + failed == 1


    def test_worker_dead_at_boot_is_named(self):
        """A worker that dies before its boot ping (here: re-importing a
        ``__main__`` read from stdin) fails ``start`` with one error that
        names the shard, its exit code and the cause, and leaves no
        child process behind."""
        script = (
            "import multiprocessing\n"
            "from repro.runtime import Orchestrator\n"
            "try:\n"
            "    Orchestrator(num_processes=1).start()\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "print(len(multiprocessing.active_children()))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-"], input=script, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        error, children = done.stdout.strip().splitlines()
        assert error.startswith("shard 0 worker exited with code 1 before it booted")
        assert "re-import the main module" in error and "stdin" in error
        assert children == "0"


class TestBlockingCall:
    """``run_model`` serves on the caller's thread only when that
    overtakes nothing: a thread-mode pool with nothing queued and no
    forward in flight."""

    @pytest.mark.parametrize("mode", MODES)
    def test_who_serves_a_lone_blocking_call(self, mode):
        orc = _orchestrator(mode)
        client = Client(orc)
        threads: list = []

        def recorded(x):
            threads.append(threading.current_thread())
            return procmodels.affine(x)

        model = recorded if mode == "thread" else procmodels.pid
        orc.register_model("m", model, batchable=True)
        x = np.arange(4, dtype=np.float64)
        with orc:
            blocking = client.run_model("m", x, "out").copy()
            (queued,) = orc.submit("m", [x], ["out2"]).result(10.0)
            if mode == "process":
                worker = orc._pool._shards[0].proc.pid
        assert blocking.tobytes() == queued.tobytes()
        if mode == "thread":
            caller, pooled = threads
            assert caller is threading.current_thread()
            assert pooled.name.startswith("orchestrator-worker")
        else:
            assert worker != os.getpid()
            assert blocking.tolist() == [float(worker)]

    def test_callers_batch_behind_an_inline_forward(self):
        orc = Orchestrator()
        client = Client(orc)
        gate = threading.Event()
        forwards: list = []

        def gated(x):
            forwards.append(threading.current_thread())
            gate.wait(timeout=10.0)
            return procmodels.affine(x)

        orc.register_model("m", gated, batchable=True)
        rows = np.arange(32, dtype=np.float64).reshape(8, 4)
        outputs: dict = {}

        def caller(i):
            outputs[i] = client.run_model("m", rows[i], f"o{i}").copy()

        callers = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        with orc:
            callers[0].start()
            _until(lambda: forwards)
            for t in callers[1:]:
                t.start()
            _until(lambda: _counter("repro_orchestrator_submitted_total") == 8)
            gate.set()
            for t in callers:
                t.join(timeout=10.0)
            burst = list(forwards)
            del forwards[:]
            client.run_model("m", rows[0], "last")
        for i in range(8):
            assert outputs[i].tobytes() == procmodels.affine(rows[i]).tobytes()
        # the first caller served itself; the rest queued and batched
        assert burst[0] is callers[0]
        assert all(t.name.startswith("orchestrator-worker") for t in burst[1:])
        assert len(burst) < 8
        # every forward was released, so the pool is idle again
        assert forwards == [threading.current_thread()]
        submitted = _counter("repro_orchestrator_submitted_total")
        assert submitted == _counter("repro_orchestrator_served_total") == 9

    def test_queued_callers_merge_into_one_forward(self):
        orc = Orchestrator()
        client = Client(orc)
        started, gate = threading.Event(), threading.Event()
        shapes: list = []

        def held(x):
            started.set()
            gate.wait(timeout=10.0)
            return x

        def recorded(x):
            shapes.append(np.shape(x))
            return procmodels.affine(x)

        orc.register_model("held", held)
        orc.register_model("m", recorded, batchable=True)
        rows = np.arange(36, dtype=np.float64).reshape(9, 4)
        outputs: dict = {}

        def caller(i):
            outputs[i] = client.run_model("m", rows[i], f"o{i}").copy()

        def behind_a_held_forward(idxs):
            started.clear()
            gate.clear()
            hold = orc.submit("held", [np.ones(1)])
            assert started.wait(timeout=5.0)
            callers = [threading.Thread(target=caller, args=(i,)) for i in idxs]
            for t in callers:
                t.start()
            _until(lambda: orc._pool._queue.qsize() == len(idxs))
            gate.set()
            for t in callers:
                t.join(timeout=10.0)
                assert not t.is_alive()
            hold.result(timeout=10.0)

        with orc:
            behind_a_held_forward(range(8))
            behind_a_held_forward([8])
        # eight queued blocking callers: one stacked forward; a lone
        # queued caller: its row, unstacked
        assert shapes == [(8, 4), (4,)]
        for i in range(9):
            assert outputs[i].tobytes() == procmodels.affine(rows[i]).tobytes()

    @pytest.mark.parametrize("busy", ("in_flight", "queued"))
    @pytest.mark.parametrize("mode", MODES)
    def test_blocking_call_waits_behind_earlier_work(self, mode, busy):
        orc = _orchestrator(mode)
        release, started = threading.Event(), threading.Event()
        orc.register_model("slow", _held(mode, release, started))
        orc.register_model("fast", procmodels.affine)
        orc.put_tensor("a", np.ones(2))
        seen: list = []

        def caller():
            orc.run_model("fast", ("a",), ("late",))
            seen.extend(r.done.is_set() for r in earlier)

        with orc:
            earlier = [orc.submit("slow", [("a",)], ["o0"])]
            assert started.wait(timeout=5.0)
            if busy == "queued":
                earlier.append(orc.submit("slow", [("a",)], ["o1"]))
            thread = threading.Thread(target=caller)
            thread.start()
            time.sleep(0.1)
            # a fast forward on the caller's thread would be over by now
            assert thread.is_alive()
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert seen == [True] * len(earlier)
        assert all(r.errors == [None] for r in earlier)
        assert orc.get_tensor("late").tolist() == procmodels.affine(np.ones(2)).tolist()


class TestTensorAliasing:
    def test_get_tensor_result_is_read_only(self):
        orc = Orchestrator()
        orc.put_tensor("k", np.arange(4.0))
        view = orc.get_tensor("k")
        with pytest.raises(ValueError):
            view[0] = 99.0
        assert orc.get_tensor("k")[0] == 0.0

    def test_client_get_tensor_cannot_mutate_store(self):
        orc = Orchestrator()
        client = Client(orc)
        client.put_tensor("k", np.arange(3.0))
        got = client.get_tensor("k")
        with pytest.raises(ValueError):
            got += 1.0
        assert np.allclose(orc.get_tensor("k"), [0.0, 1.0, 2.0])

    def test_unpack_tensor_copy_is_writable(self):
        orc = Orchestrator()
        client = Client(orc)
        client.put_tensor("k", np.arange(3.0))
        out = client.unpack_tensor("k")
        out[0] = 42.0   # caller-owned copy
        assert orc.get_tensor("k")[0] == 0.0

    def test_put_tensor_still_copies_in(self):
        orc = Orchestrator()
        src = np.ones(3)
        orc.put_tensor("k", src)
        src[0] = 7.0
        assert orc.get_tensor("k")[0] == 1.0

    @pytest.mark.parametrize(
        "value",
        [
            np.arange(5, dtype=dtype)
            for dtype in (np.float16, np.float32, np.float64, np.longdouble,
                          np.int32, np.int64)
        ]
        + [np.array([True, False, True]), np.arange(5) + 0.5j],
        ids=lambda value: str(value.dtype),
    )
    def test_put_tensor_keeps_floats_and_widens_the_rest(self, value):
        orc = Orchestrator()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            orc.put_tensor("k", value)
            # the rule put_tensor has always followed
            if np.issubdtype(value.dtype, np.floating):
                expected = value.copy()
            else:
                expected = value.astype(np.float64)
        stored = orc.get_tensor("k")
        assert stored.dtype == expected.dtype
        assert stored.tobytes() == expected.tobytes()
