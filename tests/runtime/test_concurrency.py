"""Concurrency tests: the orchestrator under parallel clients."""

import threading

import numpy as np
import pytest

from repro.runtime import Client, Orchestrator


class TestParallelAccess:
    def test_concurrent_tensor_writes_are_isolated(self, rng):
        orc = Orchestrator()
        errors = []

        def writer(worker_id: int) -> None:
            try:
                for i in range(50):
                    key = f"w{worker_id}_{i}"
                    value = np.full(16, float(worker_id * 1000 + i))
                    orc.put_tensor(key, value)
                    got = orc.get_tensor(key)
                    assert got[0] == worker_id * 1000 + i
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_concurrent_inference_requests(self):
        with Orchestrator() as orc:
            orc.register_model("scale", lambda x: x * 2.0)
            requests = []
            for i in range(20):
                orc.put_tensor(f"in{i}", np.full(4, float(i)))
                requests.append(orc.submit("scale", [(f"in{i}",)], [f"out{i}"]))
            for req in requests:
                assert req.done.wait(timeout=10.0)
                assert req.errors == [None]
            for i in range(20):
                assert np.allclose(orc.get_tensor(f"out{i}"), 2.0 * i)

    def test_parallel_clients_share_models(self, rng):
        orc = Orchestrator()
        primary = Client(orc)
        primary._orc.register_model("neg", lambda x: -x)
        results = []

        def worker(seed: int) -> None:
            client = Client(orc)
            x = np.full(3, float(seed))
            out = client.run_model("neg", inputs=x, outputs=f"o{seed}")
            results.append((seed, out))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        for seed, out in results:
            assert np.allclose(out, -float(seed))

    def test_interleaved_run_model_outputs_match_inputs(self, rng):
        """Regression for the shared-scratch-key race: N threads pipeline raw
        arrays through one started orchestrator; every response must match
        its own input, not a neighbor's."""
        from repro.nas import evaluate_topology
        from repro.nn import Topology

        x_train = rng.standard_normal((60, 5))
        y_train = x_train @ rng.standard_normal((5, 2))
        pkg = evaluate_topology(
            Topology(hidden=(8,), activation="tanh"), x_train, y_train, rng=rng
        ).package
        inputs = rng.standard_normal((8, 25, 5))
        expected = [[pkg.predict(inputs[w, i]) for i in range(25)] for w in range(8)]
        orc = Orchestrator(max_batch_size=8, num_workers=2)
        primary = Client(orc)
        primary.set_model("m", pkg)
        failures = []

        def worker(w: int) -> None:
            client = Client(orc)
            for i in range(25):
                out = client.run_model("m", inputs[w, i], f"out_{w}_{i}")
                if not np.allclose(out, expected[w][i]):
                    failures.append((w, i))

        with orc:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert failures == []

    def test_concurrent_async_batch_calls(self, rng):
        """Pipelined run_model_batch from several threads at once."""
        orc = Orchestrator(max_batch_size=16, num_workers=2)
        orc.register_model("affine", lambda x: x * 2.0 + 1.0)
        results = {}

        def worker(w: int) -> None:
            client = Client(orc)
            xs = [np.full(4, float(w * 100 + i)) for i in range(10)]
            outs = client.run_model_batch(
                "affine", xs, [f"bo_{w}_{i}" for i in range(10)]
            )
            results[w] = (xs, outs)

        with orc:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 4
        for w, (xs, outs) in results.items():
            for x, out in zip(xs, outs):
                assert np.array_equal(out, x * 2.0 + 1.0)

    def test_stop_drains_cleanly(self):
        orc = Orchestrator()
        orc.start()
        orc.register_model("id", lambda x: x)
        orc.put_tensor("a", np.ones(2))
        req = orc.submit("id", [("a",)], ["b"])
        assert req.done.wait(timeout=5.0)
        orc.stop()
        assert not orc.is_running
        orc.stop()  # idempotent
