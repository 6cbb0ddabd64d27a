"""Versioned serving: deploy/rollback, admission pinning, UnknownModelError."""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.runtime import (
    Client,
    Orchestrator,
    UnknownModelError,
)


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def tagged(value):
    """Row-wise model whose every output element is the version tag."""

    def predict(x):
        return np.asarray(x) * 0.0 + value

    return predict


class TestVersionedRegistry:
    def test_register_returns_increasing_versions(self):
        orc = Orchestrator()
        assert orc.register_model("m", tagged(1.0)) == 1
        assert orc.register_model("m", tagged(2.0)) == 2
        assert orc.model_versions("m") == [1, 2]
        assert orc.active_version("m") == 2

    def test_deploy_false_stages_without_serving(self):
        orc = Orchestrator()
        orc.register_model("m", tagged(1.0))
        v2 = orc.register_model("m", tagged(2.0), deploy=False)
        assert orc.active_version("m") == 1
        orc.put_tensor("in", np.zeros(3))
        orc.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), np.ones(3))
        orc.deploy("m", v2)
        assert orc.active_version("m") == v2
        orc.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), np.full(3, 2.0))

    def test_run_model_can_pin_a_version(self):
        orc = Orchestrator()
        orc.register_model("m", tagged(1.0))
        orc.register_model("m", tagged(2.0))
        orc.put_tensor("in", np.zeros(2))
        orc.run_model("m", ("in",), ("out",), version=1)
        np.testing.assert_array_equal(orc.get_tensor("out"), np.ones(2))
        with pytest.raises(ValueError, match="no version 9"):
            orc.run_model("m", ("in",), ("out",), version=9)

    def test_deploy_unknown_version_rejected(self):
        orc = Orchestrator()
        orc.register_model("m", tagged(1.0))
        with pytest.raises(ValueError, match="no version 5"):
            orc.deploy("m", 5)
        with pytest.raises(UnknownModelError):
            orc.deploy("ghost", 1)

    def test_rollback_toggles_between_last_two(self):
        orc = Orchestrator()
        orc.register_model("m", tagged(1.0))
        orc.register_model("m", tagged(2.0))
        assert orc.rollback("m") == 1
        assert orc.active_version("m") == 1
        assert orc.rollback("m") == 2  # a second rollback undoes the first

    def test_rollback_without_history_rejected(self):
        orc = Orchestrator()
        orc.register_model("m", tagged(1.0))
        with pytest.raises(ValueError, match="no previous version"):
            orc.rollback("m")

    def test_invalid_registrations_rejected(self):
        orc = Orchestrator()
        with pytest.raises(TypeError):
            orc.register_model("m", "not callable")
        with pytest.raises(ValueError, match="start at 1"):
            orc.register_model("m", tagged(1.0), version=0)


class TestUnknownModelError:
    def test_direct_run_model(self):
        orc = Orchestrator()
        orc.register_model("present", tagged(1.0))
        orc.put_tensor("in", np.zeros(2))
        with pytest.raises(UnknownModelError) as excinfo:
            orc.run_model("ghost", ("in",), ("out",))
        assert excinfo.value.model_name == "ghost"
        assert excinfo.value.registered == ("present",)
        assert "present" in str(excinfo.value)
        # still a KeyError for pre-existing handlers
        with pytest.raises(KeyError):
            orc.run_model("ghost", ("in",), ("out",))

    def test_empty_registry_message(self):
        orc = Orchestrator()
        orc.put_tensor("in", np.zeros(2))
        with pytest.raises(UnknownModelError, match="no models are registered"):
            orc.run_model("ghost", ("in",), ("out",))

    def test_surfaces_through_future_result(self):
        orc = Orchestrator()
        with orc:
            handle = orc.submit("ghost", [np.zeros(3)], ["out"])
            with pytest.raises(UnknownModelError, match="ghost"):
                handle.result(timeout=5.0)

    def test_surfaces_through_run_model_batch(self):
        orc = Orchestrator()
        client = Client(orc)
        with orc:
            with pytest.raises(UnknownModelError, match="ghost"):
                client.run_model_batch(
                    "ghost", [np.zeros(3)] * 4, [f"o{i}" for i in range(4)],
                    timeout=5.0,
                )

    def test_surfaces_without_serving_pool(self):
        orc = Orchestrator()
        handle = orc.submit("ghost", [np.zeros(3)], ["out"])
        with pytest.raises(UnknownModelError):
            handle.result()


class TestAdmissionPinning:
    def test_request_admitted_before_deploy_serves_old_version(self):
        """A deploy between admission and serving must not change which
        weights answer the request."""
        started, release = threading.Event(), threading.Event()

        def v1(x):
            started.set()
            assert release.wait(5.0)
            return np.asarray(x) * 0.0 + 1.0

        orc = Orchestrator(max_batch_size=1, num_workers=1)
        orc.register_model("m", v1)
        orc.put_tensor("in", np.zeros(2))
        with orc:
            a = orc.submit("m", [("in",)], ["out_a"])
            assert started.wait(5.0)  # worker is inside v1's forward
            v2 = orc.register_model("m", tagged(2.0), deploy=False)
            orc.deploy("m", v2)
            b = orc.submit("m", [("in",)], ["out_b"])
            release.set()
            assert a.done.wait(5.0) and b.done.wait(5.0)
            assert a.errors == [None] and b.errors == [None]
            np.testing.assert_array_equal(orc.get_tensor("out_a"), np.ones(2))
            np.testing.assert_array_equal(
                orc.get_tensor("out_b"), np.full(2, 2.0)
            )

    def test_hot_swap_under_traffic(self):
        """Deploy v2 while run_model_batch traffic is in flight: nothing is
        lost or failed, and every response is attributable to exactly one
        version (all elements carry a single version's tag)."""
        orc = Orchestrator(max_batch_size=8, num_workers=2)
        client = Client(orc)
        v1 = orc.register_model("m", tagged(1.0), batchable=True)
        v2 = orc.register_model("m", tagged(2.0), batchable=True, deploy=False)
        outputs: list[np.ndarray] = []
        errors: list[Exception] = []
        lock = threading.Lock()
        stop = threading.Event()
        counter = iter(range(10**9))

        def traffic(tid):
            while not stop.is_set():
                i = next(counter)
                outs = [f"t{tid}_{i}_{j}" for j in range(8)]
                try:
                    got = client.run_model_batch(
                        "m", [np.full(4, 0.5)] * 8, outs, timeout=10.0
                    )
                except Exception as exc:  # noqa: BLE001 - asserted empty below
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    outputs.extend(got)

        threads = [
            threading.Thread(target=traffic, args=(t,)) for t in range(3)
        ]
        with orc:
            for t in threads:
                t.start()
            time.sleep(0.10)
            assert orc.deploy("m", v2) == v2
            time.sleep(0.10)
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        assert not errors
        assert outputs, "traffic threads never completed a batch"
        tags = set()
        for row in outputs:
            row_tags = set(np.unique(row))
            assert len(row_tags) == 1, "one response mixed two versions"
            tags.add(row_tags.pop())
        assert tags <= {1.0, 2.0}
        assert 2.0 in tags, "no traffic observed the deployed version"
        assert orc.active_version("m") == v2
        assert v1 == 1  # admission-time pinning gave v1 its own tag space

    def test_swap_metrics_reflect_deploys(self):
        registry = obs.get_registry()
        orc = Orchestrator()
        orc.register_model("m", tagged(1.0))
        gauge = registry.get("repro_registry_active_version")
        assert gauge.value(model="m") == 1
        orc.register_model("m", tagged(2.0))  # auto-deploy = swap
        assert gauge.value(model="m") == 2
        assert registry.get("repro_registry_swaps_total").value(model="m") == 1
        orc.rollback("m")
        assert gauge.value(model="m") == 1
        assert (
            registry.get("repro_registry_rollbacks_total").value(model="m") == 1
        )
        # re-deploying the already-active version is not a swap
        orc.deploy("m", 1)
        assert registry.get("repro_registry_swaps_total").value(model="m") == 1


class TestClientVersioning:
    def test_set_model_versions_and_deploy(self, rng):
        from tests.runtime.test_batching import make_package

        package_a = make_package(rng)
        package_b = make_package(np.random.default_rng(999))
        orc = Orchestrator()
        client = Client(orc)
        v1 = client.set_model("s", package_a)
        v2 = client.set_model("s", package_b, deploy=False)
        assert (v1, v2) == (1, 2)
        assert orc.active_version("s") == 1
        x = rng.standard_normal(package_a.input_dim)
        with orc:
            before = client.run_model("s", x, "out1")
            np.testing.assert_allclose(before, package_a.predict(x), rtol=1e-12)
            assert client.deploy_model("s", v2) == 2
            after = client.run_model("s", x, "out2")
            np.testing.assert_allclose(after, package_b.predict(x), rtol=1e-12)
            assert client.rollback_model("s") == 1
            back = client.run_model("s", x, "out3")
            np.testing.assert_allclose(back, package_a.predict(x), rtol=1e-12)

    def test_set_model_from_registry_uses_registry_version(self, rng, tmp_path):
        from repro.registry import ModelRegistry
        from tests.runtime.test_batching import make_package

        package = make_package(rng)
        registry = ModelRegistry(tmp_path / "registry")
        package.publish(registry, "s")
        package.publish(registry, "s")
        orc = Orchestrator()
        client = Client(orc)
        loaded = client.set_model_from_registry("s", registry)
        assert orc.active_version("s") == 2  # matches the registry version
        x = rng.standard_normal(package.input_dim)
        np.testing.assert_array_equal(loaded.predict(x), package.predict(x))


class TestHotSwapSmoke:
    def test_cli_smoke_deploys_v2_with_no_failures(self, rng, capsys):
        """``repro serve --hot-swap`` on a tiny package: both halves of the
        traffic are served across the deploy, and v2 ends up active."""
        from repro.cli import _hot_swap_smoke, build_parser
        from tests.runtime.test_batching import make_package

        package = make_package(rng)
        rows = rng.standard_normal((64, package.input_dim))
        args = build_parser().parse_args(
            ["serve", "Blackscholes", "--hot-swap", "--max-batch-size", "8"]
        )
        assert _hot_swap_smoke("m", package, rows, args) == 0
        report = capsys.readouterr().out
        assert "64 requests across deploy v1->v2, 0 failed, active v2" in report
