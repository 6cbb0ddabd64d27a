"""Compiled plans in the serving path: identity, staleness, fallback.

The orchestrator must be allowed to substitute a :class:`CompiledPlan`
for any package forward without observable effect (other than speed):
bit-identical outputs under ``batch_invariant``, correct plan selection
across deploy/rollback, interpreted fallback for anything untraceable,
and zero rebuilds when a warm on-disk cache is present.
"""

import numpy as np
import pytest

from repro import obs
from repro.nn.tensor import batch_invariant
from repro.registry.store import ModelRegistry
from repro.runtime import Client, Orchestrator

from ..compile.test_conv_plans import cnn_package
from ..compile.test_plan import make_package
from . import procmodels


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def reference(package, x):
    with batch_invariant():
        return package.predict(x)


class TestCompiledIdentity:
    def test_direct_run_model_is_bit_identical(self, rng):
        package = make_package(rng)
        orc = Orchestrator()
        Client(orc).set_model("m", package)
        x = rng.standard_normal(6)
        orc.put_tensor("in", x)
        orc.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), reference(package, x))
        assert len(orc._core._plans) == 1  # the plan actually served it

    def test_pooled_micro_batches_are_bit_identical(self, rng):
        package = make_package(rng, activation="tanh", hidden=(16, 8))
        orc = Orchestrator(max_batch_size=16, num_workers=2)
        client = Client(orc)
        client.set_model("m", package)
        rows = rng.standard_normal((48, 6))
        with orc:
            outs = client.run_model_batch(
                "m", list(rows), [f"o{i}" for i in range(48)]
            )
        expected = reference(package, rows)
        for got, want in zip(outs, expected):
            np.testing.assert_array_equal(got, want)

    def test_compiled_and_interpreted_orchestrators_agree(self, rng):
        package = make_package(rng, residual=True, hidden=(8, 8))
        x = rng.standard_normal((5, 6))
        results = []
        for compile_plans in (True, False):
            orc = Orchestrator(compile_plans=compile_plans)
            Client(orc).set_model("m", package)
            orc.put_tensor("in", x)
            orc.run_model("m", ("in",), ("out",))
            results.append(orc.get_tensor("out"))
        np.testing.assert_array_equal(results[0], results[1])

    def test_no_compile_builds_no_plans(self, rng):
        package = make_package(rng)
        orc = Orchestrator(compile_plans=False)
        Client(orc).set_model("m", package)
        orc.put_tensor("in", rng.standard_normal(6))
        orc.run_model("m", ("in",), ("out",))
        assert orc._core._plans == {}


class TestPlanStaleness:
    def test_reregistered_version_serves_its_new_weights(self, rng):
        """A served call reads its (replica, plan) from a memo keyed by
        version; re-registering that version number must clear it, on
        the inline path and on the queued one alike."""
        old_pkg = make_package(rng)
        new_pkg = make_package(np.random.default_rng(7))
        orc = Orchestrator()
        client = Client(orc)
        client.set_model("m", old_pkg, version=1)
        x = rng.standard_normal(6)
        rows = list(rng.standard_normal((3, 6)))
        orc.put_tensor("in", x)
        with orc:
            for package in (old_pkg, new_pkg):
                if package is new_pkg:
                    client.set_model("m", new_pkg, version=1)
                assert orc.run_model("m", ("in",), ("out",)) == 1
                assert orc.get_tensor("out").tobytes() == reference(package, x).tobytes()
                queued = orc.submit("m", rows).result(timeout=10.0)
                for row, got in zip(rows, queued):
                    assert got.tobytes() == reference(package, row).tobytes()

    def test_deploy_switches_to_the_new_versions_plan(self, rng):
        v1_pkg = make_package(rng)
        v2_pkg = make_package(np.random.default_rng(7))
        orc = Orchestrator()
        client = Client(orc)
        client.set_model("m", v1_pkg)
        v2 = client.set_model("m", v2_pkg, deploy=False)
        x = rng.standard_normal(6)
        orc.put_tensor("in", x)

        orc.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), reference(v1_pkg, x))
        client.deploy_model("m", v2)
        orc.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), reference(v2_pkg, x))
        client.rollback_model("m")
        orc.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), reference(v1_pkg, x))
        # version is part of the plan map key: both plans coexist, neither
        # is ever served stale
        assert len(orc._core._plans) == 2

    def test_pinned_version_uses_its_own_plan(self, rng):
        v1_pkg = make_package(rng)
        v2_pkg = make_package(np.random.default_rng(7))
        orc = Orchestrator()
        client = Client(orc)
        client.set_model("m", v1_pkg)
        client.set_model("m", v2_pkg)
        x = rng.standard_normal(6)
        orc.put_tensor("in", x)
        orc.run_model("m", ("in",), ("out",), version=1)
        np.testing.assert_array_equal(orc.get_tensor("out"), reference(v1_pkg, x))


class TestFallback:
    def test_raw_callable_serves_interpreted(self, rng):
        orc = Orchestrator()
        orc.register_model("raw", lambda x: np.asarray(x) * 3.0)
        orc.put_tensor("in", np.ones(4))
        orc.run_model("raw", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), np.full(4, 3.0))
        assert orc._core._plans == {}  # no package, not even a sentinel entry

    def test_untraceable_package_falls_back_without_failing(self, rng):
        class OpaquePackage:
            """predict works; everything the tracer needs is missing."""

            def predict(self, x):
                return np.asarray(x) * 2.0

        orc = Orchestrator()
        orc.register_model("m", OpaquePackage().predict, package=OpaquePackage())
        orc.put_tensor("in", np.ones(3))
        orc.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), np.full(3, 2.0))
        registry = obs.get_registry()
        assert registry.get("repro_compile_untraceable_total").total() == 1
        # the negative result is memoized: serving again compiles nothing
        orc.run_model("m", ("in",), ("out",))
        assert registry.get("repro_compile_untraceable_total").total() == 1


class TestCnnAndCsrServing:
    def test_cnn_package_served_compiled(self, rng):
        from repro.nn.cnn import CNNTopology

        topology = CNNTopology(
            channels=(4, 3), kernel_sizes=(3, 5), pools=(2, -2)
        )
        package = cnn_package(rng, 8, 2, topology)
        orc = Orchestrator()
        Client(orc).set_model("m", package)
        x = rng.standard_normal((5, 8))
        orc.put_tensor("in", x)
        orc.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc.get_tensor("out"), reference(package, x))
        assert obs.get_registry().get("repro_compile_plans_built_total").total() == 1
        untraceable = obs.get_registry().get("repro_compile_untraceable_total")
        assert untraceable is None or untraceable.total() == 0

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_sparse_matrix_is_refused_and_stores_nothing(self, rng, mode):
        # a sparse region input reaches a surrogate only as the row its
        # FeatureSchema flattened; the serving path takes dense arrays
        from repro.sparse import from_dense

        package = make_package(rng)
        sparse = from_dense(np.eye(3, 6), "csr")
        orc = Orchestrator(**({"num_processes": 1} if mode == "process" else {}))
        try:
            client = Client(orc)
            client.set_model("m", package)
            orc.start()
            with pytest.raises(TypeError):
                client.put_tensor("in", sparse)
            row = rng.standard_normal(6)
            # both bulk calls name the refused type
            with pytest.raises(TypeError, match="CSRMatrix") as bulk:
                client.run_model_batch("m", [row, sparse], ["o1", "o2"], timeout=60)
            assert "not iterable" not in str(bulk.value)
            with pytest.raises(TypeError, match="CSRMatrix"):
                orc.submit("m", [sparse], ["o3"]).result(timeout=60)
            for key in ("in", "o1", "o2", "o3"):
                with pytest.raises(KeyError):
                    orc.get_tensor(key)
            # the refusals leave the model serving
            np.testing.assert_array_equal(
                client.run_model_batch("m", [row], timeout=60)[0],
                reference(package, row),
            )
        finally:
            orc.stop()


class TestMemoPurge:
    """deploy()/rollback() clear stale negative compile memos.

    The memos live in whichever serving core holds the version: the
    orchestrator's own in thread mode, the owning worker's in process
    mode.  Compile attempts are counted through the package's attempt
    log, which a spawned worker writes too.
    """

    @pytest.fixture(params=["thread", "process"])
    def orc(self, request):
        kwargs = {"num_processes": 1} if request.param == "process" else {}
        orchestrator = Orchestrator(**kwargs)
        yield orchestrator
        orchestrator.stop()

    @staticmethod
    def attempts(log):
        return len(log.read_text().splitlines()) if log.exists() else 0

    @staticmethod
    def merged_total(orc, name):
        orc.stop()  # a worker's final metric delta flushes on stop
        metric = obs.get_registry().get(name)
        return metric.total() if metric is not None else 0

    def test_deploy_retries_untraceable_memo(self, orc, rng, tmp_path):
        package = make_package(rng)
        log = tmp_path / "attempts"
        client = Client(orc)
        v1 = client.set_model("m", procmodels.FlakyTracePackage.wrap(package, log))
        orc.start()
        x = rng.standard_normal(6)
        client.run_model("m", x, "out")  # compile fails -> interpreted
        client.run_model("m", x, "out")  # negative memo: no retry
        assert self.attempts(log) == 1
        client.deploy_model("m", v1)  # hot swap clears the negative memo
        got = client.run_model("m", x, "out")
        assert self.attempts(log) == 2  # retried, and this time it compiled
        np.testing.assert_array_equal(got, reference(package, x))
        client.run_model("m", x, "out")
        assert self.attempts(log) == 2  # positive result is memoized as before
        assert self.merged_total(orc, "repro_compile_untraceable_total") == 1
        assert self.merged_total(orc, "repro_compile_plans_built_total") == 1

    def test_rollback_retries_untraceable_memo(self, orc, rng, tmp_path):
        v1_pkg = make_package(rng)
        v2_pkg = make_package(np.random.default_rng(7))
        log = tmp_path / "attempts"
        client = Client(orc)
        client.set_model("m", procmodels.FlakyTracePackage.wrap(v1_pkg, log))
        orc.start()
        x = rng.standard_normal(6)
        client.run_model("m", x, "out")  # v1's compile fails, memoized
        assert self.attempts(log) == 1
        client.set_model("m", v2_pkg)  # v2 serves; v1 keeps its memo
        client.rollback_model("m")  # back to v1: clears v1's negative memo
        got = client.run_model("m", x, "out")
        assert self.attempts(log) == 2
        np.testing.assert_array_equal(got, reference(v1_pkg, x))
        assert self.merged_total(orc, "repro_compile_plans_built_total") == 1

    def test_deploy_keeps_positive_plans(self, orc, rng, tmp_path):
        package = make_package(rng)
        log = tmp_path / "attempts"
        client = Client(orc)
        v1 = client.set_model(
            "m", procmodels.FlakyTracePackage.wrap(package, log, failures=0)
        )
        orc.start()
        x = rng.standard_normal(6)
        client.run_model("m", x, "out")
        assert self.attempts(log) == 1
        client.deploy_model("m", v1)  # redeploy must NOT drop the good plan
        client.run_model("m", x, "out")
        assert self.attempts(log) == 1
        assert self.merged_total(orc, "repro_compile_plans_built_total") == 1

    def test_memo_purge_is_safe_under_hot_swap_traffic(self, orc, rng):
        import threading

        v1_pkg = make_package(rng)
        v2_pkg = make_package(np.random.default_rng(5))
        client = Client(orc)
        client.set_model("m", v1_pkg)
        v2 = client.set_model("m", v2_pkg, deploy=False)
        x = rng.standard_normal((4, 6))
        expected = {reference(v1_pkg, x).tobytes(), reference(v2_pkg, x).tobytes()}
        orc.put_tensor("in", x)
        orc.start()
        stop = threading.Event()
        errors = []

        def traffic():
            i = 0
            while not stop.is_set():
                out = f"out_{threading.get_ident()}_{i % 4}"
                i += 1
                try:
                    if client.run_model("m", "in", out).tobytes() not in expected:
                        errors.append("served output matches neither version")
                except Exception as exc:  # noqa: BLE001 - fail the test below
                    errors.append(repr(exc))

        threads = [threading.Thread(target=traffic) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                client.deploy_model("m", v2)
                client.rollback_model("m")
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors


class TestUntraceableReasonLabels:
    def test_opaque_package_labeled(self, rng):
        class OpaquePackage:
            def predict(self, x):
                return np.asarray(x) * 2.0

        orc = Orchestrator()
        orc.register_model("m", OpaquePackage().predict, package=OpaquePackage())
        orc.put_tensor("in", np.ones(3))
        orc.run_model("m", ("in",), ("out",))
        counter = obs.get_registry().get("repro_compile_untraceable_total")
        assert counter.value(reason="opaque") == 1

    def test_conv_geometry_mismatch_labeled(self, rng):
        from repro.nas.package import SurrogatePackage
        from repro.nn.cnn import CNNTopology
        from repro.nn.conv import Flatten, SignalView
        from repro.nn.layers import Dense, Sequential

        model = Sequential([SignalView(4), Flatten(), Dense(6, 2, rng)])
        package = SurrogatePackage(
            model=model,
            topology=CNNTopology(channels=(1,), kernel_sizes=(1,), pools=(0,)),
            input_dim=6,
            output_dim=2,
        )
        orc = Orchestrator()
        Client(orc).set_model("m", package)
        orc.put_tensor("in", rng.standard_normal(6))
        # a geometry mismatch fails the interpreted forward too (the
        # package is mis-specified); the label still records why the
        # compiler refused it
        with pytest.raises(ValueError, match="divisible"):
            orc.run_model("m", ("in",), ("out",))
        counter = obs.get_registry().get("repro_compile_untraceable_total")
        assert counter.value(reason="conv") == 1


class TestPersistentCache:
    def test_restart_with_warm_disk_cache_rebuilds_nothing(self, rng, tmp_path):
        package = make_package(rng)
        x = rng.standard_normal(6)

        orc1 = Orchestrator(plan_cache_dir=tmp_path)
        Client(orc1).set_model("m", package)
        orc1.put_tensor("in", x)
        orc1.run_model("m", ("in",), ("out",))
        first = orc1.get_tensor("out")
        assert obs.get_registry().get("repro_compile_plans_built_total").total() == 1

        # "restart": fresh orchestrator + fresh metrics, same cache dir
        obs.configure(enabled=True, reset=True)
        orc2 = Orchestrator(plan_cache_dir=tmp_path)
        Client(orc2).set_model("m", package)
        orc2.put_tensor("in", x)
        orc2.run_model("m", ("in",), ("out",))
        np.testing.assert_array_equal(orc2.get_tensor("out"), first)
        registry = obs.get_registry()
        built = registry.get("repro_compile_plans_built_total")
        assert built is None or built.total() == 0
        assert (
            registry.get("repro_compile_cache_hits_total").value(tier="disk") == 1
        )

    def test_registry_digest_flows_through_client(self, rng, tmp_path):
        package = make_package(rng)
        registry = ModelRegistry(tmp_path / "registry")
        ref = package.publish(registry, "app")
        orc = Orchestrator(plan_cache_dir=tmp_path)
        client = Client(orc)
        client.set_model_from_registry("app", registry)
        x = rng.standard_normal(6)
        orc.put_tensor("in", x)
        orc.run_model("app", ("in",), ("out",))
        np.testing.assert_array_equal(
            orc.get_tensor("out"), reference(package, x)
        )
        model = orc._core.replica("app", orc.active_version("app"))
        assert model.digest == ref.digest

    def test_telemetry_names_are_exposed(self, rng):
        package = make_package(rng)
        orc = Orchestrator()
        Client(orc).set_model("m", package)
        orc.put_tensor("in", rng.standard_normal(6))
        orc.run_model("m", ("in",), ("out",))
        registry = obs.get_registry()
        assert registry.get("repro_compile_plans_built_total").total() == 1
        assert registry.get("repro_compile_plan_build_seconds").count() == 1
        assert registry.get("repro_compile_plan_exec_seconds").count(model="m") == 1
