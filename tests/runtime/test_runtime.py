"""Orchestrator, client and serving-path tests (Listings 1-2 semantics)."""

import contextlib
import glob

import numpy as np
import pytest

from repro.autoencoder import Autoencoder
from repro.nas import SurrogatePackage, evaluate_topology
from repro.nn import Topology
from repro.runtime import (
    Client,
    ONLINE_PHASES,
    OnlineCostModel,
    Orchestrator,
    ServingSession,
    UnknownModelError,
)

from . import procmodels

#: the server-mode tests run on a thread pool, then on one worker process
SERVING_MODES = (0, 1)


@contextlib.contextmanager
def serving(num_processes: int):
    """A started orchestrator in one mode; stopping it must release every
    shared-memory segment (the leak gate)."""
    with Orchestrator(num_processes=num_processes) as orc:
        yield orc
    assert glob.glob("/dev/shm/repro_*") == []


def make_package(rng, din=6, dout=2, with_ae=False):
    x = rng.standard_normal((60, din))
    y = x @ rng.standard_normal((din, dout))
    ae = None
    if with_ae:
        ae = Autoencoder(din, 3, rng=rng)
        z = ae.encode(x)
        return evaluate_topology(
            Topology(hidden=(8,), activation="tanh"), z, y,
            autoencoder=ae, x_raw=x, rng=rng,
        ).package
    return evaluate_topology(
        Topology(hidden=(8,), activation="tanh"), x, y, rng=rng
    ).package


class TestOrchestrator:
    def test_put_get_round_trip(self, rng):
        orc = Orchestrator()
        t = rng.standard_normal((3, 4))
        orc.put_tensor("k", t)
        assert np.allclose(orc.get_tensor("k"), t)

    def test_put_copies_data(self, rng):
        orc = Orchestrator()
        t = rng.standard_normal(4)
        orc.put_tensor("k", t)
        t[0] = 999.0
        assert orc.get_tensor("k")[0] != 999.0

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            Orchestrator().get_tensor("nope")

    def test_delete_tensor(self, rng):
        orc = Orchestrator()
        orc.put_tensor("k", rng.standard_normal(2))
        orc.delete_tensor("k")
        assert not orc.tensor_exists("k")

    def test_run_model_through_store(self, rng):
        orc = Orchestrator()
        orc.register_model("double", lambda x: x * 2.0)
        orc.put_tensor("in", np.ones(3))
        orc.run_model("double", ("in",), ("out",))
        assert np.allclose(orc.get_tensor("out"), 2.0)

    def test_unknown_model_raises(self):
        orc = Orchestrator()
        orc.put_tensor("in", np.ones(1))
        with pytest.raises(KeyError):
            orc.run_model("ghost", ("in",), ("out",))

    def test_non_callable_model_rejected(self):
        with pytest.raises(TypeError):
            Orchestrator().register_model("bad", 42)

    def test_server_mode_processes_queue(self, rng):
        for num_processes in SERVING_MODES:
            with serving(num_processes) as orc:
                orc.register_model("neg", procmodels.flip)
                orc.put_tensor("in", np.ones(4))
                req = orc.submit("neg", [("in",)], ["out"])
                assert req.done.wait(timeout=60.0)
                assert req.errors == [None]
                assert np.allclose(orc.get_tensor("out"), -1.0)
            assert not orc.is_running

    def test_server_mode_surfaces_errors(self):
        for num_processes in SERVING_MODES:
            with serving(num_processes) as orc:
                orc.register_model("aff", procmodels.affine, batchable=True)
                orc.register_model("bad", procmodels.FailingModel(), batchable=True)
                req = orc.submit("missing", [("in",)], ["out"])
                assert req.done.wait(timeout=60.0)
                assert isinstance(req.errors[0], KeyError)
                # an unknown name is refused at the front end
                with pytest.raises(UnknownModelError):
                    Client(orc).run_model_batch("nope", [np.ones(3)], timeout=60)
                # a model's error reaches the caller with its type
                handle = orc.submit("bad", [np.ones(3)], ["out"])
                with pytest.raises(ValueError, match="synthetic failure"):
                    handle.result(timeout=60)

    def test_submit_before_start_serves_inline(self):
        orc = Orchestrator()
        orc.register_model("neg", lambda x: -x)
        orc.put_tensor("a", np.ones(2))
        # no pool running: the caller's thread serves before submit returns
        req = orc.submit("neg", [("a",)], ["b"])
        assert req.done.is_set() and req.errors == [None]
        assert np.allclose(orc.get_tensor("b"), -1.0)


class TestClient:
    def test_listing1_flow(self, rng):
        """Mirror Listing 1: put -> run_model -> unpack."""
        orc = Orchestrator()
        client = Client(orc, cluster=False)
        pkg = make_package(rng)
        client.set_model("AI-CFD-net", pkg)
        x = rng.standard_normal((2, 6))
        client.put_tensor("in_key", x)
        client.run_model("AI-CFD-net", inputs="in_key", outputs="out_key")
        buffer = np.empty((2, 2))
        out = client.unpack_tensor("out_key", out=buffer)
        assert np.allclose(out, pkg.predict(x))
        assert out is buffer

    def test_raw_array_inputs(self, rng):
        orc = Orchestrator()
        client = Client(orc)
        pkg = make_package(rng)
        client.set_model("m", pkg)
        x = rng.standard_normal((3, 6))
        out = client.run_model("m", inputs=x, outputs="out")
        assert np.allclose(out, pkg.predict(x))

    def test_set_model_from_file(self, rng, tmp_path):
        pkg = make_package(rng)
        pkg.save(tmp_path / "net")
        client = Client(Orchestrator())
        loaded = client.set_model_from_file("net", str(tmp_path / "net"), "TORCH", "GPU")
        x = rng.standard_normal((2, 6))
        assert np.allclose(loaded.predict(x), pkg.predict(x))

    def test_unpack_shape_mismatch_rejected(self, rng):
        client = Client(Orchestrator())
        client.put_tensor("k", rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            client.unpack_tensor("k", out=np.empty((3, 3)))

    def test_server_mode_inference(self, rng):
        pkg = make_package(rng)
        x = rng.standard_normal((2, 6))
        for num_processes in SERVING_MODES:
            with serving(num_processes) as orc:
                client = Client(orc)
                client.set_model("m", pkg)
                out = client.run_model("m", inputs=x, outputs="out")
                assert np.allclose(out, pkg.predict(x))


class TestOnlineCostModel:
    def test_phases_complete_and_positive(self, rng):
        pkg = make_package(rng, with_ae=True)
        phases = OnlineCostModel().phase_times(pkg, input_bytes=1e6)
        assert set(phases) == set(ONLINE_PHASES)
        assert all(v >= 0 for v in phases.values())
        assert phases["encode"] > 0  # autoencoder present

    def test_encode_zero_without_ae(self, rng):
        pkg = make_package(rng, with_ae=False)
        phases = OnlineCostModel().phase_times(pkg, input_bytes=1e6)
        assert phases["encode"] == 0.0

    def test_fetch_scales_with_bytes(self, rng):
        pkg = make_package(rng)
        model = OnlineCostModel()
        small = model.phase_times(pkg, 1e3)["fetch_input"]
        big = model.phase_times(pkg, 1e9)["fetch_input"]
        assert big > small * 100

    def test_total_is_sum(self, rng):
        pkg = make_package(rng)
        model = OnlineCostModel()
        assert model.total_time(pkg, 1e5) == pytest.approx(
            sum(model.phase_times(pkg, 1e5).values())
        )

    def test_negative_bytes_rejected(self, rng):
        with pytest.raises(ValueError):
            OnlineCostModel().phase_times(make_package(rng), -1)


class TestServingSession:
    def test_inference_matches_package(self, rng):
        pkg = make_package(rng, with_ae=True)
        session = ServingSession(pkg)
        x = rng.standard_normal(6)
        out = session.infer(x)
        assert np.allclose(out, pkg.predict(x), atol=1e-9)

    def test_phases_timed(self, rng):
        pkg = make_package(rng, with_ae=True)
        session = ServingSession(pkg)
        for _ in range(3):
            session.infer(rng.standard_normal(6))
        for phase in ONLINE_PHASES:
            assert phase in session.timer.phases
