"""Artifact payloads keep their bytes and read back through one codec each."""

import json

import numpy as np
import pytest

from repro.autoencoder import Autoencoder
from repro.nas import evaluate_topology
from repro.nas.package import SurrogatePackage
from repro.nn import Topology, build_model
from repro.registry import ModelRegistry
from repro.core.scaling import Scaler
from repro.registry.formats import (
    read_autoencoder_npz,
    read_model_npz,
    write_autoencoder_npz,
    write_model_npz,
)


def make_package(rng, din=6, dout=2):
    x = rng.standard_normal((60, din))
    y = x @ rng.standard_normal((din, dout))
    return evaluate_topology(
        Topology(hidden=(8,), activation="tanh"), x, y, rng=rng
    ).package


def v2_model_npz(path, model, topology, din, dout):
    """Write a surrogate ``.npz`` in format v2 (no scalers), byte for byte."""
    meta = {
        "version": 2,
        "in_features": din,
        "out_features": dout,
        "topology": {
            "family": "mlp",
            "hidden": list(topology.hidden),
            "activation": topology.activation,
            "residual": topology.residual,
            "sparse_input": False,
        },
    }
    arrays = {f"param_{i}": p.data for i, p in enumerate(model.parameters())}
    np.savez(path, meta=json.dumps(meta), **arrays)


def v3_model_npz(path, model, topology, din, dout, x_scaler, y_scaler):
    """Write the format-v3 surrogate ``.npz`` layout byte for byte."""
    meta = {
        "version": 3,
        "in_features": din,
        "out_features": dout,
        "topology": {
            "family": "mlp",
            "hidden": list(topology.hidden),
            "activation": topology.activation,
            "residual": topology.residual,
        },
    }
    arrays = {f"param_{i}": p.data for i, p in enumerate(model.parameters())}
    arrays.update(
        x_mean=x_scaler.mean, x_std=x_scaler.std,
        y_mean=y_scaler.mean, y_std=y_scaler.std,
    )
    np.savez(path, meta=json.dumps(meta), **arrays)


class TestModelNpz:
    def scalers(self):
        # -0.0 and NaN must come back with their bits
        return (
            Scaler(mean=np.array([-0.0, 1.5, np.nan]), std=np.array([1.0, 0.25, 3.0])),
            Scaler(mean=np.array([2.0, -0.0]), std=np.array([0.5, 1e-300])),
        )

    def test_v3_layout_round_trips_byte_for_byte(self, tmp_path):
        """Format v3 is the pinned layout plus the four scaler arrays,
        and a read-then-write reproduces the file's bytes."""
        topology = Topology(hidden=(4,), activation="relu")
        model = build_model(3, 2, topology)
        x_scaler, y_scaler = self.scalers()
        v3_model_npz(tmp_path / "pinned.npz", model, topology, 3, 2, x_scaler, y_scaler)
        write_model_npz(
            model, topology, 3, 2, tmp_path / "new.npz",
            x_scaler=x_scaler, y_scaler=y_scaler,
        )
        new = (tmp_path / "new.npz").read_bytes()
        assert new == (tmp_path / "pinned.npz").read_bytes()

        loaded, loaded_topology, din, dout, scalers = read_model_npz(tmp_path / "new.npz")
        assert (loaded_topology, din, dout) == (topology, 3, 2)
        for name, scaler in (("x_scaler", x_scaler), ("y_scaler", y_scaler)):
            assert scalers[name].mean.tobytes() == scaler.mean.tobytes()
            assert scalers[name].std.tobytes() == scaler.std.tobytes()
        write_model_npz(
            loaded, loaded_topology, din, dout, tmp_path / "again.npz", **scalers
        )
        assert (tmp_path / "again.npz").read_bytes() == new

    def test_a_file_without_scalers_reads_none(self, tmp_path):
        topology = Topology(hidden=(4,), activation="relu")
        write_model_npz(build_model(3, 2, topology), topology, 3, 2, tmp_path / "m.npz")
        assert read_model_npz(tmp_path / "m.npz")[4] == {}

    def test_v2_file_is_refused_by_version(self, rng, tmp_path):
        """A v2 file holds no scalers; loading it as a package would serve
        model-space numbers, so the reader names its version and stops."""
        package = make_package(rng)
        directory = package.save(tmp_path / "pkg")
        v2_model_npz(
            directory / "surrogate.npz", package.model, package.topology,
            package.input_dim, package.output_dim,
        )
        with pytest.raises(ValueError, match="version 2"):
            read_model_npz(directory / "surrogate.npz")
        with pytest.raises(ValueError, match="version 2"):
            SurrogatePackage.load(directory)


class TestLegacyPackageDir:
    def test_registry_artifact_round_trip_is_exact(self, rng, tmp_path):
        package = make_package(rng)
        registry = ModelRegistry(tmp_path / "registry")
        ref = package.publish(registry, "demo", metrics={"f_e": 0.02})
        loaded = SurrogatePackage.from_registry(registry, "demo")
        x = rng.standard_normal((7, package.input_dim))
        np.testing.assert_array_equal(loaded.predict(x), package.predict(x))
        assert ref.metrics["f_e"] == 0.02

    def test_verify_flags_flipped_byte_in_npz(self, rng, tmp_path):
        package = make_package(rng)
        registry = ModelRegistry(tmp_path / "registry")
        ref = package.publish(registry, "demo")
        assert registry.verify("demo").ok
        npz = ref.payload_path("surrogate.npz")
        raw = bytearray(npz.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # flip one bit in the middle of a param
        npz.write_bytes(bytes(raw))
        result = registry.verify("demo")
        assert not result.ok
        assert any("surrogate.npz" in e for e in result.errors)


class TestAutoencoderFormats:
    def test_save_load_round_trip(self, rng, tmp_path):
        ae = Autoencoder(8, 3, depth=2)
        write_autoencoder_npz(ae, tmp_path / "ae.npz", sigma=0.25)
        loaded, meta = read_autoencoder_npz(tmp_path / "ae.npz")
        assert meta["sigma"] == 0.25
        x = rng.standard_normal((4, 8))
        np.testing.assert_array_equal(loaded.encode(x), ae.encode(x))

    def test_embedded_meta_required_for_standalone_load(self, tmp_path):
        ae = Autoencoder(8, 3, depth=1)
        np.savez(
            tmp_path / "old_ae.npz",
            **{f"param_{i}": p.data for i, p in enumerate(ae.parameters())},
        )
        with pytest.raises(ValueError, match="no embedded meta"):
            read_autoencoder_npz(tmp_path / "old_ae.npz")


class TestPackageAutoencoderActivation:
    """``package.json`` records no AE activation; the AE archive does."""

    @pytest.mark.parametrize("route", ["save", "publish"])
    def test_round_trip_keeps_tanh(self, rng, tmp_path, route):
        topology = Topology(hidden=(8,), activation="tanh")
        package = SurrogatePackage(
            model=build_model(4, 3, topology, rng), topology=topology,
            input_dim=12, output_dim=3,
            autoencoder=Autoencoder(12, 4, depth=2, activation="tanh", rng=rng),
        )
        if route == "save":
            loaded = SurrogatePackage.load(package.save(tmp_path / "pkg"))
        else:
            registry = ModelRegistry(tmp_path / "registry")
            package.publish(registry, "demo")
            loaded = SurrogatePackage.from_registry(registry, "demo")
        assert loaded.autoencoder.activation == "tanh"
        x = rng.standard_normal((6, 12))
        assert loaded.predict(x).tobytes() == package.predict(x).tobytes()
