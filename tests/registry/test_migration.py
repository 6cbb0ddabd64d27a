"""Artifact payloads keep their bytes and read back through one codec each."""

import json

import numpy as np
import pytest

from repro.autoencoder import Autoencoder
from repro.nas import evaluate_topology
from repro.nas.package import SurrogatePackage
from repro.nn import Topology, build_model
from repro.registry import ModelRegistry
from repro.registry.formats import (
    read_autoencoder_npz,
    write_autoencoder_npz,
    write_model_npz,
)


def make_package(rng, din=6, dout=2):
    x = rng.standard_normal((60, din))
    y = x @ rng.standard_normal((din, dout))
    return evaluate_topology(
        Topology(hidden=(8,), activation="tanh"), x, y, rng=rng
    ).package


def legacy_model_npz(path, model, topology, din, dout):
    """Write the historical surrogate ``.npz`` layout byte for byte."""
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


class TestModelNpz:
    def test_new_save_model_is_byte_identical_to_legacy_writer(
        self, rng, tmp_path
    ):
        """The registry codec must not drift from the historical layout:
        old readers (and old checkouts) keep loading new files."""
        topology = Topology(hidden=(4,), activation="relu")
        model = build_model(3, 2, topology)
        legacy_model_npz(tmp_path / "old.npz", model, topology, 3, 2)
        write_model_npz(model, topology, 3, 2, tmp_path / "new.npz")
        assert (
            (tmp_path / "new.npz").read_bytes()
            == (tmp_path / "old.npz").read_bytes()
        )


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
