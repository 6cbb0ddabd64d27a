"""Legacy artifact formats keep loading through the registry codecs."""

import json

import numpy as np
import pytest

from repro.autoencoder import Autoencoder, load_autoencoder, save_autoencoder
from repro.nas import AutoencoderCache, evaluate_topology
from repro.nas.package import SurrogatePackage
from repro.nn import Topology, build_model, load_model, save_model
from repro.registry import ModelRegistry
from repro.registry.formats import load_autoencoder_params


def make_package(rng, din=6, dout=2):
    x = rng.standard_normal((60, din))
    y = x @ rng.standard_normal((din, dout))
    return evaluate_topology(
        Topology(hidden=(8,), activation="tanh"), x, y, rng=rng
    ).package


def legacy_model_npz(path, model, topology, din, dout):
    """Write the pre-registry ``save_model`` layout byte for byte."""
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
    def test_legacy_save_model_file_loads(self, rng, tmp_path):
        topology = Topology(hidden=(4,), activation="relu")
        model = build_model(3, 2, topology)
        legacy_model_npz(tmp_path / "old.npz", model, topology, 3, 2)

        loaded, loaded_topology, din, dout = load_model(tmp_path / "old.npz")
        assert (din, dout) == (3, 2)
        assert loaded_topology == topology
        for got, want in zip(loaded.parameters(), model.parameters()):
            np.testing.assert_array_equal(got.data, want.data)

    def test_new_save_model_is_byte_identical_to_legacy_writer(
        self, rng, tmp_path
    ):
        """The registry codec must not drift from the historical layout:
        old readers (and old checkouts) keep loading new files."""
        topology = Topology(hidden=(4,), activation="relu")
        model = build_model(3, 2, topology)
        legacy_model_npz(tmp_path / "old.npz", model, topology, 3, 2)
        save_model(model, topology, 3, 2, tmp_path / "new.npz")
        assert (
            (tmp_path / "new.npz").read_bytes()
            == (tmp_path / "old.npz").read_bytes()
        )

    def test_version_1_mlp_file_loads(self, rng, tmp_path):
        topology = Topology(hidden=(4,), activation="relu")
        model = build_model(3, 2, topology)
        meta = {
            "version": 1,
            "in_features": 3,
            "out_features": 2,
            "hidden": [4],
            "activation": "relu",
            "residual": False,
            "sparse_input": False,
        }
        arrays = {f"param_{i}": p.data for i, p in enumerate(model.parameters())}
        np.savez(tmp_path / "v1.npz", meta=json.dumps(meta), **arrays)
        loaded, loaded_topology, _, _ = load_model(tmp_path / "v1.npz")
        assert loaded_topology == topology
        for got, want in zip(loaded.parameters(), model.parameters()):
            np.testing.assert_array_equal(got.data, want.data)


class TestLegacyPackageDir:
    def test_old_package_dir_loads(self, rng, tmp_path):
        """A directory written by the pre-registry SurrogatePackage.save
        (package.json + npz payloads, ``ae_param_i`` keys, no manifest)."""
        din, latent, dout = 6, 3, 2
        ae = Autoencoder(din, latent, depth=1)
        topology = Topology(hidden=(8,), activation="tanh")
        model = build_model(latent, dout, topology)
        package = SurrogatePackage(
            model=model, topology=topology, input_dim=din, output_dim=dout,
            autoencoder=ae,
        )

        legacy = tmp_path / "old_pkg"
        legacy.mkdir()
        legacy_model_npz(legacy / "surrogate.npz", model, topology, latent, dout)
        np.savez(
            legacy / "autoencoder.npz",
            **{f"ae_param_{i}": p.data for i, p in enumerate(ae.parameters())},
        )
        (legacy / "package.json").write_text(json.dumps({
            "input_dim": din,
            "output_dim": dout,
            "uses_reduction": True,
            "autoencoder": {
                "input_dim": din, "latent_dim": latent,
                "sparse_input": False, "depth": 1,
            },
        }))

        loaded = SurrogatePackage.load(legacy)
        x = rng.standard_normal((5, din))
        np.testing.assert_array_equal(loaded.predict(x), package.predict(x))

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
        save_autoencoder(ae, tmp_path / "ae.npz", sigma=0.25)
        loaded = load_autoencoder(tmp_path / "ae.npz")
        x = rng.standard_normal((4, 8))
        np.testing.assert_array_equal(loaded.encode(x), ae.encode(x))

    def test_legacy_param_archive_loads_into_constructed_model(
        self, rng, tmp_path
    ):
        ae = Autoencoder(8, 3, depth=1)
        np.savez(
            tmp_path / "old_ae.npz",
            **{f"param_{i}": p.data for i, p in enumerate(ae.parameters())},
        )
        target = Autoencoder(8, 3, depth=1)
        load_autoencoder_params(target, tmp_path / "old_ae.npz")
        x = rng.standard_normal((4, 8))
        np.testing.assert_array_equal(target.encode(x), ae.encode(x))

    def test_embedded_meta_required_for_standalone_load(self, tmp_path):
        ae = Autoencoder(8, 3, depth=1)
        np.savez(
            tmp_path / "old_ae.npz",
            **{f"param_{i}": p.data for i, p in enumerate(ae.parameters())},
        )
        with pytest.raises(ValueError, match="no embedded meta"):
            load_autoencoder(tmp_path / "old_ae.npz")


class TestLegacyAECacheLayout:
    def test_pre_registry_cache_entry_loads(self, rng, tmp_path):
        """Entries written by the old flat ``ae_cache/<key>/meta.json``
        layout hit through the registry-backed cache."""
        ae = Autoencoder(10, 4, depth=1)
        z = rng.standard_normal((30, 4))
        key = "a" * 64

        legacy = tmp_path / "ae_cache" / key
        legacy.mkdir(parents=True)
        np.savez(
            legacy / "autoencoder.npz",
            **{f"param_{i}": p.data for i, p in enumerate(ae.parameters())},
        )
        np.save(legacy / "encoded.npy", z)
        (legacy / "meta.json").write_text(json.dumps({
            "input_dim": 10, "latent_dim": 4, "depth": 1,
            "activation": "relu", "sparse_input": False, "sigma": 0.5,
        }))

        cache = AutoencoderCache(tmp_path)
        entry = cache.get(key)
        assert entry is not None
        assert entry.sigma == 0.5
        np.testing.assert_array_equal(entry.z, z)
        x = rng.standard_normal((3, 10))
        np.testing.assert_array_equal(entry.autoencoder.encode(x), ae.encode(x))
