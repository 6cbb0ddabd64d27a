"""Registry store: publish/resolve, integrity, atomicity, gc."""

import json
import threading

import numpy as np
import pytest

from repro.nas import evaluate_topology
from repro.nn import Topology
from repro.registry import (
    ArtifactNotFoundError,
    ModelRegistry,
    RegistryError,
    atomic_directory,
    file_digest,
    read_manifest,
    verify_directory,
    write_manifest,
)


def make_package(rng, din=5, dout=2):
    x = rng.standard_normal((60, din))
    y = x @ rng.standard_normal((din, dout))
    return evaluate_topology(
        Topology(hidden=(8,), activation="tanh"), x, y, rng=rng
    ).package


def write_payload(staged, contents=b"payload bytes"):
    (staged / "blob.bin").write_bytes(contents)


class TestPublishResolve:
    def test_round_trip(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        ref = registry.publish(
            "m", "nn-model", write_payload, input_dim=3, output_dim=1,
            metrics={"f_e": 0.1},
        )
        assert ref.version == 1
        assert ref.kind == "nn-model"
        assert ref.metrics == {"f_e": 0.1}
        resolved = registry.resolve("m")
        assert resolved.version == 1
        assert resolved.payload_path("blob.bin").read_bytes() == b"payload bytes"

    def test_versions_are_dense_and_latest_wins(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for i in range(3):
            registry.publish("m", "nn-model", lambda d, i=i: write_payload(d, bytes([i])))
        assert registry.versions("m") == [1, 2, 3]
        assert registry.resolve("m").version == 3
        assert registry.resolve("m", 2).payload_path("blob.bin").read_bytes() == b"\x01"

    def test_unknown_name_and_version(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ArtifactNotFoundError):
            registry.resolve("absent")
        # ArtifactNotFoundError doubles as KeyError for dict-style callers
        with pytest.raises(KeyError):
            registry.resolve("absent")
        registry.publish("m", "nn-model", write_payload)
        with pytest.raises(ArtifactNotFoundError):
            registry.resolve("m", 9)

    def test_invalid_name_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError):
            registry.publish("../escape", "nn-model", write_payload)

    def test_names_skip_junk_dirs(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("real", "nn-model", write_payload)
        (tmp_path / ".tmp-orphan").mkdir()
        (tmp_path / "real" / ".tmp-abandoned").mkdir()
        assert registry.names() == ["real"]

    def test_concurrent_publishers_get_distinct_versions(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        versions, barrier = [], threading.Barrier(4)
        lock = threading.Lock()

        def publish(i):
            barrier.wait()
            ref = registry.publish(
                "m", "nn-model", lambda d: write_payload(d, bytes([i]))
            )
            with lock:
                versions.append(ref.version)

        threads = [threading.Thread(target=publish, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(versions) == [1, 2, 3, 4]
        assert registry.versions("m") == [1, 2, 3, 4]


class TestIntegrity:
    def test_verify_ok(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", "nn-model", write_payload)
        result = registry.verify("m")
        assert result.ok
        assert registry.verify_all() == [result]

    def test_flipped_payload_byte_detected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        ref = registry.publish("m", "nn-model", write_payload)
        blob = ref.payload_path("blob.bin")
        raw = bytearray(blob.read_bytes())
        raw[0] ^= 0xFF
        blob.write_bytes(bytes(raw))
        result = registry.verify("m")
        assert not result.ok
        assert any("SHA-256 mismatch" in e for e in result.errors)

    def test_missing_payload_detected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        ref = registry.publish("m", "nn-model", write_payload)
        ref.payload_path("blob.bin").unlink()
        assert any("missing payload" in e for e in registry.verify("m").errors)

    def test_edited_manifest_detected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        ref = registry.publish("m", "nn-model", write_payload, metrics={"f_e": 0.1})
        manifest_path = ref.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metrics"]["f_e"] = 0.0  # make the artifact look better
        manifest_path.write_text(json.dumps(manifest))
        assert any("digest mismatch" in e for e in registry.verify("m").errors)

    def test_tampered_input_schema_record_detected(self, tmp_path):
        # a consistent record passes; a live count edited and the digest
        # re-stamped (so only the schema check can see it) fails
        registry = ModelRegistry(tmp_path)
        record = {
            "dense_width": 110,
            "live_positions": {"A": {"count": 156, "sha256": "0" * 64}},
        }
        ref = registry.publish(
            "m", "surrogate-package", write_payload, input_dim=266,
            meta={"input_schema": record},
        )
        assert registry.verify("m").ok
        manifest_path = ref.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["input_schema"]["live_positions"]["A"]["count"] = 155
        del manifest["digest"]
        write_manifest(
            ref.path, name="m", version=1, kind="surrogate-package",
            input_dim=266, meta=manifest["meta"],
        )
        errors = registry.verify("m").errors
        assert errors == (
            "input_dim 266 != dense width 110 + 155 live positions of the "
            "input schema",
        )
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["input_schema"] = {"dense_width": "wide"}
        manifest_path.write_text(json.dumps(manifest))
        errors = registry.verify("m").errors
        assert any("digest mismatch" in e for e in errors)
        assert any("unreadable input_schema record" in e for e in errors)

    def test_file_digest_matches_manifest(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        ref = registry.publish("m", "nn-model", write_payload)
        recorded = ref.manifest["payloads"]["blob.bin"]["sha256"]
        assert file_digest(ref.payload_path("blob.bin")) == recorded


class TestAtomicity:
    def test_exception_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "artifact"
        with atomic_directory(target) as staged:
            (staged / "a.txt").write_text("v1")
        with pytest.raises(RuntimeError):
            with atomic_directory(target) as staged:
                (staged / "a.txt").write_text("partial v2")
                raise RuntimeError("died mid-save")
        assert (target / "a.txt").read_text() == "v1"
        assert not list(tmp_path.glob(".tmp-*"))

    def test_kill_mid_save_leaves_previous_package_loadable(self, rng, tmp_path):
        """Regression: SurrogatePackage.save used to write in place, so a
        kill mid-save left a half-written directory that load() crashed on.
        Now the save stages into a temp dir: dying mid-write (modeled by
        KeyboardInterrupt, which is what SIGINT delivers) leaves the old
        package bytes untouched and still loadable."""
        from repro.nas.package import SurrogatePackage

        package = make_package(rng)
        target = tmp_path / "pkg"
        package.save(target)
        before = (target / "surrogate.npz").read_bytes()

        original = SurrogatePackage.write_payloads

        def dying_write(self, directory):
            original(self, directory)  # payloads hit the temp dir...
            raise KeyboardInterrupt  # ...then the process dies

        SurrogatePackage.write_payloads = dying_write
        try:
            with pytest.raises(KeyboardInterrupt):
                make_package(rng).save(target)
        finally:
            SurrogatePackage.write_payloads = original

        assert (target / "surrogate.npz").read_bytes() == before
        reloaded = SurrogatePackage.load(target)
        x = rng.standard_normal((4, package.input_dim))
        np.testing.assert_array_equal(reloaded.predict(x), package.predict(x))

    def test_stray_tmp_dir_does_not_break_load_and_gc_sweeps_it(
        self, rng, tmp_path
    ):
        """A real SIGKILL leaves the .tmp-* staging dir behind; it must be
        invisible to readers and swept by gc."""
        registry = ModelRegistry(tmp_path)
        registry.publish("m", "nn-model", write_payload)
        stray = tmp_path / "m" / ".tmp-killed"
        stray.mkdir()
        (stray / "blob.bin").write_bytes(b"half-written")
        assert registry.versions("m") == [1]
        assert registry.resolve("m").version == 1
        removed = registry.gc(keep=1)
        assert stray in removed
        assert not stray.exists()


class TestLifecycle:
    def test_gc_keeps_newest(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for _ in range(4):
            registry.publish("m", "nn-model", write_payload)
        removed = registry.gc(keep=2)
        assert registry.versions("m") == [3, 4]
        assert len(removed) == 2
        with pytest.raises(ValueError):
            registry.gc(keep=0)

    def test_delete_one_version(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for _ in range(2):
            registry.publish("m", "nn-model", write_payload)
        registry.delete("m", 1)
        assert registry.versions("m") == [2]


class TestManifestHelpers:
    def test_write_read_round_trip(self, tmp_path):
        (tmp_path / "data.bin").write_bytes(b"\x00" * 16)
        manifest = write_manifest(
            tmp_path, name="m", version=7, kind="nn-model",
            input_dim=4, output_dim=2, dtype="float32",
        )
        assert read_manifest(tmp_path) == manifest
        assert manifest["payloads"]["data.bin"]["bytes"] == 16
        assert verify_directory(tmp_path) == []

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactNotFoundError):
            read_manifest(tmp_path)
        assert verify_directory(tmp_path)  # reported, not raised


class TestGcPinning:
    """Regression: gc used to count versions blindly, so a deployed or
    canaried version older than ``keep`` could be deleted out from under
    the serving layer."""

    def test_explicit_pins_survive(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for _ in range(4):
            registry.publish("m", "nn-model", write_payload)
        removed = registry.gc(keep=1, pinned={"m": [1, 2]})
        assert registry.versions("m") == [1, 2, 4]
        assert len(removed) == 1  # only v3 was collectable

    def test_manifest_declared_pins_survive(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for _ in range(3):
            registry.publish("m", "nn-model", write_payload)
        # a lifecycle-style artifact declares which model versions it needs
        registry.publish(
            "m-lifecycle", "lifecycle-state", write_payload,
            meta={"pins": [{"name": "m", "versions": [1]}]},
        )
        registry.gc(keep=1)
        # v1 is pinned by the lifecycle artifact; v2 was collectable
        assert registry.versions("m") == [1, 3]

    def test_only_latest_manifest_pins_apply(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for _ in range(3):
            registry.publish("m", "nn-model", write_payload)
        registry.publish(
            "m-lifecycle", "lifecycle-state", write_payload,
            meta={"pins": [{"name": "m", "versions": [1]}]},
        )
        registry.publish(
            "m-lifecycle", "lifecycle-state", write_payload,
            meta={"pins": [{"name": "m", "versions": [2]}]},
        )
        registry.gc(keep=1)
        # the newest lifecycle record pins v2; the stale v1 pin is gone
        assert registry.versions("m") == [2, 3]

    def test_malformed_pin_entries_ignored(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for _ in range(3):
            registry.publish("m", "nn-model", write_payload)
        registry.publish(
            "junk", "lifecycle-state", write_payload,
            meta={"pins": [{"oops": True}, "nonsense", {"name": "m", "versions": ["x"]}]},
        )
        registry.gc(keep=1)
        assert registry.versions("m") == [3]
