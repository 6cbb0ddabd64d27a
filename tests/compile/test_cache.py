"""Persistence, crash-safety, and keying of the plan cache."""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.compile import (
    PlanCache,
    compile_package,
    package_digest,
    plan_from_payload,
    plan_key,
    plan_payload,
    warm_plan_cache,
)
from repro.nn.tensor import batch_invariant
from repro.registry.formats import write_plan_npz
from repro.runtime import Client, Orchestrator

from .test_plan import make_package, with_scalers


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def key_for(package, *, batch_invariant=True):
    return plan_key(
        package_digest(package),
        input_shape=(package.input_dim,),
        dtype="<f8",
        batch_invariant=batch_invariant,
    )


class TestKeying:
    def test_key_depends_on_every_specialization_field(self, rng):
        package = make_package(rng)
        digest = package_digest(package)
        base = plan_key(digest, input_shape=(6,), dtype="<f8", batch_invariant=True)
        assert base != plan_key(
            digest, input_shape=(7,), dtype="<f8", batch_invariant=True
        )
        assert base != plan_key(
            digest, input_shape=(6,), dtype="<f4", batch_invariant=True
        )
        assert base != plan_key(
            digest, input_shape=(6,), dtype="<f8", batch_invariant=False
        )
        assert base != plan_key(
            "other-digest", input_shape=(6,), dtype="<f8", batch_invariant=True
        )

    def test_digest_tracks_parameter_bytes(self, rng):
        package = make_package(rng)
        before = package_digest(package)
        param = next(iter(package.model.parameters()))
        param.data = param.data + 1.0
        assert package_digest(package) != before

    def test_digest_covers_the_scalers(self, rng):
        package = with_scalers(make_package(rng), rng)
        other_y = dataclasses.replace(
            package.y_scaler, std=package.y_scaler.std * 2.0
        )
        digests = {
            package_digest(package),
            package_digest(dataclasses.replace(package, y_scaler=other_y)),
            package_digest(dataclasses.replace(package, x_scaler=None)),
            package_digest(dataclasses.replace(package, y_scaler=None)),
        }
        assert len(digests) == 4

    def test_shared_disk_tier_serves_each_package_its_own_plan(
        self, rng, tmp_path
    ):
        """Two processes' worth of orchestrators share one plan cache
        directory and register packages that differ only in ``y_scaler``
        with no registry digest: each answers its own bytes."""
        package = with_scalers(make_package(rng), rng)
        other = dataclasses.replace(
            package,
            y_scaler=dataclasses.replace(
                package.y_scaler, mean=package.y_scaler.mean + 1.0
            ),
        )
        x = rng.standard_normal((4, 6))
        for served in (package, other):
            orc = Orchestrator(plan_cache_dir=tmp_path)
            Client(orc).set_model("m", served)
            with batch_invariant():
                expected = served.predict(x)
            with orc:
                out = Client(orc).run_model_batch("m", list(x), timeout=30)
            assert np.stack(out).tobytes() == expected.tobytes()
        assert len(PlanCache(tmp_path).keys()) == 2

    def test_equal_packages_share_a_digest(self, rng):
        a = make_package(rng)
        b = make_package(np.random.default_rng(12345))
        np.testing.assert_array_equal(
            next(iter(a.model.parameters())).data,
            next(iter(b.model.parameters())).data,
        )
        assert package_digest(a) == package_digest(b)


class TestTwoTiers:
    def test_memory_tier_round_trip(self, rng, tmp_path):
        package = make_package(rng)
        cache = PlanCache(tmp_path)
        key = key_for(package)
        assert cache.get(key) is None
        cache.put(key, compile_package(package))
        assert cache.get(key) is not None

    def test_disk_tier_survives_restart_bit_identically(self, rng, tmp_path):
        package = make_package(rng, activation="sigmoid", residual=True, hidden=(8, 8))
        key = key_for(package)
        PlanCache(tmp_path).put(key, compile_package(package))
        # a new cache instance = a new process: must hit disk, not recompile
        reloaded = PlanCache(tmp_path).get(key)
        assert reloaded is not None
        x = rng.standard_normal((6, 6))
        with batch_invariant():
            ref = package.predict(x)
        np.testing.assert_array_equal(reloaded.predict(x), ref)

    def test_memoryless_cache_without_directory(self, rng):
        package = make_package(rng)
        cache = PlanCache(None)
        key = key_for(package)
        cache.put(key, compile_package(package))
        assert cache.get(key) is not None
        assert cache.directory is None

    def test_disabled_cache_is_inert(self, rng, tmp_path):
        package = make_package(rng)
        cache = PlanCache(tmp_path, enabled=False)
        key = key_for(package)
        cache.put(key, compile_package(package))
        assert cache.get(key) is None
        assert not (tmp_path / "plan_cache").exists()

    def test_keys_and_clear_cover_both_tiers(self, rng, tmp_path):
        package = make_package(rng)
        cache = PlanCache(tmp_path)
        for invariant in (True, False):
            cache.put(
                key_for(package, batch_invariant=invariant),
                compile_package(package, batch_invariant=invariant),
            )
        assert len(cache.keys()) == 2
        assert PlanCache(tmp_path).keys() == cache.keys()  # from disk alone
        assert cache.clear() == 2
        assert cache.keys() == []
        assert PlanCache(tmp_path).keys() == []

    def test_hit_miss_counters(self, rng, tmp_path):
        package = make_package(rng)
        cache = PlanCache(tmp_path)
        key = key_for(package)
        cache.get(key)                    # miss
        cache.put(key, compile_package(package))
        cache.get(key)                    # memory hit
        PlanCache(tmp_path).get(key)      # disk hit
        registry = obs.get_registry()
        assert registry.get("repro_compile_cache_misses_total").total() == 1
        hits = registry.get("repro_compile_cache_hits_total")
        assert hits.value(tier="memory") == 1
        assert hits.value(tier="disk") == 1


class TestCrashSafety:
    def test_kill_mid_write_leaves_no_poisoned_entry(self, rng, tmp_path):
        """A simulated crash between payload write and publish must read
        as a miss, and a later put() must still land a good entry."""
        package = make_package(rng)
        key = key_for(package)
        cache = PlanCache(tmp_path)
        # the registry stages payloads in a temp dir and renames; a kill
        # mid-write leaves only stray temp state, never a resolvable
        # version — emulate the closest on-disk wreckage by hand
        stranded = cache.directory / key / ".staging-killed"
        stranded.mkdir(parents=True)
        (stranded / "plan.npz").write_bytes(b"partial garbage")
        assert cache.get(key) is None
        cache.put(key, compile_package(package))
        assert PlanCache(tmp_path).get(key) is not None

    def test_corrupt_published_payload_reads_as_miss(self, rng, tmp_path):
        package = make_package(rng)
        key = key_for(package)
        PlanCache(tmp_path).put(key, compile_package(package))
        cache = PlanCache(tmp_path)  # no memory tier: must go to disk
        payload = next((cache.directory / key).rglob("plan.npz"))
        payload.write_bytes(b"\x00" * 16)
        assert cache.get(key) is None  # treated as a miss, no crash

    def test_unreadable_entry_is_replaced_by_the_next_put(self, rng, tmp_path):
        # a miss on an unreadable entry recompiles; that put must publish
        # a readable version, or every new process misses again
        package = make_package(rng, activation="tanh", hidden=(8, 4))
        key = key_for(package)
        PlanCache(tmp_path).put(key, compile_package(package))
        payload = next((tmp_path / "plan_cache" / key).rglob("plan.npz"))
        payload.write_bytes(b"\x00" * 16)
        cache = PlanCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, compile_package(package))
        reloaded = PlanCache(tmp_path).get(key)
        assert reloaded is not None
        assert obs.get_registry().get(
            "repro_compile_cache_hits_total"
        ).value(tier="disk") == 1
        x = rng.standard_normal((5, package.input_dim))
        with batch_invariant():
            np.testing.assert_array_equal(reloaded.predict(x), package.predict(x))


class TestSchemaAndCsr:
    def test_old_schema_disk_entry_reads_as_miss(self, rng, tmp_path):
        # a plan written by an older code version carries an older schema
        # number in its payload: the loader must treat it as a miss (and
        # recompile), never crash or serve a stale-format plan
        package = make_package(rng)
        key = key_for(package)
        cache = PlanCache(tmp_path)
        cache.put(key, compile_package(package))
        payload = next((cache.directory / key).rglob("plan.npz"))
        meta, arrays = plan_payload(compile_package(package))
        write_plan_npz(payload, dict(meta, schema=1), arrays)
        assert PlanCache(tmp_path).get(key) is None

    def test_unknown_step_kind_is_rejected_by_name(self, rng, tmp_path):
        # a step kind this build cannot execute (conv2d has no lowering)
        # must fail by name, not fall through to another branch
        package = make_package(rng)
        meta, arrays = plan_payload(compile_package(package))
        meta["steps"][0]["kind"] = "conv2d"
        with pytest.raises(ValueError, match="'conv2d'"):
            plan_from_payload(meta, arrays)
        # ...and on disk such an entry reads as a miss that recompiles
        key = key_for(package)
        PlanCache(tmp_path).put(key, compile_package(package))
        payload = next((tmp_path / "plan_cache" / key).rglob("plan.npz"))
        write_plan_npz(payload, meta, arrays)
        cache = PlanCache(tmp_path)
        assert cache.get(key) is None
        assert warm_plan_cache(cache, package, modes=(True,)) == [key]
        x = rng.standard_normal((3, package.input_dim))
        with batch_invariant():
            np.testing.assert_array_equal(
                cache.get(key).predict(x), package.predict(x)
            )

    def test_plan_from_payload_rejects_old_schema(self, rng):
        plan = compile_package(make_package(rng))
        meta, arrays = plan_payload(plan)
        with pytest.raises(ValueError, match="schema"):
            plan_from_payload(dict(meta, schema=1), arrays)

    def test_describe_reports_step_kinds_from_disk(self, rng, tmp_path):
        package = make_package(rng)
        key = key_for(package)
        PlanCache(tmp_path).put(key, compile_package(package))
        info = PlanCache(tmp_path).describe(key)
        assert info is not None
        assert info["batch_invariant"] is True
        assert "gemm" in info["step_kinds"]


class TestWarm:
    def test_warm_covers_both_invariance_modes(self, rng, tmp_path):
        package = make_package(rng)
        cache = PlanCache(tmp_path)
        keys = warm_plan_cache(cache, package)
        assert len(keys) == 2
        assert sorted(keys) == cache.keys()

    def test_rewarm_after_restart_compiles_nothing(self, rng, tmp_path):
        package = make_package(rng)
        warm_plan_cache(PlanCache(tmp_path), package)
        obs.configure(enabled=True, reset=True)
        warm_plan_cache(PlanCache(tmp_path), package)
        registry = obs.get_registry()
        assert registry.get("repro_compile_cache_misses_total") is None or (
            registry.get("repro_compile_cache_misses_total").total() == 0
        )
        assert registry.get("repro_compile_cache_hits_total").value(tier="disk") == 2

    def test_warm_honors_registry_digest(self, rng, tmp_path):
        package = make_package(rng)
        cache = PlanCache(tmp_path)
        keys = warm_plan_cache(cache, package, digest="artifact-digest")
        assert keys[0] == plan_key(
            "artifact-digest", input_shape=(6,), dtype="<f8", batch_invariant=True
        )
