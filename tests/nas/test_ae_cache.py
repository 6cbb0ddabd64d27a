"""Autoencoder artifact cache: keying, tiers, and search integration."""

import numpy as np
import pytest

import repro.nas.hierarchical as hier_mod
from repro import obs
from repro.autoencoder import Autoencoder
from repro.autoencoder.training import AETrainConfig, train_autoencoder
from repro.nas import (
    AutoencoderCache,
    CachedEncoding,
    Hierarchical2DSearch,
    InputDimSpace,
    SearchConfig,
    TopologySpace,
    fingerprint_array,
)


SMALL_SPACE = TopologySpace(
    max_layers=2, width_choices=(4, 8), activations=("relu", "tanh"), allow_residual=False
)


def toy_data(rng, n=60, din=10, dout=2):
    x = rng.standard_normal((n, din))
    w = rng.standard_normal((din, dout))
    return x, x @ w


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def base_key_kwargs():
    return dict(depth=2, ae_epochs=10, lr=1e-3, encoding_loss=0.9, seed=0)


class TestKeying:
    def test_key_is_stable(self, rng):
        x = rng.standard_normal((20, 6))
        assert AutoencoderCache.key(x, 3, **base_key_kwargs()) == AutoencoderCache.key(
            x, 3, **base_key_kwargs()
        )

    def test_every_knob_changes_key(self, rng):
        x = rng.standard_normal((20, 6))
        base = AutoencoderCache.key(x, 3, **base_key_kwargs())
        variants = [
            AutoencoderCache.key(x, 4, **base_key_kwargs()),
            AutoencoderCache.key(x, 3, **{**base_key_kwargs(), "depth": 3}),
            AutoencoderCache.key(x, 3, **{**base_key_kwargs(), "ae_epochs": 11}),
            AutoencoderCache.key(x, 3, **{**base_key_kwargs(), "lr": 2e-3}),
            AutoencoderCache.key(x, 3, **{**base_key_kwargs(), "encoding_loss": 0.5}),
            AutoencoderCache.key(x, 3, **{**base_key_kwargs(), "seed": 1}),
            AutoencoderCache.key(x, 3, activation="tanh", **base_key_kwargs()),
            AutoencoderCache.key(x + 1e-9, 3, **base_key_kwargs()),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_fingerprint_sees_dtype_and_shape(self):
        a = np.zeros((4, 3))
        assert fingerprint_array(a) != fingerprint_array(a.astype(np.float32))
        assert fingerprint_array(a) != fingerprint_array(a.reshape(3, 4))


class TestTiers:
    def _trained_entry(self, rng, x):
        ae = Autoencoder(x.shape[1], 3, rng=np.random.default_rng(0))
        result = train_autoencoder(ae, x, AETrainConfig(num_epochs=5, seed=0))
        return CachedEncoding(ae, result.final_sigma, ae.encode(x))

    def test_memory_round_trip(self, rng):
        x = rng.standard_normal((30, 6))
        cache = AutoencoderCache()
        key = AutoencoderCache.key(x, 3, **base_key_kwargs())
        assert cache.get(key) is None
        entry = self._trained_entry(rng, x)
        cache.put(key, entry)
        assert cache.get(key) is entry

    def test_disk_round_trip_restores_exact_params(self, rng, tmp_path):
        x = rng.standard_normal((30, 6))
        key = AutoencoderCache.key(x, 3, **base_key_kwargs())
        entry = self._trained_entry(rng, x)
        AutoencoderCache(tmp_path).put(key, entry)

        fresh = AutoencoderCache(tmp_path)   # empty memory tier
        loaded = fresh.get(key)
        assert loaded is not None
        assert loaded.sigma == entry.sigma
        np.testing.assert_array_equal(loaded.z, entry.z)
        for p_new, p_old in zip(
            loaded.autoencoder.parameters(), entry.autoencoder.parameters()
        ):
            np.testing.assert_array_equal(p_new.data, p_old.data)
        np.testing.assert_allclose(
            loaded.autoencoder.encode(x), entry.autoencoder.encode(x)
        )

    def test_unreadable_entry_is_replaced_by_the_next_put(self, rng, tmp_path):
        # a miss on an unreadable entry retrains; that put must publish a
        # readable version, or every new process misses again
        x = rng.standard_normal((30, 6))
        key = AutoencoderCache.key(x, 3, **base_key_kwargs())
        entry = self._trained_entry(rng, x)
        AutoencoderCache(tmp_path).put(key, entry)
        payload = next((tmp_path / "ae_cache" / key).rglob("autoencoder.npz"))
        payload.write_bytes(b"\x00" * 16)
        cache = AutoencoderCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, entry)

        loaded = AutoencoderCache(tmp_path).get(key)
        assert loaded is not None
        assert obs.get_registry().get(
            "repro_nas_ae_cache_hits_total"
        ).value(tier="disk") == 1
        assert loaded.sigma == entry.sigma
        np.testing.assert_array_equal(loaded.z, entry.z)
        for p_new, p_old in zip(
            loaded.autoencoder.parameters(), entry.autoencoder.parameters()
        ):
            assert p_new.data.dtype == p_old.data.dtype
            np.testing.assert_array_equal(p_new.data, p_old.data)

    def test_disabled_cache_is_inert(self, rng, tmp_path):
        x = rng.standard_normal((30, 6))
        cache = AutoencoderCache(tmp_path, enabled=False)
        key = AutoencoderCache.key(x, 3, **base_key_kwargs())
        cache.put(key, self._trained_entry(rng, x))
        assert cache.get(key) is None
        assert not (tmp_path / "ae_cache").exists()

    def test_hit_miss_counters(self, rng, tmp_path):
        x = rng.standard_normal((30, 6))
        cache = AutoencoderCache(tmp_path)
        key = AutoencoderCache.key(x, 3, **base_key_kwargs())
        cache.get(key)                                 # miss
        cache.put(key, self._trained_entry(rng, x))
        cache.get(key)                                 # memory hit
        AutoencoderCache(tmp_path).get(key)            # disk hit
        registry = obs.get_registry()
        assert registry.get("repro_nas_ae_cache_misses_total").total() == 1
        hits = registry.get("repro_nas_ae_cache_hits_total")
        assert hits.value(tier="memory") == 1
        assert hits.value(tier="disk") == 1


def make_search(**overrides):
    params = dict(
        outer_iterations=3, inner_trials=2, quality_loss=0.9,
        encoding_loss=0.99, num_epochs=15, ae_epochs=10,
        bayesian_init=1, seed=0,
    )
    params.update(overrides)
    return Hierarchical2DSearch(
        SMALL_SPACE, InputDimSpace(choices=(3, 6)), SearchConfig(**params)
    )


@pytest.fixture
def count_trainings(monkeypatch):
    calls = []
    real = hier_mod.train_autoencoder

    def counting(ae, x, cfg):
        calls.append(ae.latent_dim)
        return real(ae, x, cfg)

    monkeypatch.setattr(hier_mod, "train_autoencoder", counting)
    return calls


class TestSearchIntegration:
    def test_revisited_k_hits_cache(self, rng, count_trainings):
        """3 outer iterations over 2 K choices: the revisit trains nothing."""
        x, y = toy_data(rng)
        result = make_search().run(x, y)
        assert len(result.outer_history) == 3
        distinct_k = {o.k for o in result.outer_history}
        assert len(count_trainings) == len(distinct_k) <= 2

    def test_cache_off_retrains_every_iteration(self, rng, count_trainings):
        x, y = toy_data(rng)
        result = make_search(ae_cache=False).run(x, y)
        assert len(count_trainings) == len(result.outer_history) == 3

    def test_cache_does_not_change_results(self, rng):
        x, y = toy_data(rng)
        with_cache = make_search().run(x, y)
        without = make_search(ae_cache=False).run(x, y)
        assert [(o.k, o.f_c, o.f_e) for o in with_cache.outer_history] == [
            (o.k, o.f_c, o.f_e) for o in without.outer_history
        ]
        assert with_cache.best.f_c == without.best.f_c


class _Bomb(Exception):
    pass


class TestResume:
    """Kill a checkpointed search mid-iteration, resume, match the clean run."""

    @staticmethod
    def _quality(x, y):
        # relative error, so trained candidates land under quality_loss and
        # the search exercises the feasible path (the fallback path keeps no
        # per-trial state, so it is *not* covered by the resume guarantee)
        scale = float(np.mean(np.abs(y[:8])))

        def fn(pkg):
            return float(np.mean(np.abs(pkg.predict(x[:8]) - y[:8]))) / scale

        return fn

    def test_resume_skips_ae_training_and_matches(
        self, rng, tmp_path, count_trainings
    ):
        x, y = toy_data(rng)
        quality = self._quality(x, y)

        # quality_fn is called once per inner trial (2 per iteration); the
        # third call lands in iteration 1, after its autoencoder was trained
        # and written to the disk cache
        calls = {"n": 0}

        def bombing(pkg):
            calls["n"] += 1
            if calls["n"] == 3:
                raise _Bomb()
            return quality(pkg)

        with pytest.raises(_Bomb):
            make_search().run(x, y, quality_fn=bombing, checkpoint_dir=tmp_path)
        assert len(count_trainings) == 2   # iterations 0 and 1 trained AEs
        assert (tmp_path / "search_state.json").exists()

        count_trainings.clear()
        resumed = make_search().run(x, y, quality_fn=quality, checkpoint_dir=tmp_path)
        # both K values were trained (and disk-cached) before the crash
        assert count_trainings == []

        # rerunning the now-complete search is a no-op that still returns
        # the stored best without retraining anything
        count_trainings.clear()
        rerun = make_search().run(x, y, quality_fn=quality, checkpoint_dir=tmp_path)
        assert count_trainings == []
        assert rerun.best_k == resumed.best_k
        assert rerun.best.f_c == resumed.best.f_c

        uninterrupted = make_search().run(x, y, quality_fn=quality)
        assert [(o.k, o.f_c, o.f_e, o.ae_sigma) for o in resumed.outer_history] == [
            (o.k, o.f_c, o.f_e, o.ae_sigma) for o in uninterrupted.outer_history
        ]
        assert resumed.best_k == uninterrupted.best_k
        assert resumed.best.f_c == uninterrupted.best.f_c
        assert resumed.best.f_e == uninterrupted.best.f_e
        assert resumed.best.topology == uninterrupted.best.topology

    def test_completed_infeasible_search_rerun_returns_fallback(
        self, rng, tmp_path
    ):
        """quality_loss no candidate can meet → fallback best; a rerun of
        the finished checkpointed search must return it, not None."""
        x, y = toy_data(rng)
        first = make_search(quality_loss=1e-9, outer_iterations=2).run(
            x, y, checkpoint_dir=tmp_path
        )
        assert first.best is not None and first.best.f_e > 1e-9
        rerun = make_search(quality_loss=1e-9, outer_iterations=2).run(
            x, y, checkpoint_dir=tmp_path
        )
        assert rerun.best is not None
        assert rerun.best_k == first.best_k
        assert rerun.best.f_c == first.best.f_c
        assert rerun.best.f_e == first.best.f_e
