"""Content-addressed cache for trained autoencoders and encoded datasets.

Every outer iteration of the 2D NAS trains an autoencoder for its proposed
K and re-encodes the whole training set (§4.3) — the dominant fixed cost of
an iteration.  But the trained artifact is a pure function of
``(training data, K, AE config, seed)``: revisited K values, resumed
checkpointed searches and repeated benchmark runs all recompute identical
weights.  This cache memoizes that function.

Keys are SHA-256 digests over the data fingerprint (dtype, shape, raw
bytes) plus every knob that influences training, so a stale hit is
impossible: touch the data, the latent size, the depth, the epoch budget or
the seed and the key changes.  Entries hold the trained
:class:`~repro.autoencoder.model.Autoencoder`, its final σ_y and the
encoded dataset ``z`` (the encode pass is also skipped on a hit).

Two tiers back the cache: an in-process dict (revisited K within one
search) and an optional on-disk store under ``<checkpoint_dir>/ae_cache/``
(resumed searches, repeated runs).  The disk tier is a
:class:`~repro.registry.ModelRegistry` of ``ae-cache-entry`` artifacts —
each entry a digest-verified directory holding ``autoencoder.npz`` and
``encoded.npy`` published atomically (a killed run can never leave a
half-written entry that poisons the next resume)::

    ae_cache/<key>/v0001/{manifest.json, autoencoder.npz, encoded.npy}

Both files go through the codecs in :mod:`repro.registry.formats`, and
this class is their only writer and reader for this kind.

Hits and misses are counted in ``repro.obs`` as
``repro_nas_ae_cache_hits_total`` / ``repro_nas_ae_cache_misses_total``
(labelled by tier).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .. import obs
from ..autoencoder.model import Autoencoder
from ..core.digest import content_key, fingerprint_array
from ..registry import formats
from ..registry.store import ArtifactNotFoundError, ModelRegistry, RegistryError

__all__ = ["KIND_AE_CACHE", "CachedEncoding", "AutoencoderCache", "fingerprint_array"]

#: registry kind of one disk-tier entry
KIND_AE_CACHE = "ae-cache-entry"


@dataclass
class CachedEncoding:
    """One cache entry: the trained artifact plus its quality and encoding."""

    autoencoder: Autoencoder
    sigma: float
    z: np.ndarray


class AutoencoderCache:
    """Two-tier (memory + optional registry-on-disk) store of AE artifacts."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        enabled: bool = True,
    ) -> None:
        self.directory = Path(directory) / "ae_cache" if directory else None
        self.enabled = enabled
        self._registry = ModelRegistry(self.directory) if self.directory else None
        self._memory: dict[str, CachedEncoding] = {}  # cc: guarded-by(_lock)
        self._lock = threading.Lock()

    # -- keying ---------------------------------------------------------------

    @staticmethod
    def key(
        x: np.ndarray,
        k: int,
        *,
        depth: int,
        activation: str = "relu",
        ae_epochs: int,
        lr: float,
        encoding_loss: float,
        seed: int,
    ) -> str:
        """Content address of one training run (data + config + seed)."""
        return content_key(
            {
                "data": fingerprint_array(x),
                "k": int(k),
                "depth": int(depth),
                "activation": activation,
                "ae_epochs": int(ae_epochs),
                "lr": float(lr),
                "encoding_loss": float(encoding_loss),
                "seed": int(seed),
            }
        )

    # -- lookup ----------------------------------------------------------------

    def get(self, key: str) -> Optional[CachedEncoding]:
        if not self.enabled:
            return None
        with self._lock:
            entry = self._memory.get(key)
        if entry is not None:
            self._count("hit", "memory")
            return entry
        entry = self._load_disk(key)
        if entry is not None:
            with self._lock:
                self._memory[key] = entry
            self._count("hit", "disk")
            return entry
        self._count("miss", "any")
        return None

    def put(self, key: str, entry: CachedEncoding) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._memory[key] = entry
        self._store_disk(key, entry)

    # -- disk tier (registry artifacts) ----------------------------------------

    def _load_disk(self, key: str) -> Optional[CachedEncoding]:
        if self._registry is None or not self._registry.exists(key):
            return None
        try:
            ref = self._registry.resolve(key)
            ae, meta = formats.read_autoencoder_npz(ref.payload_path("autoencoder.npz"))
            z = formats.read_array(ref.payload_path("encoded.npy"))
        except (RegistryError, ArtifactNotFoundError, OSError, ValueError, KeyError):
            return None
        return CachedEncoding(autoencoder=ae, sigma=float(meta.get("sigma", 0.0)), z=z)

    def _store_disk(self, key: str, entry: CachedEncoding) -> None:
        # entries are content-addressed: one readable version is enough,
        # and an unreadable latest version is replaced by a fresh one
        if self._registry is None or (
            self._registry.exists(key) and self._load_disk(key) is not None
        ):
            return
        ae = entry.autoencoder

        def writer(staged: Path) -> None:
            formats.write_autoencoder_npz(
                ae, staged / "autoencoder.npz", sigma=entry.sigma
            )
            formats.write_array(staged / "encoded.npy", entry.z)

        meta = dict(formats.autoencoder_meta(ae), key=key, sigma=float(entry.sigma))
        self._registry.publish(
            key,
            KIND_AE_CACHE,
            writer,
            input_dim=ae.input_dim,
            output_dim=ae.latent_dim,
            meta=meta,
        )

    # -- telemetry ---------------------------------------------------------------

    @staticmethod
    def _count(outcome: str, tier: str) -> None:
        registry = obs.get_registry()
        if outcome == "hit":
            registry.counter(
                "repro_nas_ae_cache_hits_total",
                "Autoencoder artifact cache hits",
                labels=("tier",),
            ).inc(tier=tier)
        else:
            registry.counter(
                "repro_nas_ae_cache_misses_total",
                "Autoencoder artifact cache misses",
            ).inc()
