"""Background retraining of a drifted surrogate from captured traffic.

The retrainer clones the incumbent :class:`~repro.nas.package.SurrogatePackage`
and fine-tunes the surrogate head on the buffered raw ``(x, y)`` pairs
the guard captured on fallback, scaled and encoded by the package's own
scalers and encoder.  The scalers and the autoencoder stay frozen:
the encoder's reconstruction objective is not what drifted, and
refitting it would go back through the NAS.  The candidate publishes to
the registry as the next version of the model with a ``lineage`` block
in the manifest meta::

    {"lineage": {"parent_version": 3, "trigger": "drift",
                 "drift": {...}, "samples": 96, "content_key": "..."}}

``content_key`` fingerprints (parent weights, training data, config) the
same way :mod:`repro.nas.cache` keys autoencoder artifacts; a retrain
request whose key matches an already-published candidate returns that
candidate instead of training again, which makes the retrain step
idempotent under kill/resume.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import obs
from ..core.digest import content_key, fingerprint_array
from ..nas.package import SurrogatePackage
from ..nn.train import TrainConfig, train_model
from ..registry import ArtifactRef, ModelRegistry

__all__ = ["RetrainConfig", "Retrainer", "find_candidate"]


@dataclass(frozen=True)
class RetrainConfig:
    """Fine-tune hyperparameters for drift-triggered retraining.

    Defaults lean small: the buffer holds hundreds of samples at most,
    and the candidate starts from the incumbent's weights, so a short
    high-LR fine-tune beats a full from-scratch fit.
    """

    num_epochs: int = 80
    batch_size: int = 16
    lr: float = 1e-2
    train_ratio: float = 0.9
    patience: int = 20
    min_samples: int = 16
    seed: int = 0


def find_candidate(
    registry: ModelRegistry,
    name: str,
    *,
    parent_version: int,
    content_key_hex: Optional[str] = None,
    exclude: Optional[set] = None,
) -> Optional[ArtifactRef]:
    """Newest published candidate descended from ``parent_version``.

    With ``content_key_hex`` the match must be exact (same data, same
    config — the idempotence probe); without it any child of the parent
    qualifies (the resume-after-kill probe: the buffer died with the
    process, but a candidate published before the kill is still the
    right one to canary).  ``exclude`` skips versions a previous loop
    iteration already rolled back.
    """
    versions = registry.versions(name)
    for version in reversed(versions):
        if exclude and version in exclude:
            continue
        try:
            ref = registry.resolve(name, version)
        except Exception:  # noqa: BLE001 - skip unreadable versions
            continue
        lineage = ref.meta.get("lineage")
        if not isinstance(lineage, dict):
            continue
        if lineage.get("parent_version") != parent_version:
            continue
        if (
            content_key_hex is not None
            and lineage.get("content_key") != content_key_hex
        ):
            continue
        return ref
    return None


class Retrainer:
    """Fits and publishes candidate versions of one registry artifact."""

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        config: Optional[RetrainConfig] = None,
    ) -> None:
        self.registry = registry
        self.name = name
        self.config = config or RetrainConfig()
        #: fine-tunes actually run by this instance (cache hits excluded)
        self.trained_count = 0
        self._m_retrains = obs.get_registry().counter(
            "repro_lifecycle_retrains_total",
            "Candidate fine-tunes actually run (cache hits excluded)",
            labels=("model",),
        )

    def retrain(
        self,
        incumbent: SurrogatePackage,
        x: np.ndarray,
        y: np.ndarray,
        *,
        parent_version: int,
        trigger: str = "drift",
        drift: Optional[dict] = None,
    ) -> ArtifactRef:
        """Fine-tune a candidate on ``(x, y)`` and publish it; returns its ref.

        Idempotent: an identical request (same parent, data, config)
        returns the already-published candidate without training.
        """
        cfg = self.config
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} samples but y has {y.shape[0]}"
            )
        if x.shape[0] < cfg.min_samples:
            raise ValueError(
                f"retraining needs at least {cfg.min_samples} samples; "
                f"buffer holds {x.shape[0]}"
            )
        key = content_key(
            {
                "parent": [fingerprint_array(p.data) for p in incumbent.model.parameters()],
                **incumbent.scaler_fingerprints(),
                "x": fingerprint_array(x),
                "y": fingerprint_array(y),
                "config": {
                    "num_epochs": cfg.num_epochs,
                    "batch_size": cfg.batch_size,
                    "lr": cfg.lr,
                    "train_ratio": cfg.train_ratio,
                    "patience": cfg.patience,
                    "seed": cfg.seed,
                },
            }
        )
        cached = find_candidate(
            self.registry,
            self.name,
            parent_version=parent_version,
            content_key_hex=key,
        )
        if cached is not None:
            return cached
        # deep-copy via pickle: packages are picklable by construction
        # (process-sharded serving ships them the same way), and the
        # incumbent must keep serving unmodified while the clone trains
        candidate: SurrogatePackage = pickle.loads(pickle.dumps(incumbent))
        z, t = candidate.training_pair(x, y)
        with obs.span("lifecycle.retrain", model=self.name, samples=x.shape[0]):
            result = train_model(
                candidate.model,
                z,
                t,
                TrainConfig(
                    num_epochs=cfg.num_epochs,
                    batch_size=cfg.batch_size,
                    lr=cfg.lr,
                    train_ratio=cfg.train_ratio,
                    patience=cfg.patience,
                    seed=cfg.seed,
                ),
            )
        self.trained_count += 1
        self._m_retrains.inc(model=self.name)
        extra_meta = {
            "lineage": {
                "parent_version": int(parent_version),
                "trigger": trigger,
                "drift": dict(drift or {}),
                "samples": int(x.shape[0]),
                "content_key": key,
            }
        }
        # the candidate reads the parent's input rows, so it carries the
        # parent's schema record and `registry verify` checks its width
        parent = self.registry.resolve(self.name, parent_version)
        schema = parent.meta.get("input_schema")
        if schema is not None:
            extra_meta["input_schema"] = schema
        return candidate.publish(
            self.registry,
            self.name,
            metrics={"retrain_val_loss": float(result.best_val_loss)},
            extra_meta=extra_meta,
        )
