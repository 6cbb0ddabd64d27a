"""SurrogatePackage: the deployable artifact of the 2D NAS.

Bundles the build's input and output scalers, the trained autoencoder
(when feature reduction is on) and the trained surrogate MLP, knows its
own inference cost (for Eqn 2's ``T_NN_infer`` under a device model) and
serializes to a directory so surrogates can be saved, shared and
re-loaded across applications (§6.1).  ``predict`` maps a region's raw
flattened input row to its raw flattened outputs, so a package loaded
from disk answers a region call with nothing else at hand.

Persistence goes through :mod:`repro.registry`, and this class is the
only writer and reader of a ``surrogate-package`` artifact: ``save``
writes an atomic registry-artifact directory (payloads + digest-verified
``manifest.json``, staged in a temp dir and renamed into place so a kill
mid-save can never leave a half-written package), ``publish`` pushes a
new version into a :class:`~repro.registry.ModelRegistry`, and ``load``
/ ``from_registry`` read either back.  Every payload goes through one
codec in :mod:`repro.registry.formats`; the registry loads with the
first save, load or publish, so a process that only serves a package
built in memory never imports it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..nn.tensor import Tensor, no_grad

if TYPE_CHECKING:  # annotations only: serving loads none of these
    from ..autoencoder.model import Autoencoder
    from ..core.scaling import Scaler
    from ..nn.cnn import AnyTopology
    from ..nn.layers import Sequential
    from ..registry.store import ArtifactRef, ModelRegistry

__all__ = ["SurrogatePackage"]


@dataclass
class SurrogatePackage:
    """Scalers and encoder (each optional) + surrogate model, ready to serve.

    A package without scalers serves model-space rows as they come.
    """

    model: Sequential
    topology: AnyTopology
    input_dim: int
    output_dim: int
    autoencoder: Optional[Autoencoder] = None
    x_scaler: Optional[Scaler] = None
    y_scaler: Optional[Scaler] = None

    @property
    def latent_dim(self) -> int:
        return self.autoencoder.latent_dim if self.autoencoder else self.input_dim

    @property
    def uses_reduction(self) -> bool:
        return self.autoencoder is not None

    # -- inference ----------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Raw region inputs -> raw surrogate outputs (batch or single row).

        A 1-D array is one sample ``(F,)`` and returns ``(output_dim,)``;
        a 2-D array is ``(B, F)`` and returns
        ``(B, output_dim)`` from a single vectorized forward pass — this
        is the row-wise contract the orchestrator's micro-batching server
        relies on to stack compatible requests.
        """
        single = isinstance(x, np.ndarray) and x.ndim == 1
        if isinstance(x, np.ndarray) and x.shape[-1] != self.input_dim:
            raise ValueError(
                f"surrogate expects {self.input_dim} input features, "
                f"got input of shape {x.shape}"
            )
        out = self.run_encoded(self.encode(x[None, :] if single else x))
        return out[0] if single else out

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Raw ``(B, F)`` input rows -> the model's input features:
        the x scaling, then the autoencoder's reduction."""
        z = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.x_scaler is not None:
            z = self.x_scaler.transform(z)
        return z if self.autoencoder is None else self.autoencoder.encode(z)

    def run_encoded(self, z: np.ndarray) -> np.ndarray:
        """The model's input features -> raw outputs: the surrogate
        forward, then the y scaling's inverse."""
        with no_grad():
            out = self.model(Tensor(z)).data
        return out if self.y_scaler is None else self.y_scaler.inverse(out)

    def training_pair(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """Raw ``(x, y)`` rows -> what the model trains on: the encoded
        inputs and the scaled outputs."""
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if self.y_scaler is not None:
            y = self.y_scaler.transform(y)
        return self.encode(x), y

    def predict_batch(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """Stack per-request rows into one ``(B, F)`` forward pass."""
        if len(rows) == 0:
            return np.empty((0, self.output_dim))
        return self.predict(np.stack([np.asarray(r).ravel() for r in rows]))

    def inference_flops(self, batch: int = 1) -> int:
        """Online cost: encoder (if any) + surrogate forward."""
        total = self.model.flops(batch)
        if self.autoencoder is not None:
            total += self.autoencoder.encode_flops(batch)
        return total

    def num_parameters(self) -> int:
        total = self.model.num_parameters()
        if self.autoencoder is not None:
            total += sum(p.size for p in self.autoencoder.encoder.parameters())
        return total

    def scaler_fingerprints(self) -> dict:
        """``{x_scaler|y_scaler: [mean, std] fingerprints}`` of the scalers
        held: a key that hashes a package must cover them, or two packages
        that differ only in a scaler share it."""
        from ..core.digest import fingerprint_array

        scalers = {"x_scaler": self.x_scaler, "y_scaler": self.y_scaler}
        return {
            name: [fingerprint_array(scaler.mean), fingerprint_array(scaler.std)]
            for name, scaler in scalers.items()
            if scaler is not None
        }

    # -- serialization ----------------------------------------------------------

    def payload_meta(self) -> dict:
        """The ``package.json`` body (also embedded in registry manifests)."""
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "uses_reduction": self.uses_reduction,
        }

    def write_payloads(self, directory: Union[str, Path]) -> None:
        """Stage the package's payload files into ``directory``."""
        from ..registry import formats

        directory = Path(directory)
        formats.write_model_npz(
            self.model, self.topology, self.latent_dim, self.output_dim,
            directory / "surrogate.npz",
            x_scaler=self.x_scaler, y_scaler=self.y_scaler,
        )
        if self.autoencoder is not None:
            formats.write_autoencoder_npz(
                self.autoencoder, directory / "autoencoder.npz"
            )
        (directory / "package.json").write_text(
            json.dumps(self.payload_meta(), indent=2)
        )

    def save(
        self,
        directory: Union[str, Path],
        *,
        metrics: Optional[dict] = None,
    ) -> Path:
        """Write the package as a registry-artifact directory, atomically.

        Payloads and the manifest are staged into a temp directory and
        renamed into ``directory`` in one step, so an interrupted save
        leaves either the previous complete package or nothing — never a
        half-written directory that :meth:`load` crashes on.
        """
        from ..registry.store import atomic_directory, write_manifest

        directory = Path(directory)
        with atomic_directory(directory) as staged:
            self.write_payloads(staged)
            write_manifest(
                staged,
                name=directory.name,
                version=1,
                kind="surrogate-package",
                input_dim=self.input_dim,
                output_dim=self.output_dim,
                metrics=metrics,
                meta=self.payload_meta(),
            )
        return directory

    def publish(
        self,
        registry: ModelRegistry,
        name: str,
        *,
        metrics: Optional[dict] = None,
        extra_meta: Optional[dict] = None,
    ) -> ArtifactRef:
        """Publish this package as the next version of ``name``.

        ``extra_meta`` merges additional keys into the manifest ``meta``
        — e.g. the retrainer's ``lineage`` block (``parent_version``,
        ``trigger``, drift stats) that makes a candidate's provenance
        auditable from the manifest alone.
        """
        meta = self.payload_meta()
        if extra_meta:
            meta.update(extra_meta)
        return registry.publish(
            name,
            "surrogate-package",
            self.write_payloads,
            input_dim=self.input_dim,
            output_dim=self.output_dim,
            metrics=metrics,
            meta=meta,
        )

    @classmethod
    def from_registry(
        cls,
        registry: ModelRegistry,
        name: str,
        version: Optional[int] = None,
    ) -> "SurrogatePackage":
        """Resolve and load ``name`` (latest version unless pinned)."""
        return cls.load(registry.resolve(name, version).path)

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "SurrogatePackage":
        """Load a package directory written by :meth:`save` or :meth:`publish`.

        The autoencoder rebuilds from its archive's embedded meta, which
        records its activation; ``package.json`` does not.  The scalers
        come back from ``surrogate.npz``.
        """
        from ..registry import formats

        directory = Path(directory)
        meta = json.loads((directory / "package.json").read_text())
        model, topology, _in, out_dim, scalers = formats.read_model_npz(
            directory / "surrogate.npz"
        )
        autoencoder = None
        if meta.get("uses_reduction"):
            autoencoder, _ae_meta = formats.read_autoencoder_npz(
                directory / "autoencoder.npz"
            )
        return cls(
            model=model,
            topology=topology,
            input_dim=int(meta["input_dim"]),
            output_dim=int(out_dim),
            autoencoder=autoencoder,
            **scalers,
        )
