"""Payload codecs for model artifacts — the one place that touches npz.

Every byte of model state written to or read from disk goes through this
module: the surrogate ``.npz`` (topology meta + parameter arrays +
scaler arrays), the autoencoder ``.npz`` (embedded rebuild meta +
parameter arrays), the
compiled-plan ``.npz`` and raw encoded-dataset arrays.  Each artifact
kind has one writer and one reader over these codecs
(:class:`~repro.nas.package.SurrogatePackage`,
:class:`~repro.nas.cache.AutoencoderCache`,
:class:`~repro.compile.cache.PlanCache`), so the on-disk format has
exactly one definition — and CI can grep that no module outside
``repro/registry`` saves or loads an npz by hand.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ..core.scaling import Scaler
from ..nn.cnn import AnyTopology, CNNTopology, build_model
from ..nn.layers import Sequential
from ..nn.mlp import Topology

if TYPE_CHECKING:  # a module-level runtime import would be circular
    from ..autoencoder.model import Autoencoder

__all__ = [
    "MODEL_FORMAT_VERSION",
    "AUTOENCODER_FORMAT_VERSION",
    "PLAN_FORMAT_VERSION",
    "topology_to_meta",
    "topology_from_meta",
    "write_model_npz",
    "read_model_npz",
    "write_autoencoder_npz",
    "read_autoencoder_npz",
    "autoencoder_meta",
    "write_array",
    "read_array",
    "write_plan_npz",
    "read_plan_npz",
]

#: v3 added the package's scaler arrays; a v2 reader refuses a v3 file
#: rather than serve its outputs unscaled
MODEL_FORMAT_VERSION = 3
AUTOENCODER_FORMAT_VERSION = 1
PLAN_FORMAT_VERSION = 1

#: the surrogate npz's array names of each scaler's ``(mean, std)``
_SCALER_ARRAYS = {"x_scaler": ("x_mean", "x_std"), "y_scaler": ("y_mean", "y_std")}


# -- topology metadata ---------------------------------------------------------


def topology_to_meta(topology: AnyTopology) -> dict:
    """JSON-safe description of either surrogate family (MLP or CNN)."""
    if isinstance(topology, CNNTopology):
        return {
            "family": "cnn",
            "channels": list(topology.channels),
            "kernel_sizes": list(topology.kernel_sizes),
            "pools": list(topology.pools),
            "activation": topology.activation,
            "pool_kind": topology.pool_kind,
        }
    return {
        "family": "mlp",
        "hidden": list(topology.hidden),
        "activation": topology.activation,
        "residual": topology.residual,
    }


def topology_from_meta(meta: dict) -> AnyTopology:
    if meta.get("family") == "cnn":
        return CNNTopology(
            channels=tuple(meta["channels"]),
            kernel_sizes=tuple(meta["kernel_sizes"]),
            pools=tuple(meta["pools"]),
            activation=meta["activation"],
            pool_kind=meta.get("pool_kind", "max"),
        )
    return Topology(
        hidden=tuple(meta["hidden"]),
        activation=meta["activation"],
        residual=meta["residual"],
    )


# -- surrogate models ----------------------------------------------------------


def write_model_npz(
    model: Sequential,
    topology: AnyTopology,
    in_features: int,
    out_features: int,
    path: Union[str, Path],
    *,
    x_scaler: Optional[Scaler] = None,
    y_scaler: Optional[Scaler] = None,
) -> Path:
    """Persist a surrogate built by :func:`repro.nn.cnn.build_model`,
    with the scalers its package serves through (each optional)."""
    path = Path(path)
    meta = {
        "version": MODEL_FORMAT_VERSION,
        "in_features": int(in_features),
        "out_features": int(out_features),
        "topology": topology_to_meta(topology),
    }
    arrays = {f"param_{i}": p.data for i, p in enumerate(model.parameters())}
    for scaler, (mean, std) in zip((x_scaler, y_scaler), _SCALER_ARRAYS.values()):
        if scaler is not None:
            arrays[mean], arrays[std] = scaler.mean, scaler.std
    np.savez(path, meta=json.dumps(meta), **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def read_model_npz(
    path: Union[str, Path],
) -> tuple[Sequential, AnyTopology, int, int, dict]:
    """Rebuild a saved surrogate; returns (model, topology, in, out,
    scalers), where ``scalers`` maps ``x_scaler``/``y_scaler`` to the
    :class:`~repro.core.scaling.Scaler` the file holds, if any."""
    with np.load(Path(path), allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        version = meta.get("version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model file version {version!r}")
        topology = topology_from_meta(meta["topology"])
        model = build_model(meta["in_features"], meta["out_features"], topology)
        params = list(model.parameters())
        for i, p in enumerate(params):
            stored = archive[f"param_{i}"]
            if stored.shape != p.data.shape:
                raise ValueError(
                    f"parameter {i} shape mismatch: file {stored.shape} "
                    f"vs model {p.data.shape}"
                )
            p.data = stored.astype(np.float64)
        scalers = {
            name: Scaler(mean=archive[mean], std=archive[std])
            for name, (mean, std) in _SCALER_ARRAYS.items()
            if mean in archive.files
        }
    return model, topology, meta["in_features"], meta["out_features"], scalers


# -- autoencoders ---------------------------------------------------------------


def autoencoder_meta(ae: Autoencoder) -> dict:
    """Constructor arguments needed to rebuild ``ae`` before loading params."""
    return {
        "input_dim": ae.input_dim,
        "latent_dim": ae.latent_dim,
        "depth": sum(1 for layer in ae.encoder if hasattr(layer, "weight")),
        "activation": getattr(ae, "activation", "relu"),
    }


def write_autoencoder_npz(
    ae: Autoencoder,
    path: Union[str, Path],
    *,
    sigma: Optional[float] = None,
) -> Path:
    """Persist an autoencoder (params + embedded rebuild meta) as one npz."""
    path = Path(path)
    meta = dict(autoencoder_meta(ae), version=AUTOENCODER_FORMAT_VERSION)
    if sigma is not None:
        meta["sigma"] = float(sigma)
    arrays = {f"param_{i}": p.data for i, p in enumerate(ae.parameters())}
    np.savez(path, meta=json.dumps(meta), **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def read_autoencoder_npz(path: Union[str, Path]) -> tuple[Autoencoder, dict]:
    """Rebuild a self-describing autoencoder archive; returns (ae, meta)."""
    with np.load(Path(path), allow_pickle=False) as archive:
        if "meta" not in archive:
            raise ValueError(f"{path} has no embedded meta record")
        from ..autoencoder.model import Autoencoder

        meta = json.loads(str(archive["meta"]))
        ae = Autoencoder(
            meta["input_dim"],
            meta["latent_dim"],
            depth=meta["depth"],
            activation=meta.get("activation", "relu"),
        )
        for i, p in enumerate(ae.parameters()):
            p.data = archive[f"param_{i}"].astype(np.float64)
    return ae, meta


# -- compiled serving plans ------------------------------------------------------


def write_plan_npz(path: Union[str, Path], meta: dict, arrays: dict) -> Path:
    """Persist a compiled serving plan (step meta + constant arrays).

    ``meta``/``arrays`` come from :func:`repro.compile.plan.plan_payload`;
    this codec stays structure-agnostic (one JSON record plus named
    arrays — float64 weights/biases and int64 CSR pattern arrays alike)
    so the on-disk plan format is owned here like every other artifact
    payload, and new step kinds need no codec change.
    """
    path = Path(path)
    meta = dict(meta, format_version=PLAN_FORMAT_VERSION)
    np.savez(path, meta=json.dumps(meta), **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def read_plan_npz(path: Union[str, Path]) -> tuple[dict, dict]:
    """Load a plan payload; returns ``(meta, arrays)``.

    Arrays round-trip byte-exact through npz, so a reloaded plan is
    bit-identical to the one that was stored.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        version = meta.pop("format_version", None)
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(f"unsupported plan file version {version!r}")
        arrays = {k: archive[k] for k in archive.files if k != "meta"}
    return meta, arrays


# -- raw arrays ------------------------------------------------------------------


def write_array(path: Union[str, Path], array: np.ndarray) -> Path:
    """Persist one raw array payload (e.g. a cached encoded dataset)."""
    path = Path(path)
    np.save(path, array)
    return path if path.suffix == ".npy" else path.with_suffix(path.suffix + ".npy")


def read_array(path: Union[str, Path]) -> np.ndarray:
    return np.load(Path(path), allow_pickle=False)
