"""Model serialization: save/share surrogates and autoencoders (§6.1).

A saved model is a single ``.npz`` holding the topology description (JSON)
plus every parameter array, so a surrogate trained in one application can be
re-loaded and re-used in another, as Auto-HPCnet allows.  Both surrogate
families (MLP and CNN) serialize through the same functions.

This module is a thin wrapper: the on-disk format is defined once in
:mod:`repro.registry.formats`, and registry artifacts published through
:func:`repro.registry.publish_model` carry the same payload with a
digest-verified manifest on top.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .cnn import AnyTopology
from .layers import Sequential

__all__ = ["save_model", "load_model", "save_mlp", "load_mlp"]


def save_model(
    model: Sequential,
    topology: AnyTopology,
    in_features: int,
    out_features: int,
    path: Union[str, Path],
) -> Path:
    """Persist a surrogate built by :func:`repro.nn.cnn.build_model`."""
    # imported on call: ``registry.formats`` imports ``repro.nn`` itself
    from ..registry.formats import write_model_npz

    return write_model_npz(model, topology, in_features, out_features, path)


def load_model(path: Union[str, Path]) -> tuple[Sequential, AnyTopology, int, int]:
    """Rebuild a saved surrogate; returns (model, topology, in, out)."""
    from ..registry.formats import read_model_npz

    return read_model_npz(path)


# backwards-compatible aliases (the original MLP-only entry points)
save_mlp = save_model
load_mlp = load_model
