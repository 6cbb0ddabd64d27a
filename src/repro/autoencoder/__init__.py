"""Customized autoencoder for sparse-input feature reduction (paper §4)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".model": ["Autoencoder", "hourglass_widths"],
    ".training": ["AETrainConfig", "AETrainResult", "train_autoencoder"],
})
