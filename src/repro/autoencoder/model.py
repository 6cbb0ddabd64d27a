"""Customized autoencoder for sparse HPC inputs (§4).

The encoder is *hourglass-shaped* (widths shrink geometrically from the
input dimension to the latent dimension) and the decoder is *horn-shaped*
(the mirror image), per §4.1.  The customizations of §4.2:

* sparse region inputs arrive as the rows their
  :class:`~repro.extract.features.FeatureSchema` gathered at the live
  stored positions, so the encoder never sees a dense blow-up;
* training supports gradient checkpointing (see
  :mod:`repro.autoencoder.training`);
* reconstruction quality is quantified element-wise with σ_y (Eqn 1,
  :func:`repro.perf.metrics.reconstruction_similarity`) because encoder
  outputs alone (different size than the input) cannot be compared — the
  decoder's same-size reconstruction can.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Activation, Dense, Module, Sequential
from ..nn.tensor import Tensor, no_grad
from ..perf.metrics import reconstruction_similarity

__all__ = ["Autoencoder", "hourglass_widths"]


def hourglass_widths(input_dim: int, latent_dim: int, depth: int) -> list[int]:
    """Geometrically interpolated layer widths from input to latent.

    ``depth`` counts the hidden layers of the encoder including the latent
    layer; the decoder mirrors the list.
    """
    if input_dim < 1 or latent_dim < 1:
        raise ValueError("dimensions must be positive")
    if latent_dim > input_dim:
        raise ValueError("latent dimension must not exceed the input dimension")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth == 1:
        return [latent_dim]
    ratio = (latent_dim / input_dim) ** (1.0 / depth)
    widths = [max(latent_dim, int(round(input_dim * ratio ** (i + 1)))) for i in range(depth)]
    widths[-1] = latent_dim
    # enforce monotone shrink so the shape really is an hourglass
    for i in range(1, depth):
        widths[i] = min(widths[i], widths[i - 1])
    return widths


class Autoencoder(Module):
    """Encoder/decoder pair used for feature reduction."""

    def __init__(
        self,
        input_dim: int,
        latent_dim: int,
        *,
        depth: int = 2,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.input_dim = int(input_dim)
        self.latent_dim = int(latent_dim)
        self.activation = activation
        widths = hourglass_widths(self.input_dim, self.latent_dim, depth)

        encoder_layers: list[Module] = []
        prev = self.input_dim
        for i, width in enumerate(widths):
            encoder_layers.append(Dense(prev, width, rng, activation_hint=activation))
            if i < len(widths) - 1:
                encoder_layers.append(Activation(activation))
            prev = width
        self.encoder = Sequential(encoder_layers)

        decoder_layers: list[Module] = []
        mirror = list(reversed(widths[:-1])) + [self.input_dim]
        prev = self.latent_dim
        for i, width in enumerate(mirror):
            decoder_layers.append(Dense(prev, width, rng, activation_hint=activation))
            if i < len(mirror) - 1:
                decoder_layers.append(Activation(activation))
            prev = width
        self.decoder = Sequential(decoder_layers)

    # -- forward paths -----------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        return self.decoder(self.encoder(x))

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Online feature reduction: raw input -> latent features."""
        with no_grad():
            return self.encoder(Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))).data

    def decode(self, z: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.decoder(Tensor(np.atleast_2d(np.asarray(z, dtype=np.float64)))).data

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        return self.decode(self.encode(x))

    # -- quality API ----------------------------------------------------------

    def evl(self, inputs: np.ndarray, mu: float = 0.10) -> float:
        """Quality degradation of the reduction on ``inputs`` (Eqn 1).

        This is the paper's ``Autoencoder.evl(#inputs, #compaction)`` API:
        it reconstructs the reduced features and reports σ_y, the fraction
        of elements whose reconstruction error exceeds ``mu * |x_i|``.
        Lower is better; 0.0 is a lossless encoding at tolerance ``mu``.
        """
        recon = self.reconstruct(inputs)
        return reconstruction_similarity(np.atleast_2d(inputs), recon, mu=mu)

    def flops(self, batch: int = 1) -> int:
        return self.encoder.flops(batch) + self.decoder.flops(batch)

    def encode_flops(self, batch: int = 1) -> int:
        """Online cost: only the encoder runs during serving."""
        return self.encoder.flops(batch)
