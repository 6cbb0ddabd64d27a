"""Error-bounded autoencoder training with gradient checkpointing (§4.2/§6.2).

The trainer minimizes reconstruction MSE while monitoring σ_y (Eqn 1) on a
validation split after every epoch; training stops as soon as the encoding
quality meets the user's bound (Table 1's ``encodingLoss``), or when the
epoch budget runs out.  With ``gradient_checkpointing=True`` both halves of
the autoencoder are wrapped in :class:`~repro.nn.checkpoint.CheckpointSequential`,
trading a second forward pass for not storing interior activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.checkpoint import CheckpointSequential
from ..nn.losses import mse_loss
from ..nn.optim import Adam
from ..nn.tensor import Tensor, no_grad
from ..perf.metrics import reconstruction_similarity
from .model import Autoencoder

__all__ = ["AETrainConfig", "AETrainResult", "train_autoencoder"]


@dataclass(frozen=True)
class AETrainConfig:
    """Autoencoder training knobs."""

    num_epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    train_ratio: float = 0.8
    encoding_loss_bound: float = 0.10   # acceptable sigma_y (Table 1 encodingLoss)
    sigma_mu: float = 0.10              # element tolerance inside Eqn 1
    gradient_checkpointing: bool = False
    checkpoint_segments: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_ratio <= 1.0:
            raise ValueError("train_ratio must be in (0, 1]")
        if not 0.0 <= self.encoding_loss_bound <= 1.0:
            raise ValueError("encoding_loss_bound must be in [0, 1]")


@dataclass
class AETrainResult:
    """Loss and σ_y histories plus the stopping reason."""

    train_losses: list[float] = field(default_factory=list)
    sigma_history: list[float] = field(default_factory=list)
    final_sigma: float = 1.0
    epochs_run: int = 0
    met_bound: bool = False


def train_autoencoder(
    ae: Autoencoder,
    x: np.ndarray,
    config: AETrainConfig = AETrainConfig(),
) -> AETrainResult:
    """Train ``ae`` to reconstruct the rows of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != ae.input_dim:
        raise ValueError(f"expected {ae.input_dim} features, got {x.shape[1]}")
    if x.shape[0] < 2:
        raise ValueError("need at least two samples to train an autoencoder")

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(x.shape[0])
    cut = max(1, min(x.shape[0] - 1, int(round(x.shape[0] * config.train_ratio))))
    train_idx, val_idx = perm[:cut], perm[cut:]

    if config.gradient_checkpointing:
        encoder = CheckpointSequential(ae.encoder, config.checkpoint_segments)
        decoder = CheckpointSequential(ae.decoder, config.checkpoint_segments)
    else:
        encoder, decoder = ae.encoder, ae.decoder

    def reconstruct(batch: np.ndarray) -> Tensor:
        return decoder(encoder(Tensor(batch)))

    optimizer = Adam(list(ae.parameters()), lr=config.lr)
    result = AETrainResult()
    val = x[val_idx] if val_idx.size else x[train_idx]

    for epoch in range(config.num_epochs):
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, order.size, config.batch_size):
            batch = x[order[start : start + config.batch_size]]
            optimizer.zero_grad()
            recon = reconstruct(batch)
            loss = mse_loss(recon, Tensor(batch))
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        result.train_losses.append(epoch_loss / max(batches, 1))

        with no_grad():
            recon_val = ae.reconstruct(val)
        sigma = reconstruction_similarity(val, recon_val, mu=config.sigma_mu)
        result.sigma_history.append(sigma)
        result.final_sigma = sigma
        result.epochs_run = epoch + 1
        if sigma <= config.encoding_loss_bound:
            result.met_bound = True
            break

    return result
