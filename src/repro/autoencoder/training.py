"""Error-bounded autoencoder training with gradient checkpointing (§4.2/§6.2).

The encoder and decoder layers train as one ``Sequential`` through
:func:`repro.nn.train.train_model`, minimizing reconstruction MSE.  Its
``epoch_callback`` measures σ_y (Eqn 1) on the held-out rows after every
epoch; training stops as soon as the encoding quality meets the user's
bound (Table 1's ``encodingLoss``), or when the epoch budget runs out,
never on patience.  Without checkpointing the fit runs on the compiled
step of :mod:`repro.nn.trainstep`.  With ``gradient_checkpointing=True``
both halves of the autoencoder run as
:class:`~repro.nn.checkpoint.CheckpointSequential` through ``forward=``,
trading a second forward pass for not storing interior activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.checkpoint import CheckpointSequential
from ..nn.layers import Sequential
from ..nn.tensor import Tensor
from ..nn.train import TrainConfig, _split, train_model
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

    # the rows train_model validates on (its _split draws first from this
    # seed); of two or more rows it holds at least one out
    _, val_idx = _split(x.shape[0], config.train_ratio, np.random.default_rng(config.seed))
    val = x[val_idx]
    result = AETrainResult()

    def within_bound(epoch: int, train_loss: float, val_loss: float) -> bool:
        sigma = reconstruction_similarity(val, ae.reconstruct(val), mu=config.sigma_mu)
        result.sigma_history.append(sigma)
        result.final_sigma = sigma
        result.met_bound = sigma <= config.encoding_loss_bound
        return result.met_bound

    forward = None
    if config.gradient_checkpointing:
        encoder = CheckpointSequential(ae.encoder, config.checkpoint_segments)
        decoder = CheckpointSequential(ae.decoder, config.checkpoint_segments)

        def forward(model: Sequential, batch: np.ndarray) -> Tensor:
            return decoder(encoder(Tensor(batch)))

    train_config = TrainConfig(
        num_epochs=config.num_epochs, batch_size=config.batch_size, lr=config.lr,
        train_ratio=config.train_ratio, seed=config.seed,
        # stale epochs reach num_epochs only in the last epoch
        patience=config.num_epochs,
    )
    fit = train_model(Sequential([*ae.encoder, *ae.decoder]), x, x, train_config,
                      forward=forward, epoch_callback=within_bound)
    result.train_losses = fit.train_losses
    result.epochs_run = fit.epochs_run
    return result
