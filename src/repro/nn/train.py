"""Mini-batch training loop with train/validation split and early stopping.

Mirrors the model-level knobs of Table 1: ``numEpoch``, ``trainRatio``,
``batchSize`` and ``lr`` are all explicit arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .layers import Module
from .losses import mse_loss
from .optim import Adam
from .tensor import Tensor, no_grad

__all__ = ["TrainConfig", "TrainResult", "train_model", "predict"]

#: Called after every epoch with ``(epoch, train_loss, val_loss)``; a truthy
#: return stops training (the NAS median-pruning hook rides on this).
EpochCallback = Callable[[int, float, float], bool]


def _as_float_array(a: np.ndarray) -> np.ndarray:
    """View ``a`` as a float array without copying float32/float64 inputs.

    ``np.asarray(a, dtype=np.float64)`` silently copies (and upcasts) a
    float32 array on every call; serving already preserves float32 end to
    end, so training/inference must too.  Non-float dtypes still convert
    to float64.
    """
    a = np.asarray(a)
    if a.dtype == np.float64 or a.dtype == np.float32:
        return a
    return a.astype(np.float64)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for surrogate/autoencoder training (Table 1)."""

    num_epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    train_ratio: float = 0.8
    patience: int = 10
    min_delta: float = 1e-6
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_ratio <= 1.0:
            raise ValueError("train_ratio must be in (0, 1]")
        if self.num_epochs < 1 or self.batch_size < 1:
            raise ValueError("num_epochs and batch_size must be >= 1")


@dataclass
class TrainResult:
    """Loss curves and the best validation loss reached."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_val_loss: float = float("inf")
    epochs_run: int = 0
    #: True when an ``epoch_callback`` cut the run short (e.g. NAS pruning)
    stopped_by_callback: bool = False

    @property
    def converged(self) -> bool:
        return np.isfinite(self.best_val_loss)


def _split(
    n: int, train_ratio: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    cut = max(1, int(round(n * train_ratio)))
    if cut >= n:  # keep at least one validation row when possible
        cut = n - 1 if n > 1 else n
    return perm[:cut], perm[cut:]


def train_model(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    *,
    forward: Optional[Callable[[Module, np.ndarray], Tensor]] = None,
    epoch_callback: Optional[EpochCallback] = None,
) -> TrainResult:
    """Train ``model`` to map ``x -> y``; returns loss history.

    The loss is :func:`~repro.nn.losses.mse_loss`.  ``forward`` lets
    callers inject a custom forward (the autoencoder's checkpointed pass);
    by default the model is called on a Tensor batch.
    ``epoch_callback(epoch, train_loss, val_loss)`` runs after every epoch;
    returning truthy stops training early (independently of ``patience``) —
    this is how the NAS inner loop prunes unpromising trials mid-training
    and the autoencoder stops at its σ_y bound.

    A ``Sequential`` of ``Dense``, ``Activation`` and ``Residual`` trained
    with the default forward runs through the compiled step of
    :mod:`repro.nn.trainstep` instead of the autograd graph; its losses,
    epochs and weights are bit-identical to the autograd loop's.
    """
    x = _as_float_array(x)
    y = _as_float_array(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must have the same number of rows")
    if x.shape[0] == 0:
        raise ValueError("empty training set")

    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = _split(x.shape[0], config.train_ratio, rng)
    compiled = None
    if forward is None:
        # training-only code loads on demand, off the serving closure (DESIGN §5l)
        from .trainstep import compile_step

        compiled = compile_step(
            model, x, y, train_idx, val_idx, config.batch_size,
            config.lr, config.weight_decay,
        )
    if compiled is not None:
        step, validate = compiled.step, compiled.validate
    else:
        optimizer = Adam(
            model.parameters(), lr=config.lr, weight_decay=config.weight_decay
        )
        run = forward or (lambda m, batch: m(Tensor(batch)))

        def step(batch: np.ndarray) -> float:
            optimizer.zero_grad()
            loss = mse_loss(run(model, x[batch]), Tensor(y[batch]))
            loss.backward()
            optimizer.step()
            return loss.item()

        def validate() -> float:
            with no_grad():
                return mse_loss(run(model, x[val_idx]), Tensor(y[val_idx])).item()

    result = TrainResult()
    stale = 0
    try:
        for epoch in range(config.num_epochs):
            order = rng.permutation(train_idx)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, order.size, config.batch_size):
                epoch_loss += step(order[start : start + config.batch_size])
                batches += 1
            result.train_losses.append(epoch_loss / max(batches, 1))

            if val_idx.size:
                val_loss = validate()
            else:
                val_loss = result.train_losses[-1]
            result.val_losses.append(val_loss)
            result.epochs_run = epoch + 1

            if epoch_callback is not None and epoch_callback(
                epoch, result.train_losses[-1], val_loss
            ):
                result.stopped_by_callback = True
                if val_loss < result.best_val_loss:
                    result.best_val_loss = val_loss
                break

            if val_loss < result.best_val_loss - config.min_delta:
                result.best_val_loss = val_loss
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
        return result
    finally:
        if compiled is not None:
            compiled.release()


def predict(model: Module, x: np.ndarray) -> np.ndarray:
    """Inference without building the autograd graph.

    float32 inputs are fed through as-is (no upcast copy), matching the
    serving path's dtype-preserving contract.
    """
    with no_grad():
        out = model(Tensor(_as_float_array(x)))
    return out.data
