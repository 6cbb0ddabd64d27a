"""Minimal DNN framework: autograd tensors, layers, training, checkpointing.

This subpackage is the substitute for TensorFlow/PyTorch in the Auto-HPCnet
reproduction (see DESIGN.md §2).  Public API::

    from repro.nn import Tensor, no_grad
    from repro.nn import Dense, Activation, Sequential
    from repro.nn import Topology, build_mlp
    from repro.nn import TrainConfig, train_model, predict
    from repro.nn import checkpoint, CheckpointSequential

A trained network is saved and loaded through the codecs in
:mod:`repro.registry.formats`.
"""

from .tensor import (
    Tensor,
    batch_invariant,
    concat,
    is_batch_invariant,
    no_grad,
    tensor,
    zeros,
    ones,
)
from .layers import (
    ACTIVATIONS,
    Activation,
    Dense,
    Module,
    Residual,
    Sequential,
)
from .losses import huber_loss, mae_loss, mse_loss, relative_l2
from .optim import Adam, Optimizer, SGD
from .mlp import Topology, build_mlp
from .conv import AvgPool1d, Conv1d, Flatten, MaxPool1d, SignalView, Upsample1d
from .cnn import AnyTopology, CNNTopology, build_cnn, build_model
from .train import TrainConfig, TrainResult, predict, train_model
from .checkpoint import CheckpointSequential, activation_bytes, checkpoint

__all__ = [
    "Tensor", "batch_invariant", "concat", "is_batch_invariant",
    "no_grad", "tensor", "zeros", "ones",
    "ACTIVATIONS", "Activation", "Dense", "Module", "Residual",
    "Sequential",
    "huber_loss", "mae_loss", "mse_loss", "relative_l2",
    "Adam", "Optimizer", "SGD",
    "Topology", "build_mlp",
    "AvgPool1d", "Conv1d", "Flatten", "MaxPool1d", "SignalView", "Upsample1d",
    "AnyTopology", "CNNTopology", "build_cnn", "build_model",
    "TrainConfig", "TrainResult", "predict", "train_model",
    "CheckpointSequential", "activation_bytes", "checkpoint",
]
