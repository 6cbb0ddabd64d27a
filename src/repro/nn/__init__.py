"""Minimal DNN framework: autograd tensors, layers, training, checkpointing.

This subpackage is the substitute for TensorFlow/PyTorch in the Auto-HPCnet
reproduction (see DESIGN.md §2).  Public API::

    from repro.nn import Tensor, no_grad
    from repro.nn import Dense, Activation, Sequential
    from repro.nn import Topology, build_mlp
    from repro.nn import TrainConfig, train_model, predict
    from repro.nn import checkpoint, CheckpointSequential

A trained network is saved and loaded through the codecs in
:mod:`repro.registry.formats`.  Each submodule loads on first use: a
serving process builds and runs MLPs without the training stack.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".tensor": [
        "Tensor", "batch_invariant", "concat", "is_batch_invariant",
        "no_grad", "tensor", "zeros", "ones",
    ],
    ".layers": [
        "ACTIVATIONS", "Activation", "Dense", "Module", "Residual", "Sequential",
    ],
    ".losses": ["huber_loss", "mae_loss", "mse_loss", "relative_l2"],
    ".optim": ["Adam", "Optimizer", "SGD"],
    ".mlp": ["Topology", "build_mlp"],
    ".conv": ["AvgPool1d", "Conv1d", "Flatten", "MaxPool1d", "SignalView", "Upsample1d"],
    ".cnn": ["AnyTopology", "CNNTopology", "build_cnn", "build_model"],
    ".train": ["TrainConfig", "TrainResult", "predict", "train_model"],
    ".checkpoint": ["CheckpointSequential", "activation_bytes", "checkpoint"],
})
