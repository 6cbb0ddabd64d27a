"""Neural-network layers for surrogate models and autoencoders.

Layers follow a ``Module`` protocol: ``forward`` consumes and produces
:class:`~repro.nn.tensor.Tensor`, ``parameters()`` yields trainable tensors,
``flops(batch)`` returns the inference cost used by the NAS objective
``f_c`` and the device models.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from . import init as initializers
from .tensor import Tensor

__all__ = [
    "Module",
    "Dense",
    "Activation",
    "Residual",
    "Sequential",
    "ACTIVATIONS",
]

ACTIVATIONS = ("relu", "tanh", "sigmoid", "leaky_relu", "identity")


class Module:
    """Base class for all layers and containers."""

    def forward(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x):
        return self.forward(x)

    def parameters(self) -> Iterator[Tensor]:
        """Yield all trainable tensors (depth first)."""
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def flops(self, batch: int = 1) -> int:
        """Floating-point operations for one forward pass of ``batch`` rows."""
        return 0

    def output_dim(self, input_dim: int) -> int:
        """Output feature dimension given an input feature dimension."""
        return input_dim

    def trace_spec(self) -> Optional[tuple]:
        """Declarative forward description for the plan compiler.

        The compiler (:mod:`repro.compile`) partially evaluates a module
        tree into a flat execution plan by consuming these specs instead
        of importing layer classes — the nn layer stays the single owner
        of its forward semantics, and a layer that returns ``None`` is
        simply untraceable (the serving path falls back to interpreting
        it).  Spec forms::

            ("dense", weight_ndarray, bias_ndarray)   # y = x @ W + b
            ("activation", kind)                      # elementwise by name
            ("residual", inner_module)                # y = inner(x) + x
            ("sequential", [module, ...])             # composition
            ("conv1d", weight, bias)                  # (K, C_in, C_out) taps
            ("pool1d", "max"|"avg", pool_size)        # non-overlapping pooling
            ("upsample1d", factor)                    # nearest-neighbour repeat
            ("signal_view", channels)                 # (B,F) -> (B,C,F//C)
            ("flatten",)                              # (B,C,...) -> (B,prod)
        """
        return None


class Dense(Module):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        activation_hint: str = "relu",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        if activation_hint == "relu":
            weight = initializers.he_normal(in_features, out_features, rng)
        else:
            weight = initializers.glorot_uniform(in_features, out_features, rng)
        self.weight = Tensor(weight, requires_grad=True, name="weight")
        self.bias = Tensor(np.zeros(out_features), requires_grad=True, name="bias")

    def forward(self, x: Tensor) -> Tensor:
        # accepts a single row (F,) or a stacked batch (B, F)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected {self.in_features} input features, "
                f"got input of shape {x.shape}"
            )
        return x @ self.weight + self.bias

    def flops(self, batch: int = 1) -> int:
        # multiply-add per weight plus the bias add
        return batch * (2 * self.in_features * self.out_features + self.out_features)

    def output_dim(self, input_dim: int) -> int:
        if input_dim != self.in_features:
            raise ValueError(
                f"Dense expected {self.in_features} input features, got {input_dim}"
            )
        return self.out_features

    def trace_spec(self) -> tuple:
        return ("dense", self.weight.data, self.bias.data)


class Activation(Module):
    """Element-wise nonlinearity selected by name."""

    def __init__(self, kind: str) -> None:
        if kind not in ACTIVATIONS:
            raise ValueError(f"unknown activation {kind!r}; choose from {ACTIVATIONS}")
        self.kind = kind
        self._dim = 0

    def forward(self, x: Tensor) -> Tensor:
        self._dim = x.shape[-1] if x.ndim else 1
        if self.kind == "relu":
            return x.relu()
        if self.kind == "tanh":
            return x.tanh()
        if self.kind == "sigmoid":
            return x.sigmoid()
        if self.kind == "leaky_relu":
            return x.leaky_relu()
        return x

    def flops(self, batch: int = 1) -> int:
        if self.kind == "identity":
            return 0
        return batch * self._dim if self._dim else 0

    def trace_spec(self) -> tuple:
        return ("activation", self.kind)


class Residual(Module):
    """Residual connection around an inner module (same in/out width).

    The paper's search space θ includes "#residual connection of each layer";
    NAS candidates wrap Dense blocks in this module when the residual knob is
    on.
    """

    def __init__(self, inner: Module) -> None:
        self.inner = inner

    def forward(self, x: Tensor) -> Tensor:
        return self.inner(x) + x

    def flops(self, batch: int = 1) -> int:
        return self.inner.flops(batch) + batch  # the add

    def output_dim(self, input_dim: int) -> int:
        out = self.inner.output_dim(input_dim)
        if out != input_dim:
            raise ValueError("Residual requires matching in/out dimensions")
        return out

    def trace_spec(self) -> tuple:
        return ("residual", self.inner)


class Sequential(Module):
    """Ordered container of modules."""

    def __init__(self, layers: Sequence[Module]) -> None:
        self.layers = list(layers)

    def forward(self, x) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def parameters(self) -> Iterator[Tensor]:
        for layer in self.layers:
            yield from layer.parameters()

    def flops(self, batch: int = 1) -> int:
        return sum(layer.flops(batch) for layer in self.layers)

    def output_dim(self, input_dim: int) -> int:
        for layer in self.layers:
            input_dim = layer.output_dim(input_dim)
        return input_dim

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def trace_spec(self) -> tuple:
        return ("sequential", list(self.layers))
