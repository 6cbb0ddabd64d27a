"""Gradient checkpointing (Chen et al. [12], used by Auto-HPCnet §4.2).

During autoencoder training on unrolled sparse inputs, storing every
activation for backward exhausts (GPU) memory.  Checkpointing stores only
segment-boundary activations at forward time and *recomputes* the segment
interior during backward — trading compute for memory exactly as the paper
describes.

``checkpoint`` wraps one module call; ``CheckpointSequential`` splits a
Sequential into segments and exposes activation-memory estimates so the
trade-off can be measured (see ``benchmarks/test_ablation_checkpointing.py``).
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .layers import Module, Sequential
from .tensor import Tensor, no_grad

__all__ = ["checkpoint", "CheckpointSequential", "activation_bytes"]


def checkpoint(module: Module, x: Union[Tensor, np.ndarray]) -> Tensor:
    """Run ``module(x)`` without storing interior activations.

    The forward pass executes under :func:`no_grad`, so only the output
    survives.  The backward closure re-executes the module with gradients
    enabled and backpropagates through the recomputed graph, accumulating
    into the module's parameters (and ``x`` when it requires grad).
    """
    with no_grad():
        out_data = np.array(module(x).data, copy=True)

    parents = tuple(module.parameters())
    if isinstance(x, Tensor) and x.requires_grad:
        parents = parents + (x,)
    if not parents:
        return Tensor(out_data)

    def backward(out: Tensor) -> None:
        if isinstance(x, Tensor):
            x_re: Union[Tensor, np.ndarray] = Tensor(x.data, requires_grad=x.requires_grad)
        else:
            x_re = x
        re_out = module(x_re)
        re_out.backward(out.grad)
        if isinstance(x, Tensor) and x.requires_grad and isinstance(x_re, Tensor):
            if x_re.grad is not None:
                x._accumulate(x_re.grad)

    return Tensor._from_op(out_data, parents, backward)


class CheckpointSequential(Module):
    """A Sequential executed in checkpointed segments.

    ``segments`` controls the memory/compute trade: more segments means more
    boundary activations kept but shorter recompute spans.  With
    ``segments == len(layers)`` this degenerates to a normal Sequential.
    """

    def __init__(self, inner: Sequential, segments: int = 2) -> None:
        if segments < 1:
            raise ValueError("segments must be >= 1")
        self.inner = inner
        self.segments = min(segments, max(len(inner), 1))
        self._chunks = self._split()

    def _split(self) -> list[Sequential]:
        layers = list(self.inner)
        if not layers:
            return []
        per = math.ceil(len(layers) / self.segments)
        return [Sequential(layers[i : i + per]) for i in range(0, len(layers), per)]

    def forward(self, x):
        for chunk in self._chunks:
            x = checkpoint(chunk, x)
        return x

    def parameters(self):
        return self.inner.parameters()

    def flops(self, batch: int = 1) -> int:
        # forward + full recompute during backward ~ 2x forward cost
        return 2 * self.inner.flops(batch)

    def output_dim(self, input_dim: int) -> int:
        return self.inner.output_dim(input_dim)


def activation_bytes(
    model: Sequential,
    input_dim: int,
    batch: int,
    *,
    checkpoint_segments: int = 0,
) -> int:
    """Estimated peak activation memory for training one batch.

    Without checkpointing every layer output is retained for backward.  With
    ``checkpoint_segments`` > 0 only segment-boundary outputs are retained
    plus the interior of the largest segment (recomputed one at a time).
    """
    dims: list[int] = []
    d = input_dim
    for layer in model:
        d = layer.output_dim(d)
        dims.append(d)
    itemsize = 8  # float64
    if checkpoint_segments <= 0:
        return batch * itemsize * (input_dim + sum(dims))

    per = math.ceil(len(dims) / checkpoint_segments)
    boundaries = dims[per - 1 :: per]
    if not boundaries or boundaries[-1] != dims[-1]:
        boundaries.append(dims[-1])
    segment_interiors = [
        sum(dims[i : i + per]) for i in range(0, len(dims), per)
    ]
    peak_interior = max(segment_interiors) if segment_interiors else 0
    return batch * itemsize * (input_dim + sum(boundaries) + peak_interior)
