"""MLP surrogate construction from a topology description.

The NAS layer (§5) manipulates surrogate topologies as plain data — a
:class:`Topology` — and materializes them here.  ``initModel=MLP`` is the
paper's default surrogate type (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .layers import ACTIVATIONS, Activation, Dense, Module, Residual, Sequential

__all__ = ["Topology", "build_mlp"]


@dataclass(frozen=True)
class Topology:
    """Surrogate topology parameters θ (a point of the NAS search space).

    ``hidden`` lists neuron counts per hidden layer; ``activation`` is
    shared; ``residual`` adds skip connections around hidden layers of equal
    width (the paper's "#residual connection" knob).
    """

    hidden: tuple[int, ...]
    activation: str = "relu"
    residual: bool = False

    def __post_init__(self) -> None:
        if not all(isinstance(h, (int, np.integer)) and h > 0 for h in self.hidden):
            raise ValueError(f"hidden sizes must be positive ints, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def depth(self) -> int:
        return len(self.hidden)

    def describe(self) -> str:
        res = "+res" if self.residual else ""
        return f"mlp[{'x'.join(map(str, self.hidden))}]({self.activation}){res}"


def build_mlp(
    in_features: int,
    out_features: int,
    topology: Topology,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """Materialize an MLP for ``topology`` with seeded initialization."""
    rng = rng or np.random.default_rng(0)
    layers: list[Module] = []
    prev = int(in_features)
    for i, width in enumerate(topology.hidden):
        if topology.residual and width == prev and i > 0:
            block = Sequential(
                [Dense(prev, width, rng, activation_hint=topology.activation),
                 Activation(topology.activation)]
            )
            layers.append(Residual(block))
            prev = width
            continue
        else:
            layers.append(
                Dense(prev, width, rng, activation_hint=topology.activation)
            )
        layers.append(Activation(topology.activation))
        prev = width
    layers.append(Dense(prev, int(out_features), rng, activation_hint="identity"))
    return Sequential(layers)
