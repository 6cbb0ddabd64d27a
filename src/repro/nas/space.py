"""Search spaces for the 2D neural architecture search (§5.1).

The optimization vector has two parts the paper insists on keeping apart:

* ``K`` — the tunable input dimension (feature-reduction knob), searched by
  the *outer* loop;
* ``θ`` — the surrogate topology parameters (#layers, widths, activation,
  residual connections), searched by the *inner* loop.

:class:`TopologySpace` samples, encodes (into a Euclidean vector for the
GP) and enumerates (for the grid-search baseline) topologies;
:class:`InputDimSpace` does the same for K.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..nn.mlp import Topology

__all__ = ["TopologySpace", "CNNSpace", "InputDimSpace"]


@dataclass(frozen=True)
class TopologySpace:
    """The θ half of the search space."""

    max_layers: int = 3
    width_choices: tuple[int, ...] = (8, 16, 32, 64, 128)
    activations: tuple[str, ...] = ("relu", "tanh")
    allow_residual: bool = True

    def __post_init__(self) -> None:
        if self.max_layers < 1:
            raise ValueError("max_layers must be >= 1")
        if not self.width_choices or not self.activations:
            raise ValueError("need at least one width and one activation")

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Topology:
        depth = int(rng.integers(1, self.max_layers + 1))
        hidden = tuple(int(rng.choice(self.width_choices)) for _ in range(depth))
        activation = str(rng.choice(self.activations))
        residual = bool(rng.integers(2)) if self.allow_residual else False
        return Topology(
            hidden=hidden,
            activation=activation,
            residual=residual,
        )

    # -- encoding (for the Gaussian process) ------------------------------------

    @property
    def encoded_dim(self) -> int:
        return 1 + self.max_layers + 1 + 1  # depth, widths (log2), act, residual

    def encode(self, topology: Topology) -> np.ndarray:
        """Fixed-length Euclidean embedding of a topology.

        Widths enter in log2 so the GP sees 8->16 and 64->128 as equal
        steps; unused layer slots encode as 0.
        """
        vec = np.zeros(self.encoded_dim)
        vec[0] = len(topology.hidden)
        for i, width in enumerate(topology.hidden[: self.max_layers]):
            vec[1 + i] = math.log2(width)
        vec[1 + self.max_layers] = self.activations.index(topology.activation)
        vec[2 + self.max_layers] = 1.0 if topology.residual else 0.0
        return vec

    def decode(self, vec: np.ndarray) -> Topology:
        """Nearest valid topology for an encoded vector."""
        vec = np.asarray(vec, dtype=np.float64)
        depth = int(np.clip(round(vec[0]), 1, self.max_layers))
        hidden = []
        for i in range(depth):
            target = 2 ** float(vec[1 + i]) if vec[1 + i] > 0 else self.width_choices[0]
            hidden.append(min(self.width_choices, key=lambda w: abs(w - target)))
        act_idx = int(np.clip(round(vec[1 + self.max_layers]), 0, len(self.activations) - 1))
        residual = bool(self.allow_residual and vec[2 + self.max_layers] >= 0.5)
        return Topology(
            hidden=tuple(hidden),
            activation=self.activations[act_idx],
            residual=residual,
        )

    # -- enumeration (for the grid baseline) ----------------------------------------

    def grid(self) -> Iterator[Topology]:
        """Full lattice of the space, the §7.2 grid-search baseline."""
        for depth in range(1, self.max_layers + 1):
            for hidden in itertools.product(self.width_choices, repeat=depth):
                for act in self.activations:
                    residuals = (False, True) if self.allow_residual else (False,)
                    for res in residuals:
                        yield Topology(
                            hidden=hidden,
                            activation=act,
                            residual=res,
                        )

    def size(self) -> int:
        per_depth = sum(len(self.width_choices) ** d for d in range(1, self.max_layers + 1))
        return per_depth * len(self.activations) * (2 if self.allow_residual else 1)


@dataclass(frozen=True)
class CNNSpace:
    """θ space for the convolutional surrogate family (§5.1).

    The paper's θ includes "#kernel sizes, #channel, #pooling size,
    #unpooling size" — exactly the per-layer knobs here.  ``signal_length``
    is the flat feature count the CNN consumes; sampling and decoding keep
    every pooling factor compatible with the running signal length.
    """

    signal_length: int
    max_layers: int = 2
    channel_choices: tuple[int, ...] = (2, 4, 8)
    kernel_choices: tuple[int, ...] = (3, 5)
    pool_choices: tuple[int, ...] = (1, 2)
    activations: tuple[str, ...] = ("relu", "tanh")

    def __post_init__(self) -> None:
        if self.signal_length < 2:
            raise ValueError("signal_length must be >= 2")
        if self.max_layers < 1:
            raise ValueError("max_layers must be >= 1")
        if any(k % 2 == 0 or k < 1 for k in self.kernel_choices):
            raise ValueError("kernels must be positive odd numbers")
        if any(p < 1 for p in self.pool_choices):
            raise ValueError("pool choices must be >= 1 (use build-time upsample)")

    def _legal_pool(self, length: int, pool: int) -> int:
        return pool if pool > 0 and length % pool == 0 and length // pool >= 2 else 1

    def sample(self, rng: np.random.Generator) -> "CNNTopology":
        from ..nn.cnn import CNNTopology

        depth = int(rng.integers(1, self.max_layers + 1))
        channels, kernels, pools = [], [], []
        length = self.signal_length
        for _ in range(depth):
            channels.append(int(rng.choice(self.channel_choices)))
            kernels.append(int(rng.choice(self.kernel_choices)))
            pool = self._legal_pool(length, int(rng.choice(self.pool_choices)))
            pools.append(pool)
            length //= pool
        return CNNTopology(
            channels=tuple(channels),
            kernel_sizes=tuple(kernels),
            pools=tuple(pools),
            activation=str(rng.choice(self.activations)),
        )

    @property
    def encoded_dim(self) -> int:
        return 1 + 3 * self.max_layers + 1   # depth, (ch,k,p) per layer, act

    def encode(self, topology: "CNNTopology") -> np.ndarray:
        vec = np.zeros(self.encoded_dim)
        vec[0] = topology.depth
        for i in range(topology.depth):
            vec[1 + 3 * i] = math.log2(topology.channels[i])
            vec[2 + 3 * i] = topology.kernel_sizes[i]
            vec[3 + 3 * i] = topology.pools[i]
        vec[-1] = self.activations.index(topology.activation)
        return vec

    def decode(self, vec: np.ndarray) -> "CNNTopology":
        from ..nn.cnn import CNNTopology

        vec = np.asarray(vec, dtype=np.float64)
        depth = int(np.clip(round(vec[0]), 1, self.max_layers))
        channels, kernels, pools = [], [], []
        length = self.signal_length
        for i in range(depth):
            target_c = 2 ** float(vec[1 + 3 * i]) if vec[1 + 3 * i] > 0 else 1
            channels.append(min(self.channel_choices, key=lambda c: abs(c - target_c)))
            kernels.append(
                min(self.kernel_choices, key=lambda k: abs(k - float(vec[2 + 3 * i])))
            )
            raw_pool = min(self.pool_choices, key=lambda p: abs(p - float(vec[3 + 3 * i])))
            pool = self._legal_pool(length, raw_pool)
            pools.append(pool)
            length //= pool
        act_idx = int(np.clip(round(vec[-1]), 0, len(self.activations) - 1))
        return CNNTopology(
            channels=tuple(channels),
            kernel_sizes=tuple(kernels),
            pools=tuple(pools),
            activation=self.activations[act_idx],
        )

    def grid(self) -> Iterator["CNNTopology"]:
        """Full lattice of legal single-pass topologies (grid baseline)."""
        from ..nn.cnn import CNNTopology

        for depth in range(1, self.max_layers + 1):
            for combo in itertools.product(
                itertools.product(self.channel_choices, self.kernel_choices, self.pool_choices),
                repeat=depth,
            ):
                length = self.signal_length
                channels, kernels, pools = [], [], []
                legal = True
                for c, k, p in combo:
                    pool = self._legal_pool(length, p)
                    if pool != p:
                        legal = False
                        break
                    channels.append(c)
                    kernels.append(k)
                    pools.append(pool)
                    length //= pool
                if not legal:
                    continue
                for act in self.activations:
                    yield CNNTopology(
                        channels=tuple(channels),
                        kernel_sizes=tuple(kernels),
                        pools=tuple(pools),
                        activation=act,
                    )


@dataclass(frozen=True)
class InputDimSpace:
    """The K half of the search space: candidate reduced input dimensions."""

    choices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.choices or any(k < 1 for k in self.choices):
            raise ValueError("input-dimension choices must be positive")
        object.__setattr__(self, "choices", tuple(sorted(set(int(k) for k in self.choices))))

    @classmethod
    def geometric(cls, input_dim: int, levels: int = 4, min_dim: int = 2) -> "InputDimSpace":
        """K choices shrinking geometrically from the raw input dimension."""
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        min_dim = min(min_dim, input_dim)
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if levels == 1 or input_dim == min_dim:
            return cls(choices=(min(input_dim, max(min_dim, input_dim // 2)),))
        ratio = (min_dim / input_dim) ** (1.0 / (levels - 1))
        ks = sorted({max(min_dim, int(round(input_dim * ratio**i))) for i in range(levels)})
        return cls(choices=tuple(ks))

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.choices))

    def encode(self, k: int) -> np.ndarray:
        return np.array([math.log2(max(k, 1))])

    def decode(self, vec: np.ndarray) -> int:
        target = 2 ** float(np.asarray(vec).ravel()[0])
        return min(self.choices, key=lambda k: abs(k - target))
