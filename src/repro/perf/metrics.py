"""Evaluation metrics: speedup (Eqn 2), HitRate (Eqn 3), σ_y (Eqn 1).

These are the exact formulas of the paper, kept in one module so the
benchmarks, the NAS quality constraint and the tests all share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "speedup",
    "SpeedupBreakdown",
    "hit_rate",
    "reconstruction_similarity",
    "effective_speedup",
    "harmonic_mean",
    "qoi_hits",
]


@dataclass(frozen=True)
class SpeedupBreakdown:
    """The four timing terms of Eqn 2."""

    t_numerical_solver: float   # original region time inside the whole app
    t_nn_infer: float           # surrogate inference time
    t_data_load: float          # host->device (and back) transfer time
    t_other: float              # time of the un-replaced rest of the app

    def __post_init__(self) -> None:
        for name, value in (
            ("t_numerical_solver", self.t_numerical_solver),
            ("t_nn_infer", self.t_nn_infer),
            ("t_data_load", self.t_data_load),
            ("t_other", self.t_other),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def t_original(self) -> float:
        """Whole-application time with the original numerical solver."""
        return self.t_numerical_solver + self.t_other

    @property
    def t_surrogate(self) -> float:
        """Whole-application time with the NN surrogate."""
        return self.t_nn_infer + self.t_data_load + self.t_other

    @property
    def value(self) -> float:
        return speedup(
            self.t_numerical_solver, self.t_nn_infer, self.t_data_load, self.t_other
        )


def speedup(
    t_numerical_solver: float,
    t_nn_infer: float,
    t_data_load: float,
    t_other: float,
) -> float:
    """Whole-application speedup, Eqn 2:

    ``(T_solver + T_other) / (T_nn_infer + T_data_load + T_other)``.

    The paper's numerator is written as ``T_Numerical_solver`` but §7.1
    states the speedup is for the *whole application*, so the un-replaced
    part appears on both sides.
    """
    denom = t_nn_infer + t_data_load + t_other
    if denom <= 0:
        raise ValueError("surrogate-side time must be positive")
    return (t_numerical_solver + t_other) / denom


def qoi_hits(
    qoi_exact: Sequence[float] | np.ndarray,
    qoi_approx: Sequence[float] | np.ndarray,
    mu: float = 0.10,
) -> np.ndarray:
    """Eqn 3's per-problem test, the one definition of "meets mu".

    Problem ``i`` is a hit when its approximate QoI ``V'`` satisfies
    ``|V' - V| <= mu * |V|`` against the exact QoI ``V``.  Every comparison
    with NaN is false, so a NaN ``V'`` (or ``V``) is a miss; so is an
    infinite ``V``, whose tolerance ``mu * |V|`` bounds nothing.  An exact
    QoI of 0 leaves no tolerance: only ``V' == 0`` hits.
    """
    exact = np.asarray(qoi_exact, dtype=np.float64)
    approx = np.asarray(qoi_approx, dtype=np.float64)
    if exact.shape != approx.shape:
        raise ValueError("QoI arrays must have matching shapes")
    if exact.size == 0:
        raise ValueError("need at least one input problem")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    with np.errstate(invalid="ignore"):     # inf - inf is NaN: a miss
        return np.isfinite(exact) & (np.abs(approx - exact) <= mu * np.abs(exact))


def hit_rate(
    qoi_exact: Sequence[float] | np.ndarray,
    qoi_surrogate: Sequence[float] | np.ndarray,
    mu: float = 0.10,
) -> float:
    """Prediction hit rate, Eqn 3: the fraction of :func:`qoi_hits`."""
    return float(np.mean(qoi_hits(qoi_exact, qoi_surrogate, mu)))


def reconstruction_similarity(
    original: np.ndarray,
    reconstructed: np.ndarray,
    mu: float = 0.10,
    atol: float | None = None,
) -> float:
    """Encoding-quality metric σ_y of Eqn 1.

    Element-wise fraction of entries whose reconstruction error *exceeds*
    the feasible range ``mu * |x_i|`` — i.e. 0.0 is a perfect encoding and
    1.0 means every element is out of range.  The autoencoder training stops
    only when σ_y is below the user's ``encodingLoss`` bound.

    Eqn 1's purely relative tolerance makes every exactly-zero element of a
    sparse matrix unreconstructable (``mu * 0 = 0``), so like any practical
    implementation we admit an absolute floor: an element is in range when
    ``|y_i - x_i| <= max(mu * |x_i|, atol)``.  ``atol`` defaults to
    ``mu`` x the RMS magnitude of the nonzero elements — zero elements must
    be reconstructed to well below the data's working scale.  Pass
    ``atol=0.0`` for the literal Eqn 1.
    """
    x = np.asarray(original, dtype=np.float64).ravel()
    y = np.asarray(reconstructed, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("original and reconstruction must have matching sizes")
    if x.size == 0:
        raise ValueError("empty matrices")
    if atol is None:
        nonzero = np.abs(x[x != 0])
        scale = np.sqrt(np.mean(nonzero**2)) if nonzero.size else 1.0
        atol = mu * scale
    tolerance = np.maximum(mu * np.abs(x), atol)
    out_of_range = np.abs(y - x) > tolerance
    return float(np.mean(out_of_range))


def effective_speedup(breakdown: SpeedupBreakdown, hit: float) -> float:
    """Speedup with the paper's restart semantics folded in (§7.1).

    When a surrogate run fails the quality requirement the application must
    restart and run the original code, so a fraction ``1 - hit`` of the
    problems pay the surrogate time *plus* the original time.  This is what
    Fig. 6 means by "we ensure that the final computation quality meets the
    pre-determined requirement": low-quality methods keep their speedup only
    on the problems they get right.
    """
    if not 0.0 <= hit <= 1.0:
        raise ValueError("hit rate must be in [0, 1]")
    surrogate_side = breakdown.t_surrogate + (1.0 - hit) * breakdown.t_original
    return breakdown.t_original / surrogate_side


def harmonic_mean(values: Sequence[float] | np.ndarray) -> float:
    """Harmonic mean, used by the paper for the 5.50x headline speedup."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("harmonic mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("harmonic mean requires positive values")
    return float(arr.size / np.sum(1.0 / arr))
