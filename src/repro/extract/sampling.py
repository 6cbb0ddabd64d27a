"""Training-sample generation by input perturbation (§3.1, Step 3).

When the user cannot supply enough distinct input problems, Auto-HPCnet
perturbs the identified input variables following a user-chosen distribution
(Gaussian by default: ``X' ~ N(mu, sigma^2)`` around the base value) and
re-runs the region to collect ground-truth outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..sparse import COOMatrix, CSCMatrix, CSRMatrix
from .directives import get_region_spec, name_outputs
from .features import FeatureSchema

__all__ = ["Perturbation", "perturb_value", "SampleGenerator"]

_SPARSE_TYPES = (COOMatrix, CSRMatrix, CSCMatrix)


@dataclass(frozen=True)
class Perturbation:
    """Distribution used to randomize input variables.

    ``kind`` is "gaussian" (additive, scaled by |value|), "uniform"
    (multiplicative in [1-scale, 1+scale]) or "scale" (one global random
    factor per sample).  ``scale`` is the paper's sigma / range knob.
    """

    kind: str = "gaussian"
    scale: float = 0.1
    mean: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "uniform", "scale"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")


def _perturb_array(arr: np.ndarray, p: Perturbation, rng: np.random.Generator) -> np.ndarray:
    magnitude = np.abs(arr) + (np.abs(arr).mean() if arr.size else 1.0) * 0.1 + 1e-12
    if p.kind == "gaussian":
        return arr + p.mean + p.scale * magnitude * rng.standard_normal(arr.shape)
    if p.kind == "uniform":
        return arr * rng.uniform(1.0 - p.scale, 1.0 + p.scale, size=arr.shape)
    factor = 1.0 + p.scale * rng.standard_normal()
    return arr * factor


def perturb_value(value: Any, p: Perturbation, rng: np.random.Generator) -> Any:
    """Perturb one input variable, preserving its type and sparsity pattern.

    Sparse matrices keep their structure — only stored values change — which
    matches the paper's assumption that an NN model serves inputs drawn from
    one distribution (same execution path, §3.2).
    """
    if isinstance(value, _SPARSE_TYPES):
        new_data = _perturb_array(np.asarray(value.data), p, rng)
        if isinstance(value, CSRMatrix):
            return CSRMatrix(value.indptr, value.indices, new_data, value.shape)
        if isinstance(value, CSCMatrix):
            return CSCMatrix(value.indptr, value.indices, new_data, value.shape)
        return COOMatrix(value.row, value.col, new_data, value.shape)
    if isinstance(value, np.ndarray):
        return _perturb_array(value.astype(np.float64), p, rng)
    if isinstance(value, bool):
        raise TypeError("cannot perturb a boolean input")
    if isinstance(value, (int, np.integer)):
        # integer knobs (iteration counts, sizes) keep their type; changing
        # them would change the execution path, which §3.2 forbids for one
        # surrogate, so we only jitter and round
        jittered = _perturb_array(np.asarray([float(value)]), p, rng)[0]
        return max(0, int(round(jittered)))
    if isinstance(value, (float, np.generic)):
        return float(_perturb_array(np.asarray([float(value)]), p, rng)[0])
    raise TypeError(f"cannot perturb value of type {type(value).__name__}")


class SampleGenerator:
    """Runs the region repeatedly on perturbed inputs to build (X, Y)."""

    def __init__(
        self,
        region_fn: Callable,
        input_schema: FeatureSchema,
        output_schema: FeatureSchema,
        *,
        output_names: Sequence[str] | None = None,
    ) -> None:
        self.region_fn = region_fn
        self.input_schema = input_schema
        self.output_schema = output_schema
        self.output_names = tuple(
            output_names or get_region_spec(region_fn).returns
        )

    def run_once(self, inputs: Mapping[str, Any]) -> tuple[np.ndarray, np.ndarray]:
        """One (input-vector, output-vector) pair from a concrete input."""
        out = name_outputs(self.region_fn(**inputs), self.output_names)
        x = self.input_schema.flatten(inputs)
        y = self.output_schema.flatten(out)
        return x, y

    def generate(
        self,
        base_inputs: Mapping[str, Any],
        n_samples: int,
        *,
        perturbation: Perturbation = Perturbation(),
        rng: np.random.Generator | None = None,
        perturb_names: Sequence[str] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``n_samples`` training pairs by perturbing inputs.

        ``perturb_names`` restricts which inputs are randomized (defaults to
        every field of the input schema); the remaining base inputs (e.g.
        tolerances) are passed through unchanged.
        """
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        rng = rng or np.random.default_rng(0)
        targets = tuple(perturb_names or self.input_schema.names)
        xs = np.empty((n_samples, self.input_schema.total_size))
        ys = np.empty((n_samples, self.output_schema.total_size))
        for i in range(n_samples):
            sample_inputs = dict(base_inputs)
            for name in targets:
                sample_inputs[name] = perturb_value(sample_inputs[name], perturbation, rng)
            xs[i], ys[i] = self.run_once(sample_inputs)
        return xs, ys
