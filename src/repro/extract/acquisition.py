"""End-to-end data acquisition: trace -> DDDG -> I/O -> training samples.

This is the "Compiler-based Extractor" box of Fig. 1: one call takes an
annotated region and a concrete example input and returns everything the
downstream search needs — the identified input/output features, their
schemas, and a perturbation-generated training set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .dddg import DDDG, IOClassification, build_dddg, classify_io
from .directives import get_region_spec, name_outputs
from .events import Trace
from .features import FeatureSchema, build_schema
from .sampling import Perturbation, SampleGenerator
from .tracer import RegionTracer

__all__ = ["AcquisitionResult", "acquire"]


@dataclass
class AcquisitionResult:
    """Everything the extractor learned about one region."""

    region_name: str
    io: IOClassification
    input_schema: FeatureSchema
    output_schema: FeatureSchema
    x: np.ndarray          # (n_samples, input_dim)
    y: np.ndarray          # (n_samples, output_dim)
    trace: Trace
    dddg: DDDG

    @property
    def input_dim(self) -> int:
        return self.input_schema.total_size

    @property
    def output_dim(self) -> int:
        return self.output_schema.total_size

    def gathered(self) -> "AcquisitionResult":
        """This result with each sparse input field cut to its live
        positions: the scaler, the search and the surrogate then see only
        the columns some training sample filled (§4.2)."""
        schema, columns = self.input_schema.gathered(self.x)
        return replace(self, input_schema=schema, x=self.x[:, columns])

    def summary(self) -> str:
        return (
            f"region {self.region_name!r}: "
            f"inputs={list(self.io.inputs)} ({self.input_dim} features), "
            f"outputs={list(self.io.outputs)} ({self.output_dim} features), "
            f"{self.x.shape[0]} samples, "
            f"trace {self.trace.stored_length()} stored / "
            f"{self.trace.dynamic_length()} dynamic stmts "
            f"({self.trace.compression_ratio():.1f}x compression)"
        )


def acquire(
    region_fn,
    example_inputs: Mapping[str, Any],
    *,
    n_samples: int = 200,
    perturbation: Perturbation = Perturbation(),
    rng: np.random.Generator | None = None,
    dddg_workers: int = 1,
    perturb_names: Sequence[str] | None = None,
    sample_workers: int = 1,
) -> AcquisitionResult:
    """Run the full §3 workflow on one annotated region.

    1. trace the region on ``example_inputs`` (loop-compressed);
    2. build the DDDG (optionally in parallel);
    3. classify inputs/outputs using the region's live-after set
       (:attr:`RegionSpec.live`);
    4. build feature schemas (arrays grouped);
    5. generate ``n_samples`` training pairs by input perturbation.

    By default only array/sparse-valued inputs are perturbed: randomizing
    scalar knobs (iteration counts, tolerances) would change the region's
    execution path, and §3.2 requires one surrogate per execution-path
    distribution.  Pass ``perturb_names`` to override.
    """
    spec = get_region_spec(region_fn)
    rng = rng or np.random.default_rng(0)

    tracer = RegionTracer(region_fn)
    result, trace = tracer.trace(**example_inputs)
    dddg = build_dddg(trace, workers=dddg_workers)

    io = classify_io(dddg, example_inputs, spec.live)
    if not io.inputs:
        raise ValueError(f"region {spec.name!r}: no input variables identified")
    if not io.outputs:
        raise ValueError(f"region {spec.name!r}: no output variables identified")

    input_schema = build_schema(io.inputs, example_inputs)

    # build the output schema from the traced run of the region
    out_names = spec.returns or io.outputs
    ordered_outputs = tuple(n for n in out_names if n in io.outputs) or io.outputs
    example_outputs = name_outputs(result, out_names)
    output_schema = build_schema(ordered_outputs, example_outputs)

    generator = SampleGenerator(
        region_fn,
        input_schema,
        output_schema,
        output_names=out_names,
    )
    if perturb_names is None:
        perturb_names = tuple(
            f.name
            for f in input_schema.fields
            if f.is_sparse or len(f.shape) >= 1
        ) or input_schema.names
    if sample_workers > 1:
        # the N region executions are independent (§6.1's "run the
        # application N times"); fan them out over SPMD ranks
        from ..parallel.pool import parallel_samples

        x, y = parallel_samples(
            generator,
            example_inputs,
            n_samples,
            perturbation=perturbation,
            rng=rng,
            perturb_names=perturb_names,
            workers=sample_workers,
        )
    else:
        x, y = generator.generate(
            example_inputs,
            n_samples,
            perturbation=perturbation,
            rng=rng,
            perturb_names=perturb_names,
        )

    return AcquisitionResult(
        region_name=spec.name,
        io=io,
        input_schema=input_schema,
        output_schema=output_schema,
        x=x,
        y=y,
        trace=trace,
        dddg=dddg,
    )
