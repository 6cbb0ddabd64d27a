"""Compiler-based extractor: tracing, DDDG, I/O identification, sampling.

This subpackage is the LLVM-Tracer substitute (DESIGN.md §2).  Public API::

    from repro.extract import code_region, RegionTracer, build_dddg
    from repro.extract import classify_io, acquire, Perturbation
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analysis": ["analyze_statement", "count_ops", "names_read", "names_written"],
    ".directives": ["RegionSpec", "code_region", "get_region_spec"],
    ".events": ["LoopTrace", "StmtHit", "StmtInfo", "Trace"],
    ".tracer": ["Recorder", "RegionTracer"],
    ".dddg": ["DDDG", "IOClassification", "build_dddg", "classify_io"],
    ".liveness": ["live_in", "uses_before_defs"],
    ".features": ["FeatureField", "FeatureSchema", "batch_to_csr", "build_schema"],
    ".sampling": ["Perturbation", "SampleGenerator", "perturb_value", "returned_names"],
    ".acquisition": ["AcquisitionResult", "acquire"],
    ".export": ["summarize_dddg", "to_dot", "write_dot"],
})
