"""repro — a from-scratch reproduction of Auto-HPCnet (HPDC '23).

Auto-HPCnet is an end-to-end framework that replaces annotated code regions
of HPC applications with automatically-constructed neural-network
surrogates.  This package rebuilds the full system in NumPy: the
compiler-based extractor, sparse-matrix substrate, customized autoencoder,
hierarchical 2D neural-architecture search, serving runtime and the 11
evaluation applications.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    import numpy as np
    from repro import AutoHPCnet, AutoHPCnetConfig
    from repro.apps import BlackscholesApplication
    from repro.core import evaluate_surrogate

    app = BlackscholesApplication()
    framework = AutoHPCnet(AutoHPCnetConfig(quality_loss=0.10))
    build = framework.build(app)
    row = evaluate_surrogate(build.surrogate, n_problems=50)
    print(row.format())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# the offline build loads on first use: importing any submodule (a
# serving worker's ``repro.runtime``) runs this file first
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.config": ["AutoHPCnetConfig"],
    ".core.pipeline": ["AutoHPCnet", "BuildResult", "DeployedSurrogate"],
    ".core.evaluation": ["EvaluationRow", "evaluate_surrogate"],
})
__all__.append("__version__")
