"""Auto-HPCnet core: configuration, end-to-end pipeline, evaluation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".config": ["AutoHPCnetConfig"],
    ".scaling": ["Scaler"],
    ".pipeline": ["AutoHPCnet", "BuildResult", "DeployedSurrogate"],
    ".evaluation": ["EvaluationRow", "ProblemSet", "evaluate_surrogate"],
    ".reports": ["format_build_report", "format_evaluation_table", "format_phase_table"],
})
