"""2D neural architecture search (paper §5) and the deployable surrogate."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".space": ["CNNSpace", "InputDimSpace", "TopologySpace"],
    ".package": ["SurrogatePackage"],
    ".cache": ["AutoencoderCache", "CachedEncoding", "fingerprint_array"],
    ".evaluation": ["CandidateResult", "evaluate_topology", "validation_quality"],
    ".inner": ["InnerSearchResult", "TopologySearch"],
    ".hierarchical": [
        "Hierarchical2DSearch", "OuterObservation", "SearchConfig", "SearchResult",
    ],
})
