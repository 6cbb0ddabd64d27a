"""Versioned model-artifact registry: the one persistence layer (§6.1).

Public API::

    from repro.registry import ModelRegistry

    reg = ModelRegistry("artifacts/")
    ref = package.publish(reg, "Blackscholes", metrics={"f_e": 0.02})
    reg.resolve("Blackscholes").describe()
    reg.verify("Blackscholes")          # SHA-256 every payload
    reg.gc(keep=2)                      # prune old versions + stale tmp dirs

Each artifact kind has one writer and one reader, both over the payload
codecs in :mod:`repro.registry.formats`: a surrogate package through
:class:`~repro.nas.package.SurrogatePackage`, an autoencoder cache entry
through :class:`~repro.nas.cache.AutoencoderCache`, a compiled plan
through :class:`~repro.compile.cache.PlanCache`.  The ``repro registry``
CLI is :mod:`repro.registry.cli`.  Importing this package loads neither
the codecs nor :mod:`repro.nn`.
"""

from .store import (
    MANIFEST_NAME,
    SCHEMA_VERSION,
    ArtifactNotFoundError,
    ArtifactRef,
    IntegrityError,
    ModelRegistry,
    RegistryError,
    VerifyResult,
    atomic_directory,
    file_digest,
    read_manifest,
    verify_directory,
    write_manifest,
)

__all__ = [
    "MANIFEST_NAME",
    "SCHEMA_VERSION",
    "ArtifactNotFoundError",
    "ArtifactRef",
    "IntegrityError",
    "ModelRegistry",
    "RegistryError",
    "VerifyResult",
    "atomic_directory",
    "file_digest",
    "read_manifest",
    "verify_directory",
    "write_manifest",
]
