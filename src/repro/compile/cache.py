"""Two-tier persistent compilation cache for serving plans.

A compiled plan is a pure function of ``(package bytes, specialization
key)`` — the same shape of problem the NAS autoencoder cache already
solves for trained artifacts, so this cache follows the identical
pattern: an in-process dict for hot lookups plus an optional on-disk
tier under ``<dir>/plan_cache/`` backed by a
:class:`~repro.registry.ModelRegistry` of ``compiled-plan`` artifacts::

    plan_cache/<key>/v0001/{manifest.json, plan.npz}

Keys come from :mod:`repro.core.digest`: the registry artifact digest of
the package (or a content digest computed from its parameters when the
package never touched a registry), folded with the input shape, dtype,
``batch_invariant`` flag and the plan schema version.  Consequences:

* plans survive restarts — a warm disk tier means **zero** trace/compile
  work across process boundaries;
* ``deploy``/``rollback`` invalidation is free — a different package
  digest is simply a different key, and stale entries are never
  consulted;
* a kill mid-write can never poison the cache — entries publish through
  the registry's atomic temp-dir + rename protocol.

The registry loads with the disk tier: a cache without a directory (a
serving process that keeps its plans in memory) never imports it.

Hits and misses are counted as ``repro_compile_cache_hits_total`` /
``repro_compile_cache_misses_total`` (labelled by tier) in
:mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional, Union

from .. import obs
from ..core.digest import content_key, fingerprint_array
from .plan import (
    PLAN_SCHEMA_VERSION,
    CompiledPlan,
    compile_package,
    plan_from_payload,
    plan_payload,
)

__all__ = [
    "KIND_PLAN",
    "PlanCache",
    "package_digest",
    "plan_key",
    "warm_plan_cache",
]

#: registry kind of one disk-tier entry
KIND_PLAN = "compiled-plan"


def package_digest(package) -> str:
    """Content digest of a package that never saw a registry.

    Prefer the registry artifact's manifest digest when one exists (the
    orchestrator carries it through ``register_model(digest=...)``); this
    fallback hashes the same information — every parameter and scaler
    array plus the structural metadata — so in-memory and registry-loaded
    copies of one package land on equivalent keys.
    """
    fields = {
        "meta": package.payload_meta(),
        "params": [fingerprint_array(p.data) for p in package.model.parameters()],
    }
    if package.autoencoder is not None:
        fields["encoder_params"] = [
            fingerprint_array(p.data)
            for p in package.autoencoder.encoder.parameters()
        ]
    fields.update(package.scaler_fingerprints())
    return content_key(fields)



def plan_key(
    digest: str,
    *,
    input_shape,
    dtype: str,
    batch_invariant: bool,
) -> str:
    """Content address of one specialization: package digest + key fields.

    The schema version is part of the key, so a schema bump orphans every
    previously persisted plan (they become unreachable keys and the next
    lookup recompiles) instead of risking misinterpretation.
    """
    fields = {
        "artifact": digest,
        "input_shape": [int(s) for s in input_shape],
        "dtype": str(dtype),
        "batch_invariant": bool(batch_invariant),
        "schema": PLAN_SCHEMA_VERSION,
    }
    return content_key(fields)


class PlanCache:
    """Two-tier (memory + optional registry-on-disk) store of compiled plans."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        enabled: bool = True,
    ) -> None:
        self.directory = Path(directory) / "plan_cache" if directory else None
        self.enabled = enabled
        self._registry = None
        if self.directory:
            from ..registry.store import ModelRegistry

            self._registry = ModelRegistry(self.directory)
        self._memory: dict[str, CompiledPlan] = {}  # cc: guarded-by(_lock)
        self._lock = threading.Lock()

    # -- keying ---------------------------------------------------------------

    @staticmethod
    def key(
        digest: str,
        *,
        input_shape,
        dtype: str,
        batch_invariant: bool,
    ) -> str:
        return plan_key(
            digest,
            input_shape=input_shape,
            dtype=dtype,
            batch_invariant=batch_invariant,
        )

    # -- lookup ----------------------------------------------------------------

    def get(self, key: str) -> Optional[CompiledPlan]:
        if not self.enabled:
            return None
        with self._lock:
            plan = self._memory.get(key)
        if plan is not None:
            self._count("hit", "memory")
            return plan
        plan = self._load_disk(key)
        if plan is not None:
            with self._lock:
                self._memory[key] = plan
            self._count("hit", "disk")
            return plan
        self._count("miss", "any")
        return None

    def put(self, key: str, plan: CompiledPlan) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._memory[key] = plan
        self._store_disk(key, plan)

    def keys(self) -> list[str]:
        """Every cached key across both tiers (for ``repro compile list``)."""
        found = set(self._registry.names()) if self._registry else set()
        with self._lock:
            found.update(self._memory)
        return sorted(found)

    def describe(self, key: str) -> Optional[dict]:
        """Summary of one entry for ``repro compile list`` (no plan load).

        Memory-tier entries answer from the live plan; disk-only entries
        answer from the published manifest meta.  Returns ``None`` for an
        unknown or unreadable key.
        """
        with self._lock:
            plan = self._memory.get(key)
        if plan is not None:
            return {
                "batch_invariant": plan.batch_invariant,
                "step_kinds": plan.step_kinds(),
            }
        if self._registry is None or not self._registry.exists(key):
            return None
        from ..registry.store import ArtifactNotFoundError, RegistryError

        try:
            meta = dict(self._registry.resolve(key).meta)
        except (RegistryError, ArtifactNotFoundError, OSError, ValueError, KeyError):
            return None
        return {
            "batch_invariant": meta.get("batch_invariant"),
            "step_kinds": meta.get("step_kinds", []),
        }

    def clear(self) -> int:
        """Drop every entry from both tiers; returns distinct keys removed."""
        with self._lock:
            cleared = set(self._memory)
            self._memory.clear()
        if self._registry is not None:
            for name in self._registry.names():
                for version in self._registry.versions(name):
                    self._registry.delete(name, version)
                cleared.add(name)
        return len(cleared)

    # -- disk tier (registry artifacts) ----------------------------------------

    def _load_disk(self, key: str) -> Optional[CompiledPlan]:
        if self._registry is None or not self._registry.exists(key):
            return None
        from ..registry import formats
        from ..registry.store import ArtifactNotFoundError, RegistryError

        try:
            ref = self._registry.resolve(key)
            meta, arrays = formats.read_plan_npz(ref.payload_path("plan.npz"))
            return plan_from_payload(meta, arrays)
        except (RegistryError, ArtifactNotFoundError, OSError, ValueError, KeyError):
            # an unreadable or stale-schema entry behaves as a miss; the
            # caller recompiles and put() publishes a fresh version
            return None

    def _store_disk(self, key: str, plan: CompiledPlan) -> None:
        # entries are content-addressed: one readable version is enough,
        # and an unreadable latest version is replaced by a fresh one
        if self._registry is None or self._load_disk(key) is not None:
            return
        from ..registry import formats

        meta, arrays = plan_payload(plan)
        self._registry.publish(
            key,
            KIND_PLAN,
            lambda staged: formats.write_plan_npz(staged / "plan.npz", meta, arrays),
            input_dim=plan.input_dim,
            output_dim=plan.output_dim,
            meta={
                "key": key,
                "batch_invariant": plan.batch_invariant,
                "step_kinds": plan.step_kinds(),
            },
        )

    # -- telemetry ---------------------------------------------------------------

    @staticmethod
    def _count(outcome: str, tier: str) -> None:
        registry = obs.get_registry()
        if outcome == "hit":
            registry.counter(
                "repro_compile_cache_hits_total",
                "Compiled-plan cache hits",
                labels=("tier",),
            ).inc(tier=tier)
        else:
            registry.counter(
                "repro_compile_cache_misses_total",
                "Compiled-plan cache misses",
            ).inc()


def warm_plan_cache(
    cache: PlanCache,
    package,
    *,
    digest: Optional[str] = None,
    modes: tuple[bool, ...] = (True, False),
    dtype: str = "<f8",
) -> list[str]:
    """Pre-compile a package's natural serving specializations into ``cache``.

    The natural key uses the package's own input width as the per-request
    row shape and float64 rows (what the orchestrator's tensor store
    holds for surrogate inputs); ``modes`` covers both batch-invariant
    and BLAS serving by default.  Returns the warmed keys.  Raises
    :class:`~repro.compile.plan.UntraceableModelError` for model families
    the compiler cannot trace.
    """
    digest = digest or package_digest(package)
    shape = (package.input_dim,)
    keys = []
    for invariant in modes:
        key = plan_key(
            digest, input_shape=shape, dtype=dtype, batch_invariant=invariant
        )
        if cache.get(key) is None:
            cache.put(key, compile_package(package, batch_invariant=invariant))
        keys.append(key)
    return keys
