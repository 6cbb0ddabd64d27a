"""Versioned, content-addressed model-artifact store (§6.1).

Every persisted model artifact in the system — surrogate packages,
autoencoder cache entries, compiled plans — lives in a *registry
artifact*: a directory holding the payload files plus a schema-versioned
``manifest.json`` that records what the artifact is (kind, input/output
dims, dtype, recorded f_e/f_c) and the SHA-256 digest of every payload
file.  The manifest's own digest content-addresses the artifact, so
:meth:`ModelRegistry.verify` can prove byte-level integrity years after a
surrogate was trained on another machine.

A registry root is laid out as::

    <root>/<name>/v0001/manifest.json + payload files
    <root>/<name>/v0002/...

Versions are dense positive integers; ``resolve(name)`` returns the
newest.  Publishing is **atomic**: payloads are written into a hidden
temp directory next to the target and ``os.replace``d into place, so a
kill mid-publish can never leave a half-written version — readers either
see nothing or a complete artifact (the version directory is allocated
by the rename itself, which also serializes concurrent publishers).

This module stores bytes and knows no model type.  What goes into the
payload files is defined once, in :mod:`repro.registry.formats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "MANIFEST_NAME",
    "RegistryError",
    "ArtifactNotFoundError",
    "IntegrityError",
    "ArtifactRef",
    "VerifyResult",
    "ModelRegistry",
    "atomic_directory",
    "file_digest",
    "write_manifest",
    "read_manifest",
    "verify_directory",
]

#: version of the manifest schema itself (bump on incompatible changes)
SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"

_VERSION_DIR = re.compile(r"^v(\d{4,})$")
_SAFE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class RegistryError(Exception):
    """Base class for registry failures."""


class ArtifactNotFoundError(RegistryError, KeyError):
    """The requested artifact name/version does not exist."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class IntegrityError(RegistryError):
    """An artifact's payload bytes no longer match its manifest."""


def _check_name(name: str) -> str:
    if not _SAFE_NAME.match(name):
        raise RegistryError(
            f"invalid artifact name {name!r}: must match {_SAFE_NAME.pattern}"
        )
    return name


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 hex digest of one file's contents."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_directory(target: Union[str, Path]) -> Iterator[Path]:
    """Build a directory's contents, then swap them into ``target`` atomically.

    The body writes into a hidden temp directory next to ``target``; on
    normal exit the temp directory is renamed into place (replacing a
    previous ``target`` without ever exposing a partially-written one),
    and on exception it is removed, leaving ``target`` untouched.  This
    is the fix for the historical kill-mid-save corruption: a process
    dying inside the body leaves only a ``.tmp-*`` directory to sweep.
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f".tmp-{target.name}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir()
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if target.exists():
        # two renames: the target is briefly absent, but never half-written
        displaced = target.parent / f".old-{target.name}-{uuid.uuid4().hex[:8]}"
        os.replace(target, displaced)
        os.replace(tmp, target)
        shutil.rmtree(displaced, ignore_errors=True)
    else:
        os.replace(tmp, target)


def _canonical(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def write_manifest(
    directory: Union[str, Path],
    *,
    name: str,
    version: int,
    kind: str,
    input_dim: Optional[int] = None,
    output_dim: Optional[int] = None,
    dtype: str = "float64",
    metrics: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Digest every payload file in ``directory`` and write ``manifest.json``.

    Call this *last* when assembling an artifact: every file already in
    the directory (except the manifest itself) becomes a payload entry
    with its SHA-256 and byte size.  The manifest's ``digest`` field is
    the SHA-256 of the canonicalized manifest body, which content-
    addresses the whole artifact.
    """
    directory = Path(directory)
    payloads = {}
    for path in sorted(directory.iterdir()):
        if path.name == MANIFEST_NAME or path.is_dir():
            continue
        payloads[path.name] = {
            "sha256": file_digest(path),
            "bytes": path.stat().st_size,
        }
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "version": int(version),
        "kind": kind,
        "input_dim": None if input_dim is None else int(input_dim),
        "output_dim": None if output_dim is None else int(output_dim),
        "dtype": dtype,
        "metrics": dict(metrics or {}),
        "meta": dict(meta or {}),
        "payloads": payloads,
    }
    manifest["digest"] = hashlib.sha256(_canonical(manifest)).hexdigest()
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return manifest


def read_manifest(directory: Union[str, Path]) -> dict:
    """Load and schema-check an artifact directory's manifest."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise ArtifactNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(path.read_text())
    schema = manifest.get("schema_version")
    if schema != SCHEMA_VERSION:
        raise RegistryError(
            f"unsupported manifest schema_version {schema!r} in {path} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    return manifest


def verify_directory(directory: Union[str, Path]) -> list[str]:
    """Integrity-check one artifact directory; returns a list of problems.

    Checks that the manifest parses, that its self-digest matches, that
    every payload file exists with the recorded size and SHA-256, and
    that a recorded input schema accounts for ``input_dim``.  An empty
    list means the artifact is byte-identical to what was published.
    """
    directory = Path(directory)
    try:
        manifest = read_manifest(directory)
    except (RegistryError, json.JSONDecodeError, OSError) as exc:
        return [f"unreadable manifest: {exc}"]
    errors: list[str] = []
    body = {k: v for k, v in manifest.items() if k != "digest"}
    body["digest"] = hashlib.sha256(_canonical(body)).hexdigest()
    if body["digest"] != manifest.get("digest"):
        errors.append("manifest digest mismatch (manifest was edited)")
    for filename, entry in manifest.get("payloads", {}).items():
        path = directory / filename
        if not path.exists():
            errors.append(f"missing payload {filename}")
            continue
        size = path.stat().st_size
        if size != entry.get("bytes"):
            errors.append(
                f"payload {filename}: size {size} != recorded {entry.get('bytes')}"
            )
        if file_digest(path) != entry.get("sha256"):
            errors.append(f"payload {filename}: SHA-256 mismatch (bytes tampered)")
    return errors + _input_schema_errors(manifest)


def _input_schema_errors(manifest: dict) -> list[str]:
    """A recorded input schema must account for the artifact's input width:
    the dense width plus every gathered field's live count."""
    record = manifest.get("meta", {}).get("input_schema")
    if record is None:
        return []
    try:
        dense = int(record["dense_width"])
        live = sum(int(f["count"]) for f in record["live_positions"].values())
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable input_schema record: {exc!r}"]
    if manifest.get("input_dim") != dense + live:
        return [
            f"input_dim {manifest.get('input_dim')} != dense width {dense} "
            f"+ {live} live positions of the input schema"
        ]
    return []


@dataclass(frozen=True)
class ArtifactRef:
    """Handle to one resolved (name, version) artifact on disk."""

    name: str
    version: int
    path: Path
    manifest: dict = field(compare=False)

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "unknown")

    @property
    def digest(self) -> str:
        return self.manifest.get("digest", "")

    @property
    def metrics(self) -> dict:
        return self.manifest.get("metrics", {})

    @property
    def meta(self) -> dict:
        return self.manifest.get("meta", {})

    def payload_path(self, filename: str) -> Path:
        if filename not in self.manifest.get("payloads", {}):
            raise ArtifactNotFoundError(
                f"artifact {self.name} v{self.version} has no payload "
                f"{filename!r}; payloads: {sorted(self.manifest.get('payloads', {}))}"
            )
        return self.path / filename

    def describe(self) -> str:
        dims = ""
        if self.manifest.get("input_dim") is not None:
            dims = (
                f" {self.manifest['input_dim']}->"
                f"{self.manifest.get('output_dim', '?')}"
            )
        metrics = self.metrics
        shown = ", ".join(f"{k}={metrics[k]:.4g}" for k in sorted(metrics))
        return (
            f"{self.name} v{self.version} [{self.kind}]{dims} "
            f"digest={self.digest[:12]}" + (f" ({shown})" if shown else "")
        )


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of verifying one artifact."""

    name: str
    version: int
    errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def format(self) -> str:
        if self.ok:
            return f"{self.name} v{self.version}: OK"
        lines = [f"{self.name} v{self.version}: FAILED"]
        lines += [f"  - {e}" for e in self.errors]
        return "\n".join(lines)


class ModelRegistry:
    """A directory tree of versioned, digest-verified model artifacts."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- naming / discovery -------------------------------------------------

    def _artifact_dir(self, name: str) -> Path:
        return self.root / _check_name(name)

    @staticmethod
    def _version_of(path: Path) -> Optional[int]:
        match = _VERSION_DIR.match(path.name)
        return int(match.group(1)) if match else None

    def names(self) -> list[str]:
        """Artifact names that have at least one published version."""
        if not self.root.is_dir():
            return []
        found = []
        for child in sorted(self.root.iterdir()):
            if (
                child.is_dir()
                and _SAFE_NAME.match(child.name)
                and self.versions(child.name)
            ):
                found.append(child.name)
        return found

    def versions(self, name: str) -> list[int]:
        """Published versions of ``name``, ascending (empty if unknown)."""
        directory = self._artifact_dir(name)
        if not directory.is_dir():
            return []
        versions = []
        for child in directory.iterdir():
            v = self._version_of(child)
            if v is not None and (child / MANIFEST_NAME).exists():
                versions.append(v)
        return sorted(versions)

    def exists(self, name: str, version: Optional[int] = None) -> bool:
        versions = self.versions(name)
        return bool(versions) if version is None else version in versions

    # -- resolve / publish ----------------------------------------------------

    def resolve(self, name: str, version: Optional[int] = None) -> ArtifactRef:
        """Return a ref to ``name`` at ``version`` (latest when ``None``)."""
        versions = self.versions(name)
        if not versions:
            raise ArtifactNotFoundError(
                f"no artifact named {name!r} in registry {self.root} "
                f"(known: {self.names() or 'none'})"
            )
        if version is None:
            version = versions[-1]
        elif version not in versions:
            raise ArtifactNotFoundError(
                f"artifact {name!r} has no version {version}; published: {versions}"
            )
        path = self._artifact_dir(name) / f"v{version:04d}"
        return ArtifactRef(name, version, path, read_manifest(path))

    def publish(
        self,
        name: str,
        kind: str,
        writer: Callable[[Path], None],
        *,
        input_dim: Optional[int] = None,
        output_dim: Optional[int] = None,
        dtype: str = "float64",
        metrics: Optional[dict] = None,
        meta: Optional[dict] = None,
    ) -> ArtifactRef:
        """Publish a new version of ``name``; returns its ref.

        ``writer(tmp_dir)`` stages every payload file into the temp
        directory; the manifest is computed over the staged files and the
        whole directory is renamed into the next free version slot.  The
        rename is what allocates the version, so concurrent publishers
        cannot collide — the loser of the race simply retries with the
        next number.
        """
        directory = self._artifact_dir(name)
        directory.mkdir(parents=True, exist_ok=True)
        staged = directory / f".tmp-{uuid.uuid4().hex[:12]}"
        staged.mkdir()
        try:
            writer(staged)
            while True:
                versions = self.versions(name)
                version = (versions[-1] + 1) if versions else 1
                manifest = write_manifest(
                    staged,
                    name=name,
                    version=version,
                    kind=kind,
                    input_dim=input_dim,
                    output_dim=output_dim,
                    dtype=dtype,
                    metrics=metrics,
                    meta=meta,
                )
                target = directory / f"v{version:04d}"
                try:
                    os.replace(staged, target)
                except OSError:
                    if not target.exists():
                        raise
                    continue  # lost a publish race; re-stamp and retry
                return ArtifactRef(name, version, target, manifest)
        except BaseException:
            shutil.rmtree(staged, ignore_errors=True)
            raise

    # -- integrity / lifecycle ---------------------------------------------------

    def verify(self, name: str, version: Optional[int] = None) -> VerifyResult:
        """Integrity-check one artifact (latest version by default)."""
        ref = self.resolve(name, version)
        return VerifyResult(ref.name, ref.version, tuple(verify_directory(ref.path)))

    def verify_all(self) -> list[VerifyResult]:
        """Integrity-check every version of every artifact."""
        results = []
        for name in self.names():
            for version in self.versions(name):
                results.append(self.verify(name, version))
        return results

    def delete(self, name: str, version: int) -> Path:
        """Remove one published version (content is gone for good)."""
        ref = self.resolve(name, version)
        shutil.rmtree(ref.path)
        return ref.path

    def gc(
        self,
        keep: int = 1,
        *,
        pinned: Optional[Mapping[str, Iterable[int]]] = None,
    ) -> list[Path]:
        """Prune old versions and abandoned publish temp dirs.

        Keeps the newest ``keep`` versions of every artifact and sweeps
        ``.tmp-*`` / ``.old-*`` directories left by killed publishers.
        Returns the removed paths.

        Keeping "the newest N by number" is not a safety property on its
        own: after a burst of failed candidates the *deployed* incumbent
        can be N versions behind the head and would be collected.  Two
        mechanisms protect such versions:

        * ``pinned`` — ``{name: versions}`` the caller knows are live
          (e.g. the orchestrator's active and canary versions).
        * **manifest pins** — any artifact whose *latest* manifest carries
          ``meta["pins"] = [{"name": ..., "versions": [...]}, ...]``
          pins those versions of other artifacts.  The lifecycle state
          artifact (:mod:`repro.lifecycle`) declares its incumbent,
          candidate and ``parent_version`` this way, so an offline ``gc``
          can never collect a version the control loop still references.

        A pinned version is skipped even when older than the keep
        horizon; everything else behaves as before.
        """
        if keep < 1:
            raise ValueError("gc must keep at least the latest version")
        removed: list[Path] = []
        if not self.root.is_dir():
            return removed
        pins = self._collect_pins(pinned)
        for child in sorted(self.root.iterdir()):
            if not child.is_dir():
                continue
            for junk in child.iterdir():
                if junk.is_dir() and (
                    junk.name.startswith(".tmp-") or junk.name.startswith(".old-")
                ):
                    shutil.rmtree(junk, ignore_errors=True)
                    removed.append(junk)
            versions = self.versions(child.name) if _SAFE_NAME.match(child.name) else []
            protected = pins.get(child.name, frozenset())
            for version in versions[:-keep]:
                if version in protected:
                    continue
                path = child / f"v{version:04d}"
                shutil.rmtree(path)
                removed.append(path)
        return removed

    def _collect_pins(
        self, pinned: Optional[Mapping[str, Iterable[int]]]
    ) -> dict[str, set[int]]:
        """Union of caller-supplied pins and manifest-declared pins."""
        pins: dict[str, set[int]] = {}

        def add(name: Any, version: Any) -> None:
            try:
                pins.setdefault(str(name), set()).add(int(version))
            except (TypeError, ValueError):
                pass  # a malformed pin must not break gc of everything else

        for name, versions in (pinned or {}).items():
            for version in versions:
                add(name, version)
        for name in self.names():
            try:
                ref = self.resolve(name)
            except RegistryError:
                continue
            declared = ref.meta.get("pins")
            if not isinstance(declared, list):
                continue
            for entry in declared:
                if not isinstance(entry, dict):
                    continue
                for version in entry.get("versions", ()):
                    add(entry.get("name"), version)
        return pins
