"""Auto-HPCnet client library (Listings 1 and 2 of the paper).

The client is the thin layer compiled into the HPC application: it ships
input tensors to the orchestrator, requests inferences, and unpacks
results.  ``set_model_from_file`` loads a surrogate saved by
:class:`~repro.nas.package.SurrogatePackage`.  A package takes the raw
row its feature schema flattened from the region's inputs and returns
raw flattened outputs: its scaling and online feature reduction
(Listing 2 line 14) run inside the served call.  A sparse region input
reaches a surrogate only as that row, so the store and the serving path
carry dense arrays alone.

Two invocation styles reach the orchestrator's serving core:

* :meth:`Client.run_model` — the blocking Listing-1 call: on a stopped
  or idle thread-mode pool it runs on the caller's thread, else it queues
  through :meth:`Orchestrator.submit` and waits.  A raw-array input is
  staged under a *unique* scratch key and deleted once the result is
  read, so concurrent clients never clobber each other's inputs;
* :meth:`Client.run_model_batch` — the bulk call: a whole list of inputs
  goes to :meth:`Orchestrator.submit`, which admits each request, stacks
  same-shape rows into vectorized forwards in either serving mode and
  returns the outputs in order.  Arrays are handed over without staging.

A caller that wants to overlap its own compute with the surrogate's
keeps the handle :meth:`Orchestrator.submit` returns and calls its
``result()`` later.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..nas.package import SurrogatePackage
from .orchestrator import Orchestrator

if TYPE_CHECKING:  # annotations only: serving loads none of these
    from ..registry.store import ModelRegistry

__all__ = ["Client"]

#: process-wide scratch-key sequence; itertools.count is atomic under the GIL
_SCRATCH_IDS = itertools.count()


class Client:
    """Application-side handle to an :class:`Orchestrator`."""

    def __init__(self, orchestrator: Orchestrator, cluster: bool = False) -> None:
        # ``cluster`` mirrors ``autoHPCnet::Client client(false)`` in Listing 1
        self._orc = orchestrator
        self.cluster = bool(cluster)

    # -- tensor traffic ---------------------------------------------------------

    def put_tensor(self, key: str, value: np.ndarray) -> None:
        # the store preserves floating dtypes (float32 stays float32)
        self._orc.put_tensor(key, np.asarray(value))

    def get_tensor(self, key: str) -> np.ndarray:
        return self._orc.get_tensor(key)

    def unpack_tensor(self, key: str, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fetch a tensor, optionally into a preallocated buffer."""
        value = self._orc.get_tensor(key)
        if out is None:
            return value.copy()
        if out.shape != value.shape:
            raise ValueError(
                f"buffer shape {out.shape} does not match stored {value.shape}"
            )
        np.copyto(out, value)
        return out

    def delete_tensor(self, key: str) -> None:
        self._orc.delete_tensor(key)

    # -- models ----------------------------------------------------------------------

    def set_model(
        self,
        name: str,
        package: SurrogatePackage,
        *,
        version: Optional[int] = None,
        deploy: bool = True,
        digest: Optional[str] = None,
    ) -> int:
        """Register an in-memory surrogate package under ``name``.

        Each call registers one *version* (returned); ``deploy=True``
        (default) makes it the serving version immediately, while
        ``deploy=False`` stages it for a later :meth:`deploy_model`.

        Surrogate packages are row-wise by construction (``predict`` on a
        stacked ``(B, F)`` input returns ``B`` output rows), so they are
        opted into micro-batched serving; raw callables registered through
        :meth:`Orchestrator.register_model` stay per-request unless the
        caller declares them ``batchable=True``.  Passing the package
        itself (not just its bound ``predict``) is what lets the
        orchestrator trace-and-compile it; ``digest`` carries the registry
        artifact digest so compiled plans are content-addressed without
        rehashing the parameters.
        """
        return self._orc.register_model(
            name,
            package.predict,
            batchable=True,
            version=version,
            deploy=deploy,
            package=package,
            digest=digest,
        )

    def set_model_from_file(
        self,
        name: str,
        path: str,
        backend: str = "TORCH",
        device: str = "GPU",
        *,
        version: Optional[int] = None,
        deploy: bool = True,
    ) -> SurrogatePackage:
        """Load a saved surrogate package and register it (Listing 2 line 17).

        ``path`` is a package directory written by
        :meth:`~repro.nas.package.SurrogatePackage.save` or a registry
        version :meth:`~repro.nas.package.SurrogatePackage.publish`
        wrote.  ``backend`` and ``device`` are accepted for API parity;
        the package always runs through :mod:`repro.nn`.
        """
        del backend, device
        package = SurrogatePackage.load(path)
        self.set_model(name, package, version=version, deploy=deploy)
        return package

    def set_model_from_registry(
        self,
        name: str,
        registry: ModelRegistry,
        *,
        artifact: Optional[str] = None,
        artifact_version: Optional[int] = None,
        deploy: bool = True,
    ) -> SurrogatePackage:
        """Resolve a package from a :class:`~repro.registry.ModelRegistry`.

        Registers the registry artifact's version number as the serving
        version, so what ``repro registry list`` shows and what the
        orchestrator reports stay in step.  ``artifact`` defaults to
        ``name``; ``artifact_version`` pins a registry version (latest
        otherwise).
        """
        ref = registry.resolve(artifact or name, artifact_version)
        package = SurrogatePackage.load(ref.path)
        self.set_model(
            name, package, version=ref.version, deploy=deploy, digest=ref.digest
        )
        return package

    def deploy_model(self, name: str, version: int) -> int:
        """Hot-swap ``name`` to ``version`` (see :meth:`Orchestrator.deploy`)."""
        return self._orc.deploy(name, version)

    def rollback_model(self, name: str) -> int:
        """Return ``name`` to its previously serving version."""
        return self._orc.rollback(name)

    def canary_model(self, name: str, version: int, fraction: float) -> int:
        """Route a deterministic traffic slice to a candidate version."""
        return self._orc.canary(name, version, fraction)

    def promote_canary(self, name: str) -> int:
        """Activate the in-flight canary candidate; returns the new version."""
        return self._orc.end_canary(name, promote=True)

    def abort_canary(self, name: str) -> int:
        """Drop the in-flight canary slice; the incumbent keeps serving."""
        return self._orc.end_canary(name, promote=False)

    def _stage_inputs(
        self, inputs: Union[str, Sequence[str], np.ndarray]
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Resolve ``inputs`` to store keys; raw arrays get a unique scratch key."""
        if isinstance(inputs, np.ndarray):
            key = f"__scratch_in_{next(_SCRATCH_IDS)}__"
            self.put_tensor(key, inputs)
            return (key,), (key,)
        if isinstance(inputs, str):
            return (inputs,), ()
        return tuple(inputs), ()

    def run_model(
        self,
        name: str,
        inputs: Union[str, Sequence[str], np.ndarray],
        outputs: Union[str, Sequence[str]],
    ) -> np.ndarray:
        """Invoke a registered model and block for the result.

        ``inputs``/``outputs`` may be store keys (Listing 1 style) or a raw
        array for ``inputs`` (Listing 2 style) — in the latter case the
        client stages it under a unique scratch key and deletes it after
        serving.  See :meth:`Orchestrator.run_model`.
        """
        in_keys, scratch = self._stage_inputs(inputs)
        out_keys = (outputs,) if isinstance(outputs, str) else tuple(outputs)
        try:
            self._orc.run_model(name, in_keys, out_keys)
            return self.get_tensor(out_keys[0])
        finally:
            if scratch:
                self._orc.delete_tensors(list(scratch))

    def run_model_batch(
        self,
        name: Union[str, Sequence[str]],
        inputs: Sequence[Union[str, Sequence[str], np.ndarray]],
        outputs: Optional[Sequence[Union[str, Sequence[str]]]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> list[np.ndarray]:
        """Submit many inferences at once and gather the outputs in order.

        ``name`` may be one model name for the whole list or one name per
        request (mixed multi-model traffic).  Each input is an array or
        the store key(s) holding it.  ``outputs`` may be omitted: results
        are returned (in input order) without the caller naming store
        keys; named keys also receive their output in the store.
        ``timeout`` bounds the wait for the *whole* batch;
        :class:`TimeoutError` is raised if it elapses first.

        The whole list takes one path (:meth:`Orchestrator.submit`):
        every request is admitted on its own, 1-D rows of one model and
        shape run as stacked vectorized forwards, and the first failed
        request's error is raised — e.g.
        :class:`~repro.runtime.sharding.OverloadError` when a shard sheds.
        """
        # key lists become tuples; any other non-array input is coerced as
        # submit would, so a bad one (a CSRMatrix) fails the whole call
        # with its type named, before anything is submitted or stored
        resolved = [
            x if isinstance(x, np.ndarray)
            else (x,) if isinstance(x, str)
            else tuple(x) if isinstance(x, Iterable)
            else self._orc._coerce(x)
            for x in inputs
        ]
        if outputs is not None:
            keys = [(out,) if isinstance(out, str) else tuple(out) for out in outputs]
            if any(len(k) != 1 for k in keys):
                raise ValueError("run_model_batch takes one output key per input")
            outputs = [k[0] for k in keys]
        return self._orc.submit(name, resolved, outputs).result(timeout)
