"""Module-level models for process-mode tests.

Worker processes are spawned, so registered models cross the boundary
by pickle — which serializes functions and classes *by reference*.
Anything served with ``num_processes > 0`` therefore has to live in an
importable module; test functions defined inline would not unpickle in
the worker.  These helpers are deliberately tiny and deterministic.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from repro.nas.package import SurrogatePackage


def affine(x: np.ndarray) -> np.ndarray:
    """Row-wise ``sum(2x + 1)``; accepts a single row or a stacked batch."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return (2.0 * x + 1.0).sum(axis=1)


def affine_x10(x: np.ndarray) -> np.ndarray:
    """Scaled variant used as a distinguishable second version."""
    return affine(x) * 10.0


def negate(x: np.ndarray) -> np.ndarray:
    """Row-wise ``-sum(x)`` — a second model for mixed traffic."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return -x.sum(axis=1)


def flip(x: np.ndarray) -> np.ndarray:
    """Element-wise ``-x``, in the input's shape."""
    return -np.asarray(x, dtype=np.float64)


def collapse(x: np.ndarray) -> np.ndarray:
    """Declared row-wise by its tests but is not: one sum for the whole input."""
    return np.atleast_1d(np.asarray(x, dtype=np.float64).sum())


def pid(x: np.ndarray) -> np.ndarray:
    """Row-wise: every output row is the id of the process that served it."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return np.full(x.shape[0], float(os.getpid()))


class SleepyModel:
    """Batchable model that sleeps per call — for jamming worker queues."""

    def __init__(self, delay: float = 0.05) -> None:
        self.delay = delay

    def __call__(self, x: np.ndarray) -> np.ndarray:
        time.sleep(self.delay)
        return affine(x)


class FailingModel:
    """Raises a deterministic error so tests can assert propagation."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise ValueError("synthetic failure from FailingModel")


class Tag:
    """Constant-output model: every element equals the version tag.

    Canary tests register ``Tag(1.0)`` / ``Tag(2.0)`` as two versions of
    one model so the served version is readable off the result.
    """

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.full(x.shape[0], self.value)


class FlakyTracePackage(SurrogatePackage):
    """A package whose first ``failures`` plan compiles fail, per process.

    Every compile attempt (the content digest the compiler asks for
    first) appends a line to ``log``, so a test can count attempts made
    inside a worker process, which monkeypatching cannot reach.  A
    pickled copy carries the failure budget it had when it was pickled.
    """

    @classmethod
    def wrap(cls, package: SurrogatePackage, log, failures: int = 1):
        flaky = cls(
            **{f.name: getattr(package, f.name) for f in dataclasses.fields(package)}
        )
        flaky.log = str(log)
        flaky.failures = int(failures)
        return flaky

    def payload_meta(self) -> dict:
        with open(self.log, "a") as fh:
            fh.write("attempt\n")
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("transient compile failure")
        return super().payload_meta()
