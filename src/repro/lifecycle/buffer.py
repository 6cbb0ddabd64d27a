"""Bounded buffer of labeled guarded traffic for retraining.

Ground truth exists for free exactly once: when the guard restarts on
the original code (§7.1), the exact outputs it just computed label the
input that defeated the surrogate.  The buffer collects those
``(x, y)`` pairs — the raw flattened input and output rows the package
serves, which the retrainer scales with the package's own scalers —
bounded to the newest ``capacity`` samples so drifted traffic ages out
stale regimes.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = ["TrafficBuffer"]


class TrafficBuffer:
    """Thread-safe ring buffer of ``(x_row, y_row)`` training pairs."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._pairs: "deque[tuple[np.ndarray, np.ndarray]]" = deque(  # cc: guarded-by(_lock)
            maxlen=self.capacity
        )
        self._lock = threading.Lock()

    def add(self, x: np.ndarray, y: np.ndarray) -> None:
        """Append one labeled sample (copies: callers may reuse arrays)."""
        pair = (
            np.array(np.asarray(x, dtype=np.float64).ravel(), copy=True),
            np.array(np.asarray(y, dtype=np.float64).ravel(), copy=True),
        )
        with self._lock:
            self._pairs.append(pair)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pairs)

    def clear(self) -> None:
        with self._lock:
            self._pairs.clear()

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Snapshot as stacked ``(N, F)`` / ``(N, D)`` training matrices."""
        with self._lock:
            pairs = list(self._pairs)
        if not pairs:
            raise ValueError("traffic buffer is empty")
        x = np.stack([p[0] for p in pairs])
        y = np.stack([p[1] for p in pairs])
        return x, y
