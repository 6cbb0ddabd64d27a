"""Seeded concurrency bugs for the CC analyzer's detection tests.

Each class below plants exactly one family of defect the analyzer must
catch.  Nothing here is ever executed — the module exists to be parsed
(``lint_module`` / ``repro lint``), and the deadlocks are only
deadlocks if you call them, which nobody does.
"""

import threading
import time


class LeakyCounter:
    """Mixed discipline: one locked write, one bare write -> CC101."""

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def increment(self):
        with self._lock:
            self.count += 1

    def sneaky_bump(self):
        self.count += 1          # unguarded write: CC101


class DeadlockPair:
    """A->B in one method, B->A in another -> lock-order cycle (CC201)."""

    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self.left = 0
        self.right = 0

    def forward(self):
        with self._a:
            with self._b:
                self.left += 1

    def backward(self):
        with self._b:
            with self._a:
                self.right += 1


class DoubleAcquire:
    """Plain Lock re-acquired through a call chain -> self-deadlock (CC202)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            self.value += 1


class BadCondvar:
    """Every condvar lint at once: CC301, CC302, CC303."""

    def __init__(self):
        self._cond = threading.Condition()
        self.items = []

    def take_if(self):
        with self._cond:
            if not self.items:       # should be `while`
                self._cond.wait()    # CC301
            return self.items.pop()

    def signal(self):
        self._cond.notify()          # CC302: condition not held

    def take_until(self, deadline):
        with self._cond:
            while not self.items:
                # CC303: timeout recomputed inline each pass
                self._cond.wait(deadline - time.monotonic())
            return self.items.pop()
