"""A model-based test of the thread-mode serving front end.

A hypothesis ``RuleBasedStateMachine`` drives one thread-mode
:class:`~repro.runtime.Orchestrator` through puts, blocking and queued
calls (some with a poisoned row), deploys, rollbacks, an event-held
forward, stops and starts.  After every step it checks what the front
end promises:

* every request counts once: ``submitted == served + failed``;
* at rest nothing is queued and no forward is in flight;
* every handle resolves within its bound;
* every output is byte-equal to its version's ``package.predict`` under
  ``batch_invariant()``;
* a request is served by the version it was admitted under, and a
  blocking call never overtakes a forward already in flight.

Seeds are fixed (``derandomize``) and the runs bounded, so the machine
replays the same programs on every run.
"""

import itertools
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import obs
from repro.nas.package import SurrogatePackage
from repro.nn.mlp import Topology, build_mlp
from repro.nn.tensor import batch_invariant
from repro.runtime import Orchestrator, OrchestratorStopped

N_IN, N_OUT = 5, 3
#: seconds any handle or blocked caller may take once nothing holds it
BOUND_S = 5.0


def _package(seed: int) -> SurrogatePackage:
    topology = Topology(hidden=(8,), activation="tanh")
    return SurrogatePackage(
        model=build_mlp(N_IN, N_OUT, topology, rng=np.random.default_rng(seed)),
        topology=topology, input_dim=N_IN, output_dim=N_OUT,
    )


#: version -> the package it serves; the two disagree on every row
PACKAGES = {1: _package(1), 2: _package(2)}
ROWS = np.random.default_rng(0).standard_normal((8, N_IN))
#: a row of the wrong width: its forward raises
POISON = np.ones(N_IN + 1)


def _expected(version: int, x: np.ndarray) -> np.ndarray:
    with batch_invariant():
        return PACKAGES[version].predict(x)


def _counter(name: str) -> float:
    metric = obs.get_registry().get(name)
    return metric.total() if metric is not None else 0.0


class ServingMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        obs.configure(enabled=True, reset=True)
        self.orc = Orchestrator(max_batch_size=4)
        for version, package in PACKAGES.items():
            self.orc.register_model(
                "m", package.predict, batchable=True, package=package,
                deploy=version == 1,
            )
        self.started, self.gate = threading.Event(), threading.Event()

        def held(x):
            self.started.set()
            self.gate.wait(timeout=BOUND_S)
            return x

        self.orc.register_model("held", held)
        self.active, self.previous = 1, None
        self.running = False
        self.stops = 0
        self.store: dict[str, np.ndarray] = {}
        self.ids = itertools.count()
        #: (handle, admitted version, inputs, output keys, stops at submit)
        self.pending: list = []
        self.held = None
        #: blocking calls made while the held forward was in flight
        self.behind: list = []

    def _check_output(self, version: int, x: np.ndarray, out: np.ndarray) -> None:
        want = _expected(version, x)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes(), "served bits differ from predict"

    # -- rules ----------------------------------------------------------------

    @rule(k=st.integers(0, 3), r=st.integers(0, len(ROWS) - 1))
    def put(self, k, r):
        self.orc.put_tensor(f"k{k}", ROWS[r])
        self.store[f"k{k}"] = ROWS[r]

    @precondition(lambda self: self.held is None)
    @rule(k=st.integers(0, 3))
    def run_model(self, k):
        key, out = f"k{k}", f"out{next(self.ids)}"
        if key not in self.store:
            with pytest.raises(KeyError):
                self.orc.run_model("m", (key,), (out,))
            return
        assert self.orc.run_model("m", (key,), (out,)) == self.active
        self._check_output(self.active, self.store[key], self.orc.get_tensor(out))
        self.orc.delete_tensor(out)

    @precondition(lambda self: self.held is not None)
    @rule(k=st.integers(0, 3))
    def run_model_behind_the_held_forward(self, k):
        key = f"k{k}"
        if key not in self.store:
            return
        out, outcome = f"out{next(self.ids)}", {}
        admitted = _counter("repro_orchestrator_submitted_total") + 1

        def call():
            try:
                outcome["version"] = self.orc.run_model("m", (key,), (out,))
            except Exception as exc:  # noqa: BLE001 - checked at release
                outcome["error"] = exc

        caller = threading.Thread(target=call)
        caller.start()
        deadline = time.monotonic() + BOUND_S
        while (
            _counter("repro_orchestrator_submitted_total") < admitted
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        caller.join(timeout=0.05)
        assert caller.is_alive(), "a blocking call overtook the held forward"
        self.behind.append((caller, outcome, self.active, self.store[key], out))

    @rule(
        rows=st.lists(st.integers(0, len(ROWS) - 1), min_size=1, max_size=6),
        poison=st.one_of(st.none(), st.integers(0, 6)),
        pin=st.sampled_from([None, 1, 2]),
        named=st.booleans(),
    )
    def submit(self, rows, poison, pin, named):
        inputs = [ROWS[r] for r in rows]
        if poison is not None:
            inputs.insert(min(poison, len(inputs)), POISON)
        n = next(self.ids)
        keys = [f"s{n}_{i}" for i in range(len(inputs))] if named else None
        handle = self.orc.submit("m", inputs, keys, version=pin)
        version = self.active if pin is None else pin
        assert handle.versions == [version] * len(inputs)
        self.pending.append((handle, version, inputs, keys, self.stops))

    @rule(version=st.sampled_from([1, 2]))
    def deploy(self, version):
        assert self.orc.deploy("m", version) == version
        if version != self.active:
            self.previous, self.active = self.active, version

    @precondition(lambda self: self.previous is not None)
    @rule()
    def rollback(self):
        assert self.orc.rollback("m") == self.previous
        self.previous, self.active = self.active, self.previous

    @precondition(lambda self: self.running and self.held is None)
    @rule()
    def hold(self):
        self.started.clear()
        self.gate.clear()
        self.held = self.orc.submit("held", [np.ones(2)])
        assert self.started.wait(timeout=BOUND_S)

    @precondition(lambda self: self.held is not None)
    @rule()
    def release(self):
        self.gate.set()
        self._settle_hold(stopped=False)

    @precondition(lambda self: self.held is not None)
    @rule()
    def stop_while_held(self):
        """Stop with work queued behind the held forward: the forward
        finishes, everything queued behind it fails as stopped."""
        stopper = threading.Thread(target=self.orc.stop)
        stopper.start()
        deadline = time.monotonic() + BOUND_S
        while not self.orc._pool._queue._closed and time.monotonic() < deadline:
            time.sleep(0.001)
        self.gate.set()
        stopper.join(timeout=BOUND_S)
        assert not stopper.is_alive(), "stop() did not return"
        self.running = False
        self.stops += 1
        self._settle_hold(stopped=True)

    def _settle_hold(self, stopped: bool) -> None:
        assert np.array_equal(self.held.result(timeout=BOUND_S)[0], np.ones(2))
        for caller, outcome, version, x, out in self.behind:
            caller.join(timeout=BOUND_S)
            assert not caller.is_alive(), "a blocking call did not resolve"
            if stopped:
                assert isinstance(outcome.get("error"), OrchestratorStopped), outcome
                continue
            assert outcome == {"version": version}
            self._check_output(version, x, self.orc.get_tensor(out))
            self.orc.delete_tensor(out)
        self.held, self.behind = None, []

    @precondition(lambda self: self.running and self.held is None)
    @rule()
    def stop(self):
        self.orc.stop()
        self.running = False
        self.stops += 1

    @precondition(lambda self: not self.running)
    @rule()
    def start(self):
        self.orc.start()
        self.running = True

    # -- invariants -----------------------------------------------------------

    @invariant()
    def at_rest(self):
        if self.held is not None:
            return
        for handle, version, inputs, keys, stops in self.pending:
            assert handle.done.wait(timeout=BOUND_S), "a handle did not resolve"
            for i, (x, error) in enumerate(zip(inputs, handle.errors)):
                if isinstance(error, OrchestratorStopped):
                    assert self.stops > stops, "failed as stopped without a stop"
                elif x is POISON:
                    assert isinstance(error, ValueError), error
                else:
                    assert error is None, error
                    out = handle.outputs[i]
                    self._check_output(version, x, out)
                    if keys is not None:
                        stored = self.orc.get_tensor(keys[i])
                        assert stored.tobytes() == out.tobytes()
            if keys is not None:
                self.orc.delete_tensors(keys)
        self.pending.clear()
        queue = self.orc._pool._queue
        assert queue.qsize() == 0 and queue._inflight == 0
        submitted = _counter("repro_orchestrator_submitted_total")
        served = _counter("repro_orchestrator_served_total")
        failed = _counter("repro_orchestrator_failed_total")
        assert submitted == served + failed

    def teardown(self):
        self.gate.set()
        for caller, *_ in self.behind:
            caller.join(timeout=BOUND_S)
        self.orc.stop()
        obs.configure(enabled=True, reset=True)


TestServingMachine = ServingMachine.TestCase
TestServingMachine.settings = settings(
    max_examples=50,
    stateful_step_count=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
