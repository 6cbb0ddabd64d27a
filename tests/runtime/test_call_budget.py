"""Python-level call budgets of one served call.

On a shared host a wall-clock ratio moves by a quarter within seconds;
the number of Python frames a served call enters does not.  These tests
count them with ``sys.setprofile``, telemetry off, for
``Client.run_model`` (which serves through ``Orchestrator.run_model``)
on a running thread-mode pool, the call perfbench's ``listing2-mixed``
times, and for the same call with telemetry on, as perfbench runs it;
for the caller's side of the two queued paths,
``Client.run_model`` and a one-row ``Client.run_model_batch`` waiting
behind a busy pool (both go through ``Orchestrator.submit``); and for
``GuardedSurrogate.run`` on AMG, the guarded path whose
wall-clock bound lives in ``tests/obs/test_overhead.py``, served and
restarted on the exact region (§7.1's fallback).  Offline, they
count one compiled training step (``repro.nn.trainstep``), which every
NAS trial runs a few hundred times.  Each budget is the count of today's
code, so a change that adds a frame on these paths fails here until it
raises the budget in its own diff and says why.  The garbage collector is
off while a call is counted: a collection its allocations happen to
trigger runs whatever callbacks other code registered, in its frames.
"""

import collections
import gc
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.apps import AMGApplication
from repro.core.pipeline import DeployedSurrogate
from repro.core.scaling import Scaler
from repro.lifecycle import DriftDetector
from repro.nas.package import SurrogatePackage
from repro.nn import Adam, Tensor, mse_loss
from repro.nn.mlp import Topology, build_mlp
from repro.nn.trainstep import compile_step
from repro.runtime import Client, GuardedSurrogate, Orchestrator, residual_validator

#: (inputs, hidden widths, outputs) -> most Python calls one
#: ``Client.run_model`` may make; the MLPs are listing2-mixed's
#: Blackscholes (3 gemms) and AMG (2 gemms) shapes.  A compiled plan
#: runs its gemms as NumPy calls of a program, so the depth of the MLP
#: adds no Python frame
BUDGETS = {
    (6, (16, 8), 2): 22,
    (8, (24,), 1): 22,
}
#: the same call with telemetry on: four writes to instruments bound
#: before the counted calls (served, submitted, latency, plan exec), and
#: none of them checks its labels (no ``_label_key`` frame)
TELEMETRY_BUDGETS = {
    (6, (16, 8), 2): 26,
    (8, (24,), 1): 26,
}
#: most Python calls the caller's thread makes in one queued call on a
#: thread pool whose one worker is busy: admission, ``Orchestrator.submit``,
#: the queue hand-off and the wait on the handle (the forward runs on the
#: worker, so the model's shape does not matter)
QUEUED_BUDGETS = {"run_model": 32, "run_model_batch": 24}
#: most Python calls one valid ``GuardedSurrogate.run`` on AMG may make:
#: gather-flatten, scale, a 2-gemm forward, unflatten, residual check
GUARDED_AMG_BUDGET = 77
#: the same call with a ``DriftDetector`` attached: the detector reads
#: the row the surrogate served, so the problem is still flattened once
GUARDED_AMG_DRIFT_BUDGET = 82
#: most Python calls one ``GuardedSurrogate.run`` on AMG may make when
#: its check fails: the surrogate attempt above, then the restart on the
#: original region (``Application.exact_outputs``)
GUARDED_AMG_FALLBACK_BUDGET = 191
#: most Python calls one compiled training step of a 2-gemm MLP may make:
#: ``CompiledStep.step``, its program's ``run`` and ``Adam.step`` (the
#: autograd step of the same MLP makes 198)
TRAIN_STEP_BUDGET = 3


@pytest.fixture(autouse=True)
def telemetry_off():
    obs.configure(enabled=False, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def _count_calls(call, *args) -> collections.Counter:
    """Python frames entered by one ``call(*args)``, by (file, function)."""
    calls: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename, frame.f_code.co_name] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def _listing2_counts(spec) -> list[collections.Counter]:
    """Three counted ``Client.run_model`` calls after a warm-up call."""
    n_in, hidden, n_out = spec
    topology = Topology(hidden=hidden, activation="tanh")
    package = SurrogatePackage(
        model=build_mlp(n_in, n_out, topology, rng=np.random.default_rng(0)),
        topology=topology, input_dim=n_in, output_dim=n_out,
    )
    orc = Orchestrator(batch_invariant=True)
    client = Client(orc)
    client.set_model("m", package)
    client.put_tensor("in", np.random.default_rng(1).standard_normal(n_in))
    with orc:
        client.run_model("m", "in", "out")   # compiles the plan
        return [_count_calls(client.run_model, "m", "in", "out") for _ in range(3)]


@pytest.mark.parametrize("spec", sorted(BUDGETS), ids=lambda s: f"{len(s[1]) + 1}-gemm")
def test_listing2_call_within_budget(spec):
    counts = _listing2_counts(spec)

    assert counts[0] == counts[1] == counts[2]
    assert not [
        key for key in counts[0] if key[0].endswith("einsumfunc.py")
    ], "the served product must not go through np.einsum"
    assert sum(counts[0].values()) <= BUDGETS[spec], sorted(counts[0].items())


@pytest.mark.parametrize(
    "spec", sorted(TELEMETRY_BUDGETS), ids=lambda s: f"{len(s[1]) + 1}-gemm"
)
def test_listing2_call_with_telemetry_within_budget(spec):
    obs.configure(enabled=True)
    counts = _listing2_counts(spec)

    assert counts[0] == counts[1] == counts[2]
    labelled = [key for key in counts[0] if key[1] == "_label_key"]
    assert not labelled, "a served call must write to series bound beforehand"
    assert sum(counts[0].values()) <= TELEMETRY_BUDGETS[spec], sorted(counts[0].items())
    served = obs.get_registry().get("repro_orchestrator_served_total")
    assert served.total() == 4   # telemetry really was on


def _release_when_waiting(queue, gate: threading.Event) -> None:
    """Set ``gate`` once a job is queued and its caller blocks on the
    job's handle, so every counted call really waits."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        with queue._cond:
            job = queue._items[0] if queue._items else None
        if job is not None and job[4][0].done._cond._waiters:
            break
        time.sleep(0.001)
    gate.set()


@pytest.mark.parametrize("entry", sorted(QUEUED_BUDGETS))
def test_queued_call_within_budget(entry):
    n_in, hidden, n_out = 8, (24,), 1
    topology = Topology(hidden=hidden, activation="tanh")
    package = SurrogatePackage(
        model=build_mlp(n_in, n_out, topology, rng=np.random.default_rng(0)),
        topology=topology, input_dim=n_in, output_dim=n_out,
    )
    orc = Orchestrator(batch_invariant=True)
    client = Client(orc)
    client.set_model("m", package)
    x = np.random.default_rng(1).standard_normal(n_in)
    client.put_tensor("in", x)
    started, gate = threading.Event(), threading.Event()

    def held(row):
        started.set()
        gate.wait(timeout=10.0)
        return row

    orc.register_model("held", held)
    call, args = {
        "run_model": (client.run_model, ("m", "in", "out")),
        "run_model_batch": (client.run_model_batch, ("m", [x])),
    }[entry]

    def behind_a_held_forward():
        started.clear()
        gate.clear()
        hold = orc.submit("held", [np.ones(1)])
        assert started.wait(timeout=10.0)
        releaser = threading.Thread(
            target=_release_when_waiting, args=(orc._pool._queue, gate)
        )
        releaser.start()
        try:
            return _count_calls(call, *args)
        finally:
            releaser.join(timeout=15.0)
            hold.result(timeout=10.0)

    with orc:
        call(*args)  # compiles the plan
        counts = [behind_a_held_forward() for _ in range(3)]

    assert counts[0] == counts[1] == counts[2]
    waits = [key for key in counts[0] if key[1] == "_release_save"]
    assert waits, "the counted call must wait on its handle"
    assert sum(counts[0].values()) <= QUEUED_BUDGETS[entry], sorted(counts[0].items())


@pytest.fixture(scope="module")
def amg_surrogate():
    """A hand-built AMG surrogate and one served problem."""
    app = AMGApplication()
    acq = app.acquire(n_samples=20, rng=np.random.default_rng(0)).gathered()
    topology = Topology(hidden=(16,), activation="tanh")
    package = SurrogatePackage(
        model=build_mlp(
            acq.input_dim, acq.output_dim, topology, rng=np.random.default_rng(0)
        ),
        topology=topology, input_dim=acq.input_dim, output_dim=acq.output_dim,
        x_scaler=Scaler.identity(acq.input_dim), y_scaler=Scaler.fit(acq.y),
    )
    surrogate = DeployedSurrogate(app, package, acq.input_schema, acq.output_schema)
    return surrogate, app.generate_problems(1, np.random.default_rng(1))[0]


def test_guarded_amg_run_within_budget(amg_surrogate):
    surrogate, problem = amg_surrogate
    # a loose tolerance keeps the count on the served path, not the restart
    guarded = GuardedSurrogate(surrogate, residual_validator(rtol=1e9))
    guarded.run(problem)
    counts = [_count_calls(guarded.run, problem) for _ in range(3)]

    assert guarded.stats.fallbacks == 0
    assert counts[0] == counts[1] == counts[2]
    assert not [key for key in counts[0] if key[1] == "to_dense"], (
        "the sparse input must not be densified"
    )
    assert sum(counts[0].values()) <= GUARDED_AMG_BUDGET, sorted(counts[0].items())

    watched = GuardedSurrogate(
        surrogate, residual_validator(rtol=1e9),
        drift_detector=DriftDetector(model="AMG"),
    )
    watched.run(problem)
    counts = [_count_calls(watched.run, problem) for _ in range(3)]
    assert watched.stats.fallbacks == 0
    assert counts[0] == counts[1] == counts[2]
    flattens = [key for key in counts[0] if key[1] == "flatten"]
    assert len(flattens) == 1 and counts[0][flattens[0]] == 1, flattens
    assert sum(counts[0].values()) <= GUARDED_AMG_DRIFT_BUDGET, sorted(counts[0].items())


def test_guarded_amg_fallback_within_budget(amg_surrogate):
    """§7.1's restart runs the region and names its outputs, nothing more:
    the region's source was parsed once, before the counted calls."""
    surrogate, problem = amg_surrogate
    guarded = GuardedSurrogate(surrogate, lambda problem, outputs: False)
    guarded.run(problem)
    counts = [_count_calls(guarded.run, problem) for _ in range(3)]

    assert guarded.stats.fallbacks == 4
    assert counts[0] == counts[1] == counts[2]
    parsing = [
        key for key in counts[0]
        if os.path.basename(key[0]) in (
            "inspect.py", "ast.py", "tokenize.py", "linecache.py"
        )
        or key[0].endswith(os.path.join("repro", "extract", "sampling.py"))
    ]
    assert not parsing, parsing
    assert sum(counts[0].values()) <= GUARDED_AMG_FALLBACK_BUDGET, sorted(counts[0].items())


def _tensor_frames(counts) -> list:
    return [key for key in counts if key[0].endswith(os.path.join("nn", "tensor.py"))]


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_compiled_training_step_within_budget(activation):
    # build-amg's winning shape: 33 inputs, 8 hidden, 36 outputs
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((64, 33)), rng.standard_normal((64, 36))
    model = build_mlp(33, 36, Topology((8,), activation), np.random.default_rng(0))
    step = compile_step(model, x, y, np.arange(48), np.arange(48, 64), 32, 1e-3, 1e-4)
    batch = np.arange(32)
    try:
        step.step(batch)
        counts = [_count_calls(step.step, batch) for _ in range(3)]
    finally:
        step.release()

    assert counts[0] == counts[1] == counts[2]
    assert not _tensor_frames(counts[0]), "the compiled step must not enter autograd"
    assert sum(counts[0].values()) <= TRAIN_STEP_BUDGET, sorted(counts[0].items())


def test_autograd_training_step_enters_tensor_frames():
    """The same step on autograd, which the compiled step replaces, enters
    ``tensor.py`` dozens of times: the frame check above can see them."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((32, 33)), rng.standard_normal((32, 36))
    model = build_mlp(33, 36, Topology((8,), "relu"), np.random.default_rng(0))
    optimizer = Adam(model.parameters(), lr=1e-3)

    def step():
        optimizer.zero_grad()
        loss = mse_loss(model(Tensor(x)), Tensor(y))
        loss.backward()
        optimizer.step()

    counts = _count_calls(step)
    assert sum(counts[key] for key in _tensor_frames(counts)) > 10 * TRAIN_STEP_BUDGET
