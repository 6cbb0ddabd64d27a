"""§7.3 online-overhead analysis: the four serving phases.

Paper result (share of one online invocation, averaged over the apps):

1. fetch input to GPU memory     21.2 %
2. encode to low-dim features    10.1 %
3. load pre-trained model         1.6 %
4. run model + retrieve output   67.1 %

The bench reports the simulated breakdown (device/link cost models, the
same models Fig. 5 uses) and the wall-clock breakdown measured through the
orchestrator on this machine.  Shape: running the model dominates, model
load is the smallest phase, fetch > encode.
"""

from __future__ import annotations

import numpy as np

from repro.apps import make_application
from repro.runtime import ONLINE_PHASES, OnlineCostModel, ServingSession

from conftest import APP_NAMES, eval_rng

PAPER_SHARES = {
    "fetch_input": 0.212,
    "encode": 0.101,
    "load_model": 0.016,
    "run_model": 0.671,
}


def _simulated_breakdown(all_builds):
    totals = {phase: 0.0 for phase in ONLINE_PHASES}
    for name in APP_NAMES:
        build = all_builds[name]
        app = make_application(name)
        model = OnlineCostModel(compute_scale=app.data_scale)
        problem = app.example_problem(eval_rng())
        input_bytes = build.surrogate.input_bytes(problem) * app.data_scale
        for phase, seconds in model.phase_times(build.surrogate.package, input_bytes).items():
            totals[phase] += seconds
    total = sum(totals.values())
    return {phase: totals[phase] / total for phase in ONLINE_PHASES}


def _measured_breakdown(all_builds, invocations: int = 20):
    build = all_builds["FFT"]
    session = ServingSession(build.surrogate.package)
    app = make_application("FFT")
    rng = eval_rng()
    for _ in range(invocations):
        problem = app.example_problem(rng)
        session.infer(build.surrogate.input_schema.flatten(problem))
    return session.timer.breakdown()


def test_online_overheads(all_builds, benchmark):
    simulated = benchmark.pedantic(
        lambda: _simulated_breakdown(all_builds), rounds=1, iterations=1
    )
    measured = _measured_breakdown(all_builds)

    print("\n=== §7.3 online-time breakdown per invocation ===")
    print(f"{'phase':<14}{'paper':>9}{'simulated':>12}{'measured':>11}")
    for phase in ONLINE_PHASES:
        print(
            f"{phase:<14}{PAPER_SHARES[phase]:>8.1%}"
            f"{simulated[phase]:>11.1%}{measured.get(phase, 0.0):>10.1%}"
        )
    print("shape asserted on the *measured* split (the simulated one skews")
    print("toward fetch because our surrogates are far smaller than the")
    print("paper's relative to their inputs — see EXPERIMENTS.md)")

    # --- shape assertions: running the model dominates, loading it is the
    # smallest phase (the paper's 67.1% / 1.6% split) ---
    assert measured["run_model"] == max(measured.values())
    assert measured["run_model"] > 0.4
    assert measured["load_model"] == min(measured.values())
    assert measured["fetch_input"] > measured["load_model"]
    # and the simulated transfer/encode ordering still holds
    assert simulated["fetch_input"] > simulated["encode"]
