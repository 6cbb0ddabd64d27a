"""Whole-application evaluation harness (Fig. 5 metrics).

For one deployed surrogate this runs N input problems both ways (exact
region vs surrogate), then reports

* **HitRate** (Eqn 3) on the application QoI at the user's mu;
* **Speedup** (Eqn 2) with the timing terms coming from the device models:
  the original region and the rest of the app are costed on the 40-core
  CPU model, the surrogate (encode + inference) on the GPU model, and the
  input transfer on the PCIe link — exactly the terms
  ``T'_NN_infer + T'_Data_load + T_Other`` of the paper;
* measured wall-clock times of both paths on this machine, as an honest
  secondary signal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..extract.features import SchemaMismatchError
from ..perf.devices import (
    DeviceModel,
    Link,
    PCIE3_X16,
    TESLA_V100_NN,
    XEON_E5_2698V4,
)
from ..perf.metrics import SpeedupBreakdown, hit_rate
from ..runtime.serving import OnlineCostModel
from .pipeline import DeployedSurrogate

__all__ = ["EvaluationRow", "evaluate_surrogate"]


@dataclass
class EvaluationRow:
    """One Fig. 5 bar pair: speedup and HitRate for one application."""

    app_name: str
    app_type: str
    speedup: float
    hit_rate: float
    breakdown: SpeedupBreakdown
    measured_speedup: float
    n_problems: int
    mu: float

    def format(self) -> str:
        return (
            f"{self.app_name:<14} type {self.app_type:<3} "
            f"speedup {self.speedup:6.2f}x   HitRate {self.hit_rate:6.1%}   "
            f"(measured wall {self.measured_speedup:6.2f}x, N={self.n_problems})"
        )


def evaluate_surrogate(
    surrogate: DeployedSurrogate,
    *,
    n_problems: int = 100,
    mu: float = 0.10,
    rng: Optional[np.random.Generator] = None,
    cpu: DeviceModel = XEON_E5_2698V4,
    gpu: DeviceModel = TESLA_V100_NN,
    link: Link = PCIE3_X16,
    transfer_blowup: float = 1.0,
) -> EvaluationRow:
    """Run the Fig. 5 protocol for one application/surrogate pair.

    ``transfer_blowup`` multiplies the input-transfer volume; the Autokeras
    baseline pays the app's dense-unroll blow-up here because it cannot ship
    sparse formats to the device (§7.2).
    """
    if n_problems < 1:
        raise ValueError("n_problems must be >= 1")
    app = surrogate.app
    rng = rng or np.random.default_rng(2023)
    problems = app.generate_problems(n_problems, rng)

    exact_qois = np.empty(n_problems)
    surrogate_qois = np.empty(n_problems)
    solver_seconds = 0.0
    other_seconds = 0.0
    exact_wall = 0.0
    surrogate_wall = 0.0
    online = OnlineCostModel(device=gpu, link=link, compute_scale=app.data_scale)
    nn_seconds = 0.0
    load_seconds = 0.0

    for i, problem in enumerate(problems):
        run = app.run_exact(problem)
        exact_qois[i] = run.qoi
        exact_wall += run.wall_time
        region = run.region_cost.scaled(app.cost_scale)
        solver_seconds += cpu.kernel_time(region.flops, region.bytes_moved)
        other = app.other_cost(problem).scaled(app.cost_scale)
        other_seconds += cpu.kernel_time(other.flops, other.bytes_moved)

        start = time.perf_counter()
        try:
            surrogate_qois[i] = surrogate.qoi(problem)
        except SchemaMismatchError:
            # an input the surrogate cannot encode is a miss (NaN never
            # meets Eqn 3's tolerance)
            surrogate_qois[i] = np.nan
        surrogate_wall += time.perf_counter() - start

        phases = online.phase_times(
            surrogate.package,
            surrogate.input_bytes(problem) * app.data_scale * transfer_blowup,
        )
        load_seconds += phases["fetch_input"]
        nn_seconds += phases["encode"] + phases["load_model"] + phases["run_model"]

    breakdown = SpeedupBreakdown(
        t_numerical_solver=solver_seconds,
        t_nn_infer=nn_seconds,
        t_data_load=load_seconds,
        t_other=other_seconds,
    )
    rate = hit_rate(exact_qois, surrogate_qois, mu=mu)
    measured = exact_wall / surrogate_wall if surrogate_wall > 0 else float("inf")

    return EvaluationRow(
        app_name=app.name,
        app_type=app.app_type,
        speedup=breakdown.value,
        hit_rate=rate,
        breakdown=breakdown,
        measured_speedup=measured,
        n_problems=n_problems,
        mu=mu,
    )
