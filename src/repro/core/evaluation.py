"""Eqn 3 and Eqn 2 over a problem set: the one scorer and the Fig. 5 harness.

Every comparison of an approximation with the original region runs here:

* :class:`ProblemSet` is the exact side.  It runs the original region once
  per problem and keeps its outputs, its QoI and the modeled CPU seconds of
  the region and of the rest of the application;
* :func:`score` is the approximate side.  It asks an answer for each
  problem's region outputs and judges the resulting QoIs with Eqn 3
  (:func:`~repro.perf.metrics.qoi_hits`, the one definition of "meets mu").

The build's quality constraint f_e, Fig. 5's HitRate and every Fig. 6
method are scored this way, so the search constrains exactly the HitRate
the evaluation reports.  :func:`evaluate_surrogate` adds Eqn 2 for a
deployed surrogate: the original region and the rest of the app are costed
on the 40-core CPU model, the surrogate (encode + inference) on the GPU
model, and the input transfer on the PCIe link — the terms
``T'_NN_infer + T'_Data_load + T_Other`` of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..extract.features import SchemaMismatchError
from ..perf.devices import (
    DeviceModel,
    Link,
    PCIE3_X16,
    TESLA_V100_NN,
    XEON_E5_2698V4,
)
from ..perf.metrics import SpeedupBreakdown, qoi_hits

if TYPE_CHECKING:
    from ..apps.base import Application, RegionCost
    from .pipeline import DeployedSurrogate

__all__ = [
    "ProblemSet",
    "Score",
    "score",
    "EvaluationRow",
    "evaluate_surrogate",
]

#: ``answer(problem, row)`` -> the region outputs for one problem
Answer = Callable[[Mapping[str, Any], Optional[np.ndarray]], Mapping[str, Any]]


@dataclass(frozen=True)
class ProblemSet:
    """One application's problems, each run exactly once (the exact side
    of Eqn 3 and the CPU side of Eqn 2)."""

    app: Application
    problems: tuple[dict[str, Any], ...]
    outputs: tuple[dict[str, Any], ...]
    #: exact QoI per problem
    qois: np.ndarray
    #: modeled CPU seconds of the region, and of the rest of the app
    region_seconds: tuple[float, ...]
    other_seconds: tuple[float, ...]
    #: (schema, rows) pairs, one flatten pass per schema
    _rows: list = field(default_factory=list, init=False, repr=False, compare=False)

    @classmethod
    def draw(
        cls,
        app: Application,
        n_problems: int,
        rng: np.random.Generator,
    ) -> "ProblemSet":
        """Draw ``n_problems`` from ``app``'s workload and run each exactly."""
        if n_problems < 1:
            raise ValueError("n_problems must be >= 1")
        problems = app.generate_problems(n_problems, rng)
        outputs, qois, region_seconds, other_seconds = [], [], [], []
        for problem in problems:
            run = app.run_exact(problem)
            outputs.append(run.outputs)
            qois.append(run.qoi)
            region_seconds.append(_cpu_seconds(app, run.region_cost))
            other_seconds.append(_cpu_seconds(app, app.other_cost(problem)))
        return cls(
            app=app,
            problems=tuple(problems),
            outputs=tuple(outputs),
            qois=np.asarray(qois, dtype=np.float64),
            region_seconds=tuple(region_seconds),
            other_seconds=tuple(other_seconds),
        )

    def __len__(self) -> int:
        return len(self.problems)

    def cpu_seconds(self, cost: RegionCost) -> float:
        """Modeled seconds of ``cost`` at paper scale on the CPU model."""
        return _cpu_seconds(self.app, cost)

    def rows(self, schema) -> list[Optional[np.ndarray]]:
        """Each problem flattened by ``schema``; None marks a problem the
        schema cannot encode (:class:`SchemaMismatchError`)."""
        for known, rows in self._rows:
            if known is schema:
                return rows
        rows = []
        for problem in self.problems:
            try:
                rows.append(schema.flatten(problem))
            except SchemaMismatchError:
                rows.append(None)
        self._rows.append((schema, rows))
        return rows

    def breakdown(self, t_replacement: float, t_data_load: float = 0.0) -> SpeedupBreakdown:
        """Eqn 2's terms: this set's exact CPU time beside a replacement's."""
        return SpeedupBreakdown(
            t_numerical_solver=sum(self.region_seconds),
            t_nn_infer=t_replacement,
            t_data_load=t_data_load,
            t_other=sum(self.other_seconds),
        )


def _cpu_seconds(app: Application, cost: RegionCost) -> float:
    scaled = cost.scaled(app.cost_scale)
    return XEON_E5_2698V4.kernel_time(scaled.flops, scaled.bytes_moved)


@dataclass(frozen=True)
class Score:
    """One answer scored against a :class:`ProblemSet` under Eqn 3."""

    #: approximate QoI per problem; NaN where the answer could not encode it
    qois: np.ndarray
    #: Eqn 3 per problem
    hits: np.ndarray

    @property
    def hit_rate(self) -> float:
        return float(np.mean(self.hits))

    @property
    def miss_rate(self) -> float:
        """1 - HitRate, counted as misses / N (the build's f_e): the count
        rounds exactly, where ``1 - hit_rate`` may not."""
        return float(np.mean(~self.hits))


def score(
    problems: ProblemSet,
    answer: Answer,
    *,
    mu: float,
    schema=None,
) -> Score:
    """Score ``answer`` against the exact QoIs of ``problems`` (Eqn 3).

    ``answer(problem, row)`` returns the region outputs for one problem;
    ``row`` is the problem flattened by ``schema``, or None when no schema
    is given.  A problem ``schema`` cannot encode is never asked: its QoI is
    NaN, a miss.
    """
    app = problems.app
    rows: Sequence[Optional[np.ndarray]] = (
        problems.rows(schema) if schema is not None else [None] * len(problems)
    )
    qois = np.full(len(problems), np.nan)
    for i, (problem, row) in enumerate(zip(problems.problems, rows)):
        if schema is None or row is not None:
            qois[i] = app.qoi_from_outputs(problem, answer(problem, row))
    return Score(qois=qois, hits=qoi_hits(problems.qois, qois, mu))


@dataclass
class EvaluationRow:
    """One Fig. 5 bar pair: speedup and HitRate for one application."""

    app_name: str
    app_type: str
    speedup: float
    hit_rate: float
    breakdown: SpeedupBreakdown
    n_problems: int
    mu: float

    def format(self) -> str:
        return (
            f"{self.app_name:<14} type {self.app_type:<3} "
            f"speedup {self.speedup:6.2f}x   HitRate {self.hit_rate:6.1%}   "
            f"(modeled, N={self.n_problems})"
        )


def evaluate_surrogate(
    surrogate: DeployedSurrogate,
    *,
    n_problems: int = 100,
    mu: float = 0.10,
    rng: Optional[np.random.Generator] = None,
    problems: Optional[ProblemSet] = None,
    gpu: DeviceModel = TESLA_V100_NN,
    link: Link = PCIE3_X16,
    transfer_blowup: float = 1.0,
) -> EvaluationRow:
    """Run the Fig. 5 protocol for one application/surrogate pair.

    The surrogate is scored on ``problems``, or on ``n_problems`` drawn
    from ``rng`` when no set is given.  ``transfer_blowup`` multiplies the
    input-transfer volume; the Autokeras baseline pays the app's
    dense-unroll blow-up here because it cannot ship sparse formats to the
    device (§7.2).
    """
    # the online cost model lives with the serving stack, which the
    # offline build never loads
    from ..runtime.serving import OnlineCostModel

    app = surrogate.app
    if problems is None:
        problems = ProblemSet.draw(
            app, n_problems, rng or np.random.default_rng(2023)
        )
    scored = surrogate.score(problems, mu)

    online = OnlineCostModel(device=gpu, link=link, compute_scale=app.data_scale)
    nn_seconds = 0.0
    load_seconds = 0.0
    for problem in problems.problems:
        phases = online.phase_times(
            surrogate.package,
            surrogate.input_bytes(problem) * app.data_scale * transfer_blowup,
        )
        load_seconds += phases["fetch_input"]
        nn_seconds += phases["encode"] + phases["load_model"] + phases["run_model"]
    breakdown = problems.breakdown(nn_seconds, load_seconds)

    return EvaluationRow(
        app_name=app.name,
        app_type=app.app_type,
        speedup=breakdown.value,
        hit_rate=scored.hit_rate,
        breakdown=breakdown,
        n_problems=len(problems),
        mu=mu,
    )
