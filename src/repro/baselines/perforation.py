"""Loop perforation baseline, HPAC-style [63] (§7.2 comparison 2).

Loop perforation skips a fraction of a loop's iterations.  Following HPAC,
a small offline search finds the largest skip rate whose QoI degradation
stays within the quality requirement; the perforated application then runs
on the CPU (perforation does not move code to an accelerator — which is
exactly why the paper finds its speedups limited: the approximation
granularity is the loop iteration, and the ceiling is ``1 / (1 - rate)``
on the loop itself).

Each application gets a strategy describing *which* loop perforates and
how the region cost scales; apps with no safely-perforatable loop (a
single direct solve, an FFT butterfly network) only admit rate 0, as a
perforated FFT/LU is numerically meaningless — the honest analogue of
HPAC refusing to annotate such loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

import numpy as np

from ..apps.base import Application, RegionCost
from ..core.evaluation import ProblemSet, score
from ..perf.metrics import SpeedupBreakdown, effective_speedup

__all__ = [
    "PerforationResult",
    "perforated_run",
    "find_max_rate",
    "evaluate_perforation",
    "PERFORATABLE",
]

Strategy = Callable[[Application, Mapping[str, Any], float], tuple[dict, RegionCost]]


def _perforate_iters(key: str, nominal: Callable[[Application], int]) -> Strategy:
    def strategy(app: Application, problem: Mapping[str, Any], rate: float):
        p = dict(problem)
        p[key] = max(1, int(round(nominal(app) * (1.0 - rate))))
        outputs = app.exact_outputs(p)
        return outputs, app.region_cost(problem, outputs)

    return strategy


def _perforate_scaled(key: str, attr: str) -> Strategy:
    """Reduce an iteration knob; cost scales with the knob ratio."""

    def strategy(app: Application, problem: Mapping[str, Any], rate: float):
        original = int(problem[key])
        reduced = max(1, int(round(original * (1.0 - rate))))
        p = dict(problem)
        p[key] = reduced
        outputs = app.exact_outputs(p)
        cost = app.region_cost(problem, outputs).scaled(reduced / original)
        return outputs, cost

    return strategy


def _perforate_blackscholes(app, problem, rate):
    n = app.n
    keep = max(1, int(round(n * (1.0 - rate))))
    idx = np.linspace(0, n - 1, keep).astype(np.int64)
    sub = {k: np.asarray(v)[idx] for k, v in problem.items()}
    prices_sub = app.region_fn(**sub)
    # nearest-computed fill for the skipped options
    nearest = np.abs(np.arange(n)[:, None] - idx[None, :]).argmin(axis=1)
    prices = prices_sub[nearest]
    cost = app.region_cost(problem, {}).scaled(keep / n)
    return {"prices": prices}, cost


def _perforate_canneal(app, problem, rate):
    proposals = np.asarray(problem["proposals"])
    keep = max(1, int(round(proposals.shape[0] * (1.0 - rate))))
    p = dict(problem)
    p["proposals"] = proposals[:keep]
    outputs = app.exact_outputs(p)
    cost = app.region_cost(problem, outputs).scaled(keep / proposals.shape[0])
    return outputs, cost


def _perforate_x264(app, problem, rate):
    outputs = app.exact_outputs(problem)
    recon = np.array(outputs["recon"], copy=True)
    previous = np.asarray(problem["previous"])
    size = recon.shape[0]
    blocks = [(by, bx) for by in range(0, size, 4) for bx in range(0, size, 4)]
    skip = int(round(len(blocks) * rate))
    for by, bx in blocks[:skip]:           # deterministic raster-order skip
        recon[by : by + 4, bx : bx + 4] = previous[by : by + 4, bx : bx + 4]
    cost = app.region_cost(problem, outputs).scaled(1.0 - rate)
    return {"recon": recon}, cost


def _no_perforation(app, problem, rate):
    if rate > 0:
        raise ValueError(f"{app.name} has no safely-perforatable loop")
    outputs = app.exact_outputs(problem)
    return outputs, app.region_cost(problem, outputs)


#: app name -> (strategy, admissible rates)
PERFORATABLE: dict[str, tuple[Strategy, tuple[float, ...]]] = {
    "CG": (_perforate_iters("max_iters", lambda a: a.n), (0.0, 0.125, 0.25, 0.375, 0.5)),
    "AMG": (_perforate_iters("max_iters", lambda a: a.n // 2), (0.0, 0.125, 0.25, 0.375, 0.5)),
    "MG": (_perforate_scaled("sweeps", "sweeps"), (0.0, 0.25, 0.5)),
    "Blackscholes": (_perforate_blackscholes, (0.0, 0.25, 0.5, 0.75)),
    "Canneal": (_perforate_canneal, (0.0, 0.25, 0.5, 0.75)),
    "fluidanimate": (_perforate_scaled("jacobi_iters", "jacobi_iters"), (0.0, 0.25, 0.5, 0.75)),
    "streamcluster": (_perforate_scaled("power_iters", "power_iters"), (0.0, 1.0 / 3.0, 2.0 / 3.0)),
    "X264": (_perforate_x264, (0.0, 0.25, 0.5, 0.75)),
    "FFT": (_no_perforation, (0.0,)),
    "miniQMC": (_no_perforation, (0.0,)),
    "Laghos": (_no_perforation, (0.0,)),
}


def perforated_run(
    app: Application, problem: Mapping[str, Any], rate: float
) -> tuple[dict, RegionCost]:
    """Run the app's perforated region at ``rate``; returns outputs + cost."""
    try:
        strategy, rates = PERFORATABLE[app.name]
    except KeyError:
        raise ValueError(f"no perforation strategy for {app.name!r}") from None
    if not any(abs(rate - r) < 1e-9 for r in rates):
        raise ValueError(f"rate {rate} not admissible for {app.name}; use {rates}")
    return strategy(app, problem, rate)


@dataclass
class PerforationResult:
    """Outcome of the HPAC-style rate search + evaluation."""

    app_name: str
    rate: float
    speedup: float
    hit_rate: float
    breakdown: SpeedupBreakdown


def find_max_rate(
    app: Application,
    *,
    mu: float = 0.10,
    n_problems: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Largest admissible skip rate whose QoI degradation stays within mu."""
    _, rates = PERFORATABLE[app.name]
    problems = ProblemSet.draw(app, n_problems, rng or np.random.default_rng(0))
    best = 0.0
    for rate in sorted(rates):
        scored = score(
            problems, lambda problem, _row: perforated_run(app, problem, rate)[0], mu=mu
        )
        if scored.hit_rate >= 1.0 - 1e-9:
            best = rate
        else:
            break
    return best


def evaluate_perforation(
    app: Application,
    rate: float,
    *,
    n_problems: int = 50,
    mu: float = 0.10,
    rng: Optional[np.random.Generator] = None,
    problems: Optional[ProblemSet] = None,
) -> PerforationResult:
    """Fig. 6 protocol for the perforated application, on ``problems`` or
    on ``n_problems`` drawn from ``rng``."""
    if problems is None:
        problems = ProblemSet.draw(
            app, n_problems, rng or np.random.default_rng(2023)
        )
    perforated_seconds: list[float] = []

    def answer(problem, _row):
        outputs, cost = perforated_run(app, problem, rate)
        perforated_seconds.append(problems.cpu_seconds(cost))
        return outputs

    scored = score(problems, answer, mu=mu)
    # perforation keeps the region on the CPU: its "surrogate" time is the
    # perforated region itself, with no device transfer
    breakdown = problems.breakdown(sum(perforated_seconds))
    return PerforationResult(
        app_name=app.name,
        rate=rate,
        speedup=effective_speedup(breakdown, scored.hit_rate),
        hit_rate=scored.hit_rate,
        breakdown=breakdown,
    )
