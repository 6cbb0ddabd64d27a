"""Inner (low-level) loop of Algorithm 2: topology search at fixed K.

A constrained Bayesian optimization over the θ space: minimize inference
cost ``f_c`` subject to quality ``f_e <= epsilon``.  This is the role
Autokeras plays in the paper's implementation — but, unlike stock AutoML,
the objective is runtime cost and the quality constraint is the
application's, which is what "quality-oriented" (§6.2) means.

Two wall-clock levers sit on top of the plain ask→train→tell loop:

* **Batched parallel trials** — ``parallel_trials=q`` proposes q points per
  round via the optimizer's constant-liar :meth:`~repro.bo.optimize.BayesianOptimizer.ask_batch`
  and evaluates them concurrently over ``repro.parallel``'s thread ranks.
  Trial identity (index, rng seed) is fixed at *proposal* time and results
  are told back in index order, so the search is bit-identical no matter
  how many workers run the batch or in what order trials finish.
* **Median pruning** — with ``prune=True``, a trial whose validation loss
  at epoch ``e`` is worse than the median of earlier trials' losses at the
  same epoch is cut short; its partial result still feeds the GP.  The rule
  only consults trials from *previous* rounds (a snapshot taken before the
  batch is dispatched), which keeps pruning decisions independent of
  concurrent completion order.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .. import obs
from ..autoencoder.model import Autoencoder
from ..bo.optimize import BayesianOptimizer
from ..nn.mlp import Topology
from ..nn.train import TrainConfig
from ..parallel.pool import parallel_map
from ..perf.devices import DeviceModel, TESLA_V100_NN
from .evaluation import CandidateResult, QualityFn, evaluate_topology
from .space import TopologySpace

__all__ = ["InnerSearchResult", "TopologySearch"]

#: histogram buckets for proposed batch sizes (powers of two up to 32)
_BATCH_ASK_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass
class InnerSearchResult:
    """Best candidate and full trial history of one inner-loop run."""

    best: Optional[CandidateResult]
    history: list[CandidateResult] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.history)

    @property
    def n_pruned(self) -> int:
        return sum(1 for c in self.history if c.pruned)

    def feasible(self, epsilon: float) -> list[CandidateResult]:
        return [c for c in self.history if c.f_e <= epsilon]


@dataclass(frozen=True)
class _Trial:
    """One proposed evaluation: identity assigned at ask time.

    The seed derives from ``index``, not from how much history exists when
    the trial *runs* — the old ``seed + 100 + len(history)`` made results
    depend on completion order.
    """

    index: int
    topology: Topology
    seed: int


class TopologySearch:
    """BO-driven search over surrogate topologies (the low-level loop)."""

    def __init__(
        self,
        space: TopologySpace,
        *,
        epsilon: float = 0.10,
        device: DeviceModel = TESLA_V100_NN,
        train_config: TrainConfig = TrainConfig(num_epochs=60, patience=8),
        init_samples: int = 3,
        pool_size: int = 48,
        seed: int = 0,
        cost_metric: str = "time",
        parallel_trials: int = 1,
        trial_workers: Optional[int] = None,
        prune: bool = False,
        prune_warmup_epochs: int = 5,
        prune_min_curves: int = 2,
    ) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if parallel_trials < 1:
            raise ValueError("parallel_trials must be >= 1")
        if trial_workers is not None and trial_workers < 1:
            raise ValueError("trial_workers must be >= 1")
        self.space = space
        self.epsilon = epsilon
        self.device = device
        self.train_config = train_config
        self.init_samples = init_samples
        self.pool_size = pool_size
        self.seed = seed
        self.cost_metric = cost_metric
        self.parallel_trials = parallel_trials
        self.trial_workers = trial_workers
        self.prune = prune
        self.prune_warmup_epochs = prune_warmup_epochs
        self.prune_min_curves = prune_min_curves

    # -- pruning ---------------------------------------------------------------

    def _median_pruner(
        self, curves: list[tuple[float, ...]]
    ) -> Optional[Callable[[int, float, float], bool]]:
        """Median-stopping callback against a fixed snapshot of past curves.

        The snapshot is taken when the batch is *proposed*, so every trial
        of a round prunes against the same reference regardless of which
        worker finishes first — determinism survives parallelism.
        """
        if not self.prune or not curves:
            return None
        warmup = self.prune_warmup_epochs
        min_curves = self.prune_min_curves

        def callback(epoch: int, train_loss: float, val_loss: float) -> bool:
            if epoch < warmup:
                return False
            column = [curve[epoch] for curve in curves if len(curve) > epoch]
            if len(column) < min_curves:
                return False
            return val_loss > statistics.median(column)

        return callback

    # -- main loop -------------------------------------------------------------

    def search(
        self,
        x: np.ndarray,
        y: np.ndarray,
        n_trials: int,
        *,
        autoencoder: Optional[Autoencoder] = None,
        x_raw: Optional[np.ndarray] = None,
        quality_fn: Optional[QualityFn] = None,
        initial_topology: Optional[Topology] = None,
    ) -> InnerSearchResult:
        """Run ``n_trials`` update/generation/evaluation steps.

        ``initial_topology`` implements Table 1's ``searchType=userModel``:
        the user's topology is evaluated first and seeds the GP.
        """
        rng = np.random.default_rng(self.seed)
        optimizer = BayesianOptimizer(
            threshold=self.epsilon,
            init_samples=self.init_samples,
            rng=np.random.default_rng(self.seed + 1),
        )
        history: list[CandidateResult] = []
        curves: list[tuple[float, ...]] = []
        registry = obs.get_registry()

        def evaluate_trial(trial: _Trial, pruner) -> CandidateResult:
            with obs.span(
                "nas.trial",
                trial=trial.index,
                K=x.shape[1],
                topology=trial.topology.describe(),
            ) as sp:
                candidate = evaluate_topology(
                    trial.topology,
                    x,
                    y,
                    autoencoder=autoencoder,
                    x_raw=x_raw,
                    device=self.device,
                    quality_fn=quality_fn,
                    train_config=self.train_config,
                    rng=np.random.default_rng(trial.seed),
                    cost_metric=self.cost_metric,
                    epoch_callback=pruner,
                )
                sp.set_attribute("f_c", candidate.f_c)
                sp.set_attribute("f_e", candidate.f_e)
                if candidate.pruned:
                    sp.set_attribute("pruned", True)
            return candidate

        def run_round(trials: list[_Trial]) -> None:
            """Evaluate one proposed batch and tell results in index order."""
            pruner = self._median_pruner(curves)
            registry.histogram(
                "repro_nas_batch_ask_size",
                "Trials proposed per inner-loop batch ask",
                buckets=_BATCH_ASK_BUCKETS,
            ).observe(len(trials))
            workers = min(self.trial_workers or self.parallel_trials, len(trials))
            results = parallel_map(
                lambda t: evaluate_trial(t, pruner), trials, workers=workers
            )
            # parallel_map returns results in input (= trial-index) order, so
            # the GP sees an identical observation sequence however the
            # threads interleaved
            for candidate in results:
                history.append(candidate)
                curves.append(candidate.val_curve)
                optimizer.tell(
                    self.space.encode(candidate.topology),
                    math.log(candidate.f_c),
                    candidate.f_e,
                )
                if candidate.pruned:
                    registry.counter(
                        "repro_nas_trials_pruned_total",
                        "Inner-loop trials cut short by the median-stopping rule",
                    ).inc()

        next_index = 0

        def make_trial(topology: Topology) -> _Trial:
            nonlocal next_index
            trial = _Trial(
                index=next_index,
                topology=topology,
                seed=self.seed + 100 + next_index,
            )
            next_index += 1
            return trial

        if initial_topology is not None and n_trials > 0:
            run_round([make_trial(initial_topology)])

        while len(history) < n_trials:
            pool = np.array(
                [self.space.encode(self.space.sample(rng)) for _ in range(self.pool_size)]
            )
            q = min(self.parallel_trials, n_trials - len(history))
            chosen = optimizer.ask_batch(pool, q)
            run_round([make_trial(self.space.decode(pool[idx])) for idx in chosen])

        feasible = [c for c in history if c.f_e <= self.epsilon]
        best = min(feasible, key=lambda c: c.f_c) if feasible else (
            min(history, key=lambda c: c.f_e) if history else None
        )
        return InnerSearchResult(best=best, history=history)
