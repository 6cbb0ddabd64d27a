"""Auto-HPCnet user configuration — the complete Table 1 knob set.

Search-level knobs control the hierarchical Bayesian optimization;
model-level knobs control surrogate training.  :meth:`AutoHPCnetConfig.to_search_config`
lowers these into the NAS layer's :class:`~repro.nas.hierarchical.SearchConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..nn.mlp import Topology
from ..nas.hierarchical import SearchConfig

__all__ = ["AutoHPCnetConfig"]


@dataclass(frozen=True)
class AutoHPCnetConfig:
    """All Table 1 knobs plus reproduction-scale budgets."""

    # --- search-level (Table 1) ---
    search_type: str = "autokeras"      # -searchType: autokeras | userModel | fullInput
    bayesian_init: int = 2              # -bayesianInit
    encoding_loss: float = 0.5          # -encodingLoss (acceptable sigma_y)
    quality_loss: float = 0.10          # -qualityLoss (epsilon on the app QoI)
    qoi_mu: float = 0.10                # per-problem QoI tolerance (Eqn 3's mu)
    # --- model-level (Table 1) ---
    init_model: Optional[Topology] = None   # -initModel (userModel start point)
    preprocessing: str = "standardize"      # -preprocessing: standardize | none
    num_epochs: int = 150                   # -numEpoch
    train_ratio: float = 0.8                # -trainRatio
    batch_size: int = 32                    # -batchSize
    lr: float = 1e-3                        # -lr
    weight_decay: float = 1e-4
    # --- reproduction-scale budgets ---
    n_samples: int = 400
    outer_iterations: int = 3
    inner_trials: int = 4
    input_dim_levels: int = 3
    ae_epochs: int = 60
    quality_problems: int = 12          # validation problems for f_e
    cost_metric: str = "time"           # f_c metric: "time" | "energy" (§5.1)
    model_type: str = "mlp"             # surrogate family: "mlp" | "cnn" (Table 1)
    preflight: str = "error"            # static fitness preflight: off | warn | error
    # --- search throughput (batched BO / caching / pruning) ---
    parallel_trials: int = 1            # inner trials proposed+evaluated per batch
    trial_workers: Optional[int] = None  # eval threads per batch (None: = batch size)
    prune_trials: bool = False          # median-stopping rule on inner trials
    ae_cache: bool = True               # reuse trained autoencoder artifacts
    compile_plans: bool = True          # trace-and-compile the serving hot path
    seed: int = 0

    def __post_init__(self) -> None:
        if self.preprocessing not in ("standardize", "none"):
            raise ValueError("preprocessing must be 'standardize' or 'none'")
        if self.model_type not in ("mlp", "cnn"):
            raise ValueError("model_type must be 'mlp' or 'cnn'")
        if self.preflight not in ("off", "warn", "error"):
            raise ValueError("preflight must be 'off', 'warn' or 'error'")
        if not 0.0 <= self.quality_loss:
            raise ValueError("quality_loss must be non-negative")
        if self.n_samples < 10:
            raise ValueError("need at least 10 training samples")
        if self.parallel_trials < 1:
            raise ValueError("parallel_trials must be >= 1")

    def to_search_config(self, **overrides) -> SearchConfig:
        """Lower to the NAS layer's config, applying per-app overrides."""
        params = dict(
            search_type=self.search_type,
            bayesian_init=self.bayesian_init,
            encoding_loss=self.encoding_loss,
            quality_loss=self.quality_loss,
            outer_iterations=self.outer_iterations,
            inner_trials=self.inner_trials,
            init_model=self.init_model,
            num_epochs=self.num_epochs,
            train_ratio=self.train_ratio,
            batch_size=self.batch_size,
            lr=self.lr,
            weight_decay=self.weight_decay,
            ae_epochs=self.ae_epochs,
            cost_metric=self.cost_metric,
            parallel_trials=self.parallel_trials,
            trial_workers=self.trial_workers,
            prune_trials=self.prune_trials,
            ae_cache=self.ae_cache,
            seed=self.seed,
        )
        params.update(overrides)
        return SearchConfig(**params)
