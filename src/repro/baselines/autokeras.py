"""Autokeras-style AutoML baseline (§7.2 comparison 3).

Autokeras automatically searches NN architectures for best *prediction
accuracy*.  The paper identifies three reasons it underperforms
Auto-HPCnet when used for surrogate construction, all reproduced here:

1. **no feature reduction** — the model consumes the full raw input;
2. **no inference-time objective** — the search minimizes validation error
   only, so it happily picks large, slow models;
3. **no sparse-input support** — sparse matrices are unrolled to dense
   before being shipped to the device, paying the full dense-transfer
   blow-up (14x for the NPB CG matrix) every inference, and the raw
   unstandardized high-dynamic-range values destabilize training
   (the "gradient overflow" failure of §7.2).

It is also quality-unaware: the application's QoI never enters the search,
so the resulting hit rate — and with it the restart-adjusted speedup of
Fig. 6 — can collapse.
"""

from __future__ import annotations

import numpy as np

from ..apps.base import Application
from ..bo.optimize import BayesianOptimizer
from ..core.pipeline import DeployedSurrogate
from ..core.scaling import Scaler
from ..nas.evaluation import evaluate_topology
from ..nas.package import SurrogatePackage
from ..nas.space import TopologySpace
from ..nn.train import TrainConfig

__all__ = ["build_autokeras_surrogate"]


def build_autokeras_surrogate(
    app: Application,
    *,
    n_trials: int = 8,
    n_samples: int = 400,
    num_epochs: int = 150,
    seed: int = 0,
) -> DeployedSurrogate:
    """Accuracy-only NAS on the raw, unreduced input features."""
    rng = np.random.default_rng(seed)
    acq = app.acquire(n_samples=n_samples, rng=rng)

    if app.sparse_input():
        # Autokeras consumes the dense unroll as-is: no standardization of
        # the raw matrix values (diagonal shifts ~n vs zeros elsewhere)
        x_scaler = Scaler.identity(acq.input_dim)
    else:
        x_scaler = Scaler.fit(acq.x)
    y_scaler = Scaler.fit(acq.y)
    x = x_scaler.transform(acq.x)
    y = y_scaler.transform(acq.y)

    space = TopologySpace(
        max_layers=3,
        width_choices=(32, 64, 128),      # Autokeras defaults skew large
        activations=("relu",),
        allow_residual=True,
    )
    optimizer = BayesianOptimizer(
        threshold=None, init_samples=3, rng=np.random.default_rng(seed + 1)
    )
    best_candidate = None
    best_error = np.inf
    search_rng = np.random.default_rng(seed + 2)
    for trial in range(n_trials):
        pool = np.array([space.encode(space.sample(search_rng)) for _ in range(48)])
        idx = optimizer.ask(pool)
        topology = space.decode(pool[idx])
        candidate = evaluate_topology(
            topology,
            x,
            y,
            train_config=TrainConfig(num_epochs=num_epochs, lr=1e-3, patience=25, seed=seed),
            rng=np.random.default_rng(seed + 100 + trial),
        )
        # accuracy-only objective: validation error, never inference time
        optimizer.tell(space.encode(topology), candidate.val_error)
        if candidate.val_error < best_error:
            best_error = candidate.val_error
            best_candidate = candidate

    assert best_candidate is not None
    package = SurrogatePackage(
        model=best_candidate.package.model,
        topology=best_candidate.topology,
        input_dim=acq.input_dim,
        output_dim=acq.output_dim,
        x_scaler=x_scaler,
        y_scaler=y_scaler,
    )
    return DeployedSurrogate(
        app=app,
        package=package,
        input_schema=acq.input_schema,
        output_schema=acq.output_schema,
    )
