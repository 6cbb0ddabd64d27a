"""ACCEPT baseline [76] (§7.2 comparison 1).

ACCEPT is a programmer-guided approximation tool: the *user* supplies the
NN topology for each region, and the tool trains it with no feature
reduction, no architecture search, and — crucially — no awareness of the
application's final computation quality.  The paper therefore applies it
only to the Type-II (PARSEC) applications, for which ACCEPT ships
topologies; we mirror that with the per-app topology table below.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..apps.base import Application
from ..core.pipeline import DeployedSurrogate
from ..core.scaling import Scaler
from ..nn.mlp import Topology, build_mlp
from ..nn.train import TrainConfig, train_model
from ..nas.package import SurrogatePackage

__all__ = ["ACCEPT_TOPOLOGIES", "build_accept_surrogate"]

#: the fixed user-given topologies ACCEPT defines for the PARSEC apps —
#: small two-layer perceptrons in the style of the ACCEPT/SNNAP reports
ACCEPT_TOPOLOGIES: dict[str, Topology] = {
    "Blackscholes": Topology(hidden=(16, 16), activation="sigmoid"),
    "Canneal": Topology(hidden=(8, 8), activation="sigmoid"),
    "fluidanimate": Topology(hidden=(16, 16), activation="sigmoid"),
    "streamcluster": Topology(hidden=(8, 8), activation="sigmoid"),
    "X264": Topology(hidden=(16, 16), activation="sigmoid"),
}


def build_accept_surrogate(
    app: Application,
    *,
    topology: Optional[Topology] = None,
    n_samples: int = 400,
    num_epochs: int = 150,
    seed: int = 0,
) -> DeployedSurrogate:
    """Train an ACCEPT-style surrogate: fixed topology, quality-blind.

    Raises ``ValueError`` for apps ACCEPT has no topology for (Type I/III),
    matching the paper's evaluation scope.
    """
    if topology is None:
        try:
            topology = ACCEPT_TOPOLOGIES[app.name]
        except KeyError:
            raise ValueError(
                f"ACCEPT defines no NN topology for {app.name!r} "
                "(the paper applies ACCEPT to Type-II applications only)"
            ) from None

    rng = np.random.default_rng(seed)
    acq = app.acquire(n_samples=n_samples, rng=rng)
    x_scaler = Scaler.fit(acq.x)
    y_scaler = Scaler.fit(acq.y)
    x = x_scaler.transform(acq.x)
    y = y_scaler.transform(acq.y)

    model = build_mlp(acq.input_dim, acq.output_dim, topology, rng)
    train_model(
        model,
        x,
        y,
        TrainConfig(num_epochs=num_epochs, lr=1e-3, patience=25, seed=seed),
    )
    package = SurrogatePackage(
        model=model,
        topology=topology,
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
