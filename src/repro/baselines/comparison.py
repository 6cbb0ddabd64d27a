"""Fig. 6 harness: Auto-HPCnet vs ACCEPT vs loop perforation vs Autokeras.

All four methods accelerate the *same* code regions (Table 2) and all are
held to the same quality requirement (mu = 10 %): per §7.1, a problem whose
surrogate output misses the requirement restarts on the original code, so
every reported speedup is the restart-adjusted
:func:`~repro.perf.metrics.effective_speedup`.  All four are scored on one
:class:`~repro.core.evaluation.ProblemSet`, so the exact region runs once
per evaluation problem, not once per method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..apps.base import Application
from ..core.config import AutoHPCnetConfig
from ..core.evaluation import ProblemSet, evaluate_surrogate
from ..core.pipeline import AutoHPCnet
from ..perf.metrics import effective_speedup
from .accept import build_accept_surrogate
from .autokeras import build_autokeras_surrogate
from .perforation import evaluate_perforation, find_max_rate

__all__ = ["MethodRow", "compare_methods", "METHODS"]

METHODS = ("Auto-HPCnet", "ACCEPT", "LoopPerforation", "Autokeras")


@dataclass
class MethodRow:
    """One bar of Fig. 6."""

    app_name: str
    method: str
    speedup: float          # restart-adjusted (quality-enforced)
    hit_rate: float
    raw_speedup: float      # Eqn 2 without restart accounting
    note: str = ""

    def format(self) -> str:
        return (
            f"{self.app_name:<14} {self.method:<16} "
            f"{self.speedup:7.2f}x   hit {self.hit_rate:6.1%}   "
            f"(raw {self.raw_speedup:6.2f}x) {self.note}"
        )


def compare_methods(
    app: Application,
    *,
    config: Optional[AutoHPCnetConfig] = None,
    n_problems: int = 50,
    mu: float = 0.10,
    seed: int = 0,
) -> list[MethodRow]:
    """Evaluate all four methods on ``app``; returns one row per method."""
    config = config or AutoHPCnetConfig(seed=seed)
    rows: list[MethodRow] = []
    problems = ProblemSet.draw(app, n_problems, np.random.default_rng(2023))

    # --- Auto-HPCnet ---
    build = AutoHPCnet(config).build(app)
    row = evaluate_surrogate(build.surrogate, mu=mu, problems=problems)
    rows.append(
        MethodRow(
            app_name=app.name,
            method="Auto-HPCnet",
            speedup=effective_speedup(row.breakdown, row.hit_rate),
            hit_rate=row.hit_rate,
            raw_speedup=row.speedup,
        )
    )

    # --- ACCEPT (Type-II only, as in the paper) ---
    try:
        accept = build_accept_surrogate(
            app, n_samples=config.n_samples, num_epochs=config.num_epochs, seed=seed
        )
        arow = evaluate_surrogate(accept, mu=mu, problems=problems)
        rows.append(
            MethodRow(
                app_name=app.name,
                method="ACCEPT",
                speedup=effective_speedup(arow.breakdown, arow.hit_rate),
                hit_rate=arow.hit_rate,
                raw_speedup=arow.speedup,
            )
        )
    except ValueError as exc:
        rows.append(
            MethodRow(
                app_name=app.name,
                method="ACCEPT",
                speedup=float("nan"),
                hit_rate=float("nan"),
                raw_speedup=float("nan"),
                note=f"[not applicable: {exc}]",
            )
        )

    # --- loop perforation (HPAC rate search) ---
    rate = find_max_rate(app, mu=mu, rng=np.random.default_rng(seed + 5))
    prow = evaluate_perforation(app, rate, mu=mu, problems=problems)
    rows.append(
        MethodRow(
            app_name=app.name,
            method="LoopPerforation",
            speedup=prow.speedup,
            hit_rate=prow.hit_rate,
            raw_speedup=prow.breakdown.value,
            note=f"[rate {rate:.2f}]",
        )
    )

    # --- Autokeras (dense transfers pay the unroll blow-up) ---
    autokeras = build_autokeras_surrogate(
        app, n_samples=config.n_samples, num_epochs=config.num_epochs, seed=seed
    )
    krow = evaluate_surrogate(
        autokeras, mu=mu, problems=problems, transfer_blowup=app.unrolled_blowup
    )
    rows.append(
        MethodRow(
            app_name=app.name,
            method="Autokeras",
            speedup=effective_speedup(krow.breakdown, krow.hit_rate),
            hit_rate=krow.hit_rate,
            raw_speedup=krow.speedup,
        )
    )
    return rows
