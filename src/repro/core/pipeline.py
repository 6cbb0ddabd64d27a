"""The Auto-HPCnet end-to-end pipeline (Fig. 1).

``AutoHPCnet.build(app)`` runs the whole workflow on one application:

1. **Data acquisition** (§3): trace the annotated region, build the DDDG,
   classify inputs/outputs, generate training samples by perturbation.
2. **Preprocessing**: standardize features (Table 1 ``preprocessing``).
3. **2D NAS** (§4+§5): hierarchical BO over (K, θ) with the app-level
   quality constraint — f_e is measured by actually running the
   application's QoI on validation problems with the candidate surrogate.
4. **Packaging**: the best package takes the build's scalers, so it maps
   raw region rows to raw outputs, and the result is a
   :class:`DeployedSurrogate` that can stand in for the region in the
   running application.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy as np

from .. import obs
from ..apps.base import Application
from ..compile import PlanCache, UntraceableModelError, warm_plan_cache
from ..extract.acquisition import AcquisitionResult
from ..nas.hierarchical import Hierarchical2DSearch, SearchResult
from ..nas.package import SurrogatePackage
from ..nas.space import CNNSpace, InputDimSpace, TopologySpace
from ..perf.timers import PhaseTimer
from ..registry import ArtifactRef, ModelRegistry
from ..static.preflight import preflight_region
from .config import AutoHPCnetConfig
from .evaluation import ProblemSet, Score, score
from .scaling import Scaler

__all__ = ["DeployedSurrogate", "BuildResult", "AutoHPCnet"]


@dataclass
class DeployedSurrogate:
    """A surrogate wired to one application's region signature.

    The package maps flat raw input rows to flat raw outputs (it owns
    its scalers); the schemas turn a problem into such a row and the
    outputs back into the region's named values.
    """

    app: Application
    package: SurrogatePackage
    input_schema: Any
    output_schema: Any

    def run(self, problem: Mapping[str, Any]) -> dict[str, Any]:
        """Replace the region for one input problem; returns output dict.

        Raises :class:`SchemaMismatchError` for a problem the input schema
        cannot encode (:class:`~repro.runtime.GuardedSurrogate` runs the
        exact region for it instead).
        """
        x = self.input_schema.flatten(problem)
        return self.output_schema.unflatten(self.package.predict(x))

    def run_row(self, x: np.ndarray) -> dict[str, Any]:
        """:meth:`run` for a problem its input schema already flattened."""
        return self.output_schema.unflatten(self.package.predict(x))

    def qoi(self, problem: Mapping[str, Any]) -> float:
        """Application QoI when the surrogate replaces the region."""
        return self.app.qoi_from_outputs(problem, self.run(problem))

    def score(self, problems: ProblemSet, mu: float) -> Score:
        """Eqn 3 for this surrogate on ``problems``: each problem is
        flattened once per set, and one it cannot encode is a miss."""
        return score(
            problems,
            lambda _problem, row: self.run_row(row),
            mu=mu,
            schema=self.input_schema,
        )

    def input_bytes(self, problem: Mapping[str, Any]) -> float:
        """Bytes shipped to the device per invocation (compressed if sparse)."""
        total = 0.0
        for f in self.input_schema.fields:
            value = problem[f.name]
            if hasattr(value, "nbytes") and callable(getattr(value, "nbytes")):
                total += value.nbytes()       # our sparse matrices
            elif isinstance(value, np.ndarray):
                total += value.nbytes
            else:
                total += 8.0
        return total


@dataclass
class BuildResult:
    """Everything produced by one end-to-end build."""

    surrogate: DeployedSurrogate
    acquisition: AcquisitionResult
    search: SearchResult
    timers: PhaseTimer
    f_e: float
    f_c: float
    #: registry version published under the app's name (None when the build
    #: ran without a checkpoint_dir to host the registry)
    artifact: Optional[ArtifactRef] = None

    def summary(self) -> str:
        lines = (
            f"{self.acquisition.summary()}\n"
            f"{self.search.summary()}\n"
            f"offline phases:\n{self.timers.report()}"
        )
        if self.artifact is not None:
            lines += (
                f"\npublished: {self.artifact.name} "
                f"v{self.artifact.version} -> {self.artifact.path}"
            )
        return lines


class AutoHPCnet:
    """Facade: configure once, build surrogates for any annotated app."""

    def __init__(self, config: AutoHPCnetConfig = AutoHPCnetConfig()) -> None:
        self.config = config

    # -- quality constraint ------------------------------------------------------

    def _make_quality_fn(
        self,
        app: Application,
        input_schema,
        output_schema,
        x_scaler: Scaler,
        y_scaler: Scaler,
    ):
        """f_e = 1 - HitRate of the candidate on the validation problems.

        Eqn 3 turned into a constraint: each candidate package gets the
        build's scalers and is wrapped as the :class:`DeployedSurrogate`
        the build would ship, then scored
        by the evaluation's own scorer, so the search constrains exactly
        the HitRate :func:`~repro.core.evaluation.evaluate_surrogate`
        reports.  A problem the input schema cannot encode is a miss for
        every candidate, and a NaN surrogate QoI is a miss.
        """
        validation = ProblemSet.draw(
            app,
            self.config.quality_problems,
            np.random.default_rng(self.config.seed + 999),
        )
        validation.rows(input_schema)   # flattened once per build
        mu = self.config.qoi_mu

        def quality_fn(package: SurrogatePackage) -> float:
            surrogate = DeployedSurrogate(
                app,
                replace(package, x_scaler=x_scaler, y_scaler=y_scaler),
                input_schema,
                output_schema,
            )
            return surrogate.score(validation, mu).miss_rate

        return quality_fn

    # -- main entry point -------------------------------------------------------------

    def build(
        self,
        app: Application,
        *,
        checkpoint_dir: Optional[str] = None,
    ) -> BuildResult:
        """Run acquisition + 2D NAS for ``app``; returns the deployed surrogate."""
        cfg = self.config
        timers = PhaseTimer()

        with obs.span("build", app=app.name, samples=cfg.n_samples):
            with obs.span("build.preflight"), timers.measure("static_preflight"):
                # fail fast on an unfit region (impure, nondeterministic, or
                # inconsistently annotated) before any trace/train cost is
                # paid; raises PreflightError in "error" mode, warns in
                # "warn" mode
                preflight_region(app.region_fn, mode=cfg.preflight)

            with obs.span("build.acquire"), timers.measure("trace_generation"):
                acq = app.acquire(
                    n_samples=cfg.n_samples,
                    rng=np.random.default_rng(cfg.seed),
                    dddg_workers=2,
                )
                if cfg.model_type == "mlp":
                    # the MLP family reads each sparse field at its live
                    # positions only; a CNN convolves the whole unrolled
                    # signal
                    acq = acq.gathered()

            with obs.span("build.encode", input_dim=acq.input_dim):
                if cfg.preprocessing == "standardize" and not app.sparse_input():
                    x_scaler = Scaler.fit(acq.x)
                else:
                    # raw values for sparse-input apps: scaling would fill
                    # the dense unroll's zero pattern a CNN reads, and the
                    # AMG search trained more slowly on standardized
                    # gathered rows
                    x_scaler = Scaler.identity(acq.input_dim)
                y_scaler = (
                    Scaler.fit(acq.y)
                    if cfg.preprocessing == "standardize"
                    else Scaler.identity(acq.output_dim)
                )
                x = x_scaler.transform(acq.x)
                y = y_scaler.transform(acq.y)

                quality_fn = self._make_quality_fn(
                    app, acq.input_schema, acq.output_schema, x_scaler, y_scaler
                )

            overrides = app.nas_overrides()
            if cfg.model_type == "cnn":
                # convolutional surrogates consume the raw feature signal, so
                # the search runs fullInput (pool factors are tied to the
                # signal length, which feature reduction would change per K)
                overrides = dict(overrides)
                overrides["search_type"] = "fullInput"
            search_config = cfg.to_search_config(**overrides)
            if cfg.model_type == "cnn":
                topology_space = CNNSpace(
                    signal_length=acq.input_dim,
                    max_layers=2,
                    channel_choices=(2, 4, 8),
                    kernel_choices=(3, 5),
                    pool_choices=(1, 2),
                    activations=("relu", "tanh"),
                )
            else:
                topology_space = TopologySpace(
                    max_layers=3,
                    width_choices=(8, 16, 32, 64, 128),
                    activations=("relu", "tanh"),
                    allow_residual=True,
                )
            input_space = InputDimSpace.geometric(
                acq.input_dim, levels=cfg.input_dim_levels, min_dim=4
            )
            search = Hierarchical2DSearch(topology_space, input_space, search_config)
            with obs.span("build.search"):
                result = search.run(
                    x, y, quality_fn=quality_fn, checkpoint_dir=checkpoint_dir,
                    scalers=(x_scaler, y_scaler),
                )
            timers = timers.merged(result.timers)

            if result.best is None:
                raise RuntimeError(
                    f"2D NAS found no surrogate for {app.name}; "
                    "increase budgets or relax quality_loss"
                )

            with obs.span("build.package", K=result.best_k):
                package = replace(
                    result.best.package, x_scaler=x_scaler, y_scaler=y_scaler
                )
                surrogate = DeployedSurrogate(
                    app=app,
                    package=package,
                    input_schema=acq.input_schema,
                    output_schema=acq.output_schema,
                )
                artifact = None
                if checkpoint_dir is not None:
                    # every build appends a version under the app's name, so
                    # "what was deployed last week" is one `registry list` away
                    registry = ModelRegistry(Path(checkpoint_dir) / "registry")
                    artifact = package.publish(
                        registry,
                        app.name,
                        metrics={
                            "f_e": float(result.best.f_e),
                            "f_c": float(result.best.f_c),
                            "k": int(result.best_k),
                        },
                        extra_meta={"input_schema": acq.input_schema.manifest_record()},
                    )
                    if cfg.compile_plans:
                        # warm the plan cache at publish time so the first
                        # serving process starts with zero compiles
                        cache = PlanCache(checkpoint_dir)
                        try:
                            warm_plan_cache(
                                cache, package, digest=artifact.digest
                            )
                        except UntraceableModelError:
                            pass  # this family serves interpreted; no plans
                build_result = BuildResult(
                    surrogate=surrogate,
                    acquisition=acq,
                    search=result,
                    timers=timers,
                    f_e=result.best.f_e,
                    f_c=result.best.f_c,
                    artifact=artifact,
                )
        return build_result
