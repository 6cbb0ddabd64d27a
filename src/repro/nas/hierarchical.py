"""Hierarchical (2D) Bayesian optimization — Algorithm 2 of the paper.

The *outer* loop searches the input dimension K: each iteration trains a
fresh autoencoder with latent size K (§4.3), reduces the training inputs,
and hands them to the *inner* loop, which searches the surrogate topology θ
under the quality constraint.  The inner loop's best (f_c, f_e) flows back
into the outer Gaussian process, which proposes the next K.

The two optimization vectors are never mixed into one Euclidean embedding —
the paper's argument for the hierarchy (§5.2) — and the search stops when
the budget is exhausted or additional iterations stop improving f_c.

The search is checkpointable (§6.1): pass ``checkpoint_dir`` and each
completed outer iteration is persisted; re-running resumes where it left
off and re-seeds the outer GP with the stored observations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .. import obs
from ..autoencoder.model import Autoencoder
from ..autoencoder.training import AETrainConfig, train_autoencoder
from ..bo.optimize import BayesianOptimizer
from ..nn.mlp import Topology
from ..nn.train import TrainConfig
from ..perf.devices import DeviceModel, TESLA_V100_NN
from ..perf.timers import PhaseTimer
from .cache import AutoencoderCache, CachedEncoding
from .evaluation import CandidateResult, QualityFn
from .inner import InnerSearchResult, TopologySearch
from .package import SurrogatePackage
from .space import InputDimSpace, TopologySpace

__all__ = ["SearchConfig", "OuterObservation", "SearchResult", "Hierarchical2DSearch"]

_SEARCH_TYPES = ("autokeras", "userModel", "fullInput")


@dataclass(frozen=True)
class SearchConfig:
    """The Table 1 knobs, search level + model level."""

    # search-level
    search_type: str = "autokeras"
    bayesian_init: int = 2
    encoding_loss: float = 0.4     # acceptable sigma_y of the autoencoder
    quality_loss: float = 0.10     # epsilon: acceptable app quality degradation
    outer_iterations: int = 4
    inner_trials: int = 5
    # model-level
    init_model: Optional[Topology] = None    # searchType=userModel start point
    num_epochs: int = 60
    train_ratio: float = 0.8
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-4
    patience: int = 20
    ae_depth: int = 2
    ae_epochs: int = 60
    cost_metric: str = "time"     # f_c: "time" or "energy" (§5.1)
    #: stop the outer loop after this many iterations without improving the
    #: best feasible f_c (Alg. 2: "a continuing search does not lead to
    #: enough improvement"); None disables
    stall_iterations: Optional[int] = None
    #: inner-loop trials proposed per constant-liar batch ask (q)
    parallel_trials: int = 1
    #: threads evaluating one batch; None means one per proposed trial
    trial_workers: Optional[int] = None
    #: cut inner trials short via the median-stopping rule
    prune_trials: bool = False
    #: reuse trained autoencoders/encodings (memory always; disk when a
    #: checkpoint_dir is passed to :meth:`Hierarchical2DSearch.run`)
    ae_cache: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.search_type not in _SEARCH_TYPES:
            raise ValueError(f"searchType must be one of {_SEARCH_TYPES}")
        if self.search_type == "userModel" and self.init_model is None:
            raise ValueError("searchType=userModel requires init_model")
        if self.outer_iterations < 1 or self.inner_trials < 1:
            raise ValueError("iteration budgets must be >= 1")
        if self.parallel_trials < 1:
            raise ValueError("parallel_trials must be >= 1")

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            num_epochs=self.num_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            train_ratio=self.train_ratio,
            patience=self.patience,
            weight_decay=self.weight_decay,
            seed=self.seed,
        )


@dataclass
class OuterObservation:
    """One completed outer-loop iteration."""

    k: int
    f_c: float
    f_e: float
    ae_sigma: float
    inner_trials: int


@dataclass
class SearchResult:
    """Outcome of the whole 2D search."""

    best: Optional[CandidateResult]
    best_k: Optional[int]
    outer_history: list[OuterObservation] = field(default_factory=list)
    inner_results: dict[int, InnerSearchResult] = field(default_factory=dict)
    timers: PhaseTimer = field(default_factory=PhaseTimer)

    @property
    def models_trained(self) -> int:
        return sum(r.n_trials for r in self.inner_results.values())

    @property
    def trials_pruned(self) -> int:
        return sum(r.n_pruned for r in self.inner_results.values())

    @property
    def feasible(self) -> bool:
        return self.best is not None

    def summary(self) -> str:
        if self.best is None:
            return "2D NAS: no feasible surrogate found"
        return (
            f"2D NAS: K={self.best_k}, {self.best.topology.describe()}, "
            f"f_c={self.best.f_c:.3e}s, f_e={self.best.f_e:.4f}, "
            f"{self.models_trained} models trained"
        )


class Hierarchical2DSearch:
    """Coordinates the outer-K and inner-θ loops (Algorithm 2)."""

    def __init__(
        self,
        topology_space: TopologySpace,
        input_space: InputDimSpace,
        config: SearchConfig = SearchConfig(),
        *,
        device: DeviceModel = TESLA_V100_NN,
    ) -> None:
        self.topology_space = topology_space
        self.input_space = input_space
        self.config = config
        self.device = device

    # -- feature reduction (outer-loop body, §4.3) -----------------------------

    def _ae_seed(self, k: int) -> int:
        """Deterministic per-K autoencoder seed.

        A function of (config seed, K) only — NOT of the outer iteration
        index — so a revisited or checkpoint-resumed K trains bit-identical
        weights and the artifact cache is a pure memoization (a hit can
        never change search results, only skip work).
        """
        return self.config.seed + 1013 * (int(k) + 1)

    def _train_autoencoder(
        self,
        x: np.ndarray,
        k: int,
        cache: Optional[AutoencoderCache] = None,
    ) -> tuple[Autoencoder, float, np.ndarray]:
        """Train (or fetch) the K-latent autoencoder and the encoded set."""
        cfg = self.config
        seed = self._ae_seed(k)
        key = None
        if cache is not None:
            key = AutoencoderCache.key(
                x,
                k,
                depth=cfg.ae_depth,
                ae_epochs=cfg.ae_epochs,
                lr=cfg.lr,
                encoding_loss=cfg.encoding_loss,
                seed=seed,
            )
            hit = cache.get(key)
            if hit is not None:
                return hit.autoencoder, hit.sigma, hit.z
        ae = Autoencoder(
            x.shape[1],
            k,
            depth=cfg.ae_depth,
            rng=np.random.default_rng(seed),
        )
        result = train_autoencoder(
            ae,
            x,
            AETrainConfig(
                num_epochs=cfg.ae_epochs,
                lr=cfg.lr,
                encoding_loss_bound=cfg.encoding_loss,
                seed=seed,
            ),
        )
        z = ae.encode(x)
        if cache is not None and key is not None:
            cache.put(key, CachedEncoding(ae, result.final_sigma, z))
        return ae, result.final_sigma, z

    # -- checkpointing ------------------------------------------------------------

    @staticmethod
    def _state_path(checkpoint_dir: Path) -> Path:
        return checkpoint_dir / "search_state.json"

    def _load_state(
        self, checkpoint_dir: Optional[Path]
    ) -> tuple[
        list[OuterObservation], Optional[CandidateResult], Optional[int], bool
    ]:
        """Restore outer history plus the best-so-far candidate (if saved).

        Restoring the best is what makes a resumed search equivalent to an
        uninterrupted one: without it, a resume would forget a best found
        in an already-completed iteration.  The ``feasible`` flag tells the
        caller whether the stored candidate met the quality bound or was
        the end-of-search fallback — a fallback must not seed the in-loop
        best (it would block cheaper *feasible* candidates from winning).
        """
        if checkpoint_dir is None:
            return [], None, None, False
        path = self._state_path(checkpoint_dir)
        if not path.exists():
            return [], None, None, False
        raw = json.loads(path.read_text())
        history = [OuterObservation(**entry) for entry in raw["outer_history"]]
        best_meta = raw.get("best")
        best: Optional[CandidateResult] = None
        best_k: Optional[int] = None
        feasible = False
        package_dir = checkpoint_dir / "best_package"
        if best_meta is not None and (package_dir / "package.json").exists():
            best = CandidateResult(
                package=SurrogatePackage.load(package_dir),
                f_c=best_meta["f_c"],
                f_e=best_meta["f_e"],
                val_error=best_meta.get("val_error", best_meta["f_e"]),
                epochs=best_meta.get("epochs", 0),
            )
            best_k = best_meta["k"]
            feasible = bool(best_meta.get("feasible", True))
        return history, best, best_k, feasible

    def _save_state(
        self,
        checkpoint_dir: Optional[Path],
        history: list[OuterObservation],
        best: Optional[CandidateResult] = None,
        best_k: Optional[int] = None,
        feasible: bool = True,
    ) -> None:
        if checkpoint_dir is None:
            return
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        payload: dict = {"outer_history": [vars(o) for o in history]}
        if best is not None:
            payload["best"] = {
                "k": best_k,
                "f_c": best.f_c,
                "f_e": best.f_e,
                "val_error": best.val_error,
                "epochs": best.epochs,
                "feasible": feasible,
            }
        self._state_path(checkpoint_dir).write_text(json.dumps(payload, indent=2))

    # -- main loop -------------------------------------------------------------------

    def run(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        quality_fn: Optional[QualityFn] = None,
        checkpoint_dir: Optional[str | Path] = None,
    ) -> SearchResult:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        cfg = self.config
        checkpoint_path = Path(checkpoint_dir) if checkpoint_dir else None
        result = SearchResult(best=None, best_k=None)
        restored_history, restored_best, restored_k, restored_feasible = (
            self._load_state(checkpoint_path)
        )
        result.outer_history = restored_history

        if cfg.search_type == "fullInput":
            return self._run_full_input(x, y, quality_fn, result)

        cache = AutoencoderCache(checkpoint_path, enabled=cfg.ae_cache)

        rng = np.random.default_rng(cfg.seed)
        outer_bo = BayesianOptimizer(
            threshold=cfg.quality_loss,
            init_samples=max(1, cfg.bayesian_init),
            rng=np.random.default_rng(cfg.seed + 7),
        )
        # re-seed the outer GP from a restored checkpoint
        for past in result.outer_history:
            outer_bo.tell(self.input_space.encode(past.k), math.log(past.f_c), past.f_e)

        evaluated = {past.k for past in result.outer_history}
        best = restored_best if restored_feasible else None
        best_k = restored_k if restored_feasible else None
        iteration = len(result.outer_history)
        stall = 0

        registry = obs.get_registry()
        g_best_fc = registry.gauge(
            "repro_nas_best_f_c", "Best feasible inference cost found so far"
        )
        g_best_fe = registry.gauge(
            "repro_nas_best_f_e", "Quality degradation of the best-so-far candidate"
        )

        while iteration < cfg.outer_iterations:
            remaining = [k for k in self.input_space.choices if k not in evaluated]
            candidates = remaining or list(self.input_space.choices)
            if iteration == 0:
                k = int(rng.choice(candidates))          # Alg 2 line 3: initRandom
            else:
                pool = np.array([self.input_space.encode(k) for k in candidates])
                k = candidates[outer_bo.ask(pool)]

            outer_span = obs.span("nas.outer_iteration", iteration=iteration, K=k)
            with outer_span as sp:
                if k >= x.shape[1]:
                    # K equal to the raw input dimension means no reduction at
                    # all — the outer loop explores "keep the full input" as a
                    # first-class choice rather than paying a lossy identity AE
                    ae, sigma = None, 0.0
                    z = x
                else:
                    with result.timers.measure("autoencoder_training"):
                        ae, sigma, z = self._train_autoencoder(x, k, cache)

                inner = TopologySearch(
                    self.topology_space,
                    epsilon=cfg.quality_loss,
                    device=self.device,
                    train_config=cfg.train_config(),
                    init_samples=cfg.bayesian_init,
                    seed=cfg.seed + 31 * (iteration + 1),
                    cost_metric=cfg.cost_metric,
                    parallel_trials=cfg.parallel_trials,
                    trial_workers=cfg.trial_workers,
                    prune=cfg.prune_trials,
                )
                if cfg.search_type == "userModel" and iteration == 0:
                    initial = cfg.init_model
                elif cfg.search_type == "autokeras" and hasattr(
                    self.topology_space, "width_choices"
                ):
                    # Table 1 searchType=autokeras: seed each inner search with
                    # the default topology (a strong generic two-layer net), as
                    # the paper starts from Autokeras' default.  Non-MLP spaces
                    # (CNNSpace) have no generic default and start unseeded.
                    width = max(self.topology_space.width_choices)
                    acts = self.topology_space.activations
                    initial = Topology(
                        hidden=(width, width),
                        activation="tanh" if "tanh" in acts else acts[0],
                    )
                else:
                    initial = None
                with result.timers.measure("bayesian_optimization"):
                    inner_result = inner.search(
                        z,
                        y,
                        cfg.inner_trials,
                        autoencoder=ae,
                        x_raw=x,
                        quality_fn=quality_fn,
                        initial_topology=initial,
                    )
                result.inner_results[k] = inner_result

                candidate = inner_result.best
                sp.set_attribute("ae_sigma", sigma)
                if candidate is not None:
                    sp.set_attribute("f_c", candidate.f_c)
                    sp.set_attribute("f_e", candidate.f_e)
                    outer_bo.tell(
                        self.input_space.encode(k), math.log(candidate.f_c), candidate.f_e
                    )
                    result.outer_history.append(
                        OuterObservation(
                            k=k,
                            f_c=candidate.f_c,
                            f_e=candidate.f_e,
                            ae_sigma=sigma,
                            inner_trials=inner_result.n_trials,
                        )
                    )
                    if candidate.f_e <= cfg.quality_loss and (
                        best is None or candidate.f_c < best.f_c
                    ):
                        best, best_k = candidate, k
                        stall = 0
                        if checkpoint_path is not None:
                            # persist immediately so a kill mid-search (or
                            # mid-next-iteration) never forgets the best
                            best.package.save(checkpoint_path / "best_package")
                        g_best_fc.set(best.f_c)
                        g_best_fe.set(best.f_e)
                    else:
                        stall += 1
                else:
                    stall += 1
            evaluated.add(k)
            iteration += 1
            self._save_state(checkpoint_path, result.outer_history, best, best_k)
            if (
                cfg.stall_iterations is not None
                and best is not None
                and stall >= cfg.stall_iterations
            ):
                break   # continuing search is not improving f_c (Alg. 2)

        # fall back to the lowest-f_e candidate when nothing met the bound
        feasible = best is not None
        if best is None:
            all_candidates = [
                (k, c)
                for k, r in result.inner_results.items()
                for c in r.history
            ]
            if all_candidates:
                best_k, best = min(all_candidates, key=lambda kc: kc[1].f_e)
            elif restored_best is not None:
                # a resumed already-complete search ran no iterations, so
                # the fallback pool is empty — surface the stored candidate
                best, best_k = restored_best, restored_k
                feasible = restored_feasible

        result.best = best
        result.best_k = best_k
        if checkpoint_path is not None and best is not None:
            best.package.save(checkpoint_path / "best_package")
            self._save_state(
                checkpoint_path, result.outer_history, best, best_k, feasible
            )
        return result

    def _run_full_input(
        self,
        x: np.ndarray,
        y: np.ndarray,
        quality_fn: Optional[QualityFn],
        result: SearchResult,
    ) -> SearchResult:
        """searchType=fullInput: no feature reduction, θ search only."""
        cfg = self.config
        inner = TopologySearch(
            self.topology_space,
            epsilon=cfg.quality_loss,
            device=self.device,
            train_config=cfg.train_config(),
            init_samples=cfg.bayesian_init,
            seed=cfg.seed,
            cost_metric=cfg.cost_metric,
            parallel_trials=cfg.parallel_trials,
            trial_workers=cfg.trial_workers,
            prune=cfg.prune_trials,
        )
        with result.timers.measure("bayesian_optimization"):
            inner_result = inner.search(
                x,
                y,
                cfg.inner_trials * cfg.outer_iterations,
                quality_fn=quality_fn,
                initial_topology=cfg.init_model,
            )
        k = x.shape[1]
        result.inner_results[k] = inner_result
        if inner_result.best is not None:
            result.best = inner_result.best
            result.best_k = k
            result.outer_history.append(
                OuterObservation(
                    k=k,
                    f_c=inner_result.best.f_c,
                    f_e=inner_result.best.f_e,
                    ae_sigma=0.0,
                    inner_trials=inner_result.n_trials,
                )
            )
        return result
