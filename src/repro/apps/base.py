"""Common scaffolding for the 11 evaluation applications (Table 2).

Each application packages:

* an **annotated code region** (``@code_region``) — the numerical kernel the
  surrogate replaces, written as a clean Python/NumPy function so the
  extractor can trace it;
* a **workload generator** producing input problems from a seeded RNG;
* the **quality of interest** (QoI) of Table 2, as a scalar functional so
  Eqn 3's hit-rate test applies;
* **cost accounting**: analytic FLOP/byte counts for the replaced region
  and for the rest of the application, which the device models convert to
  the timing terms of Eqn 2.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..extract.directives import get_region_spec, name_outputs

if TYPE_CHECKING:  # the extractor loads only when an app is built
    from ..extract.acquisition import AcquisitionResult
    from ..extract.sampling import Perturbation

__all__ = ["RegionCost", "ExactRun", "Application"]


@dataclass(frozen=True)
class RegionCost:
    """Operation counts of one code-region (or app-remainder) execution."""

    flops: float
    bytes_moved: float

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise ValueError("costs must be non-negative")

    def __add__(self, other: "RegionCost") -> "RegionCost":
        return RegionCost(self.flops + other.flops, self.bytes_moved + other.bytes_moved)

    def scaled(self, factor: float) -> "RegionCost":
        return RegionCost(self.flops * factor, self.bytes_moved * factor)


@dataclass
class ExactRun:
    """Result of running the original (exact) region on one problem."""

    outputs: dict[str, Any]
    qoi: float
    region_cost: RegionCost
    wall_time: float


class Application(abc.ABC):
    """One evaluation application: region + workload + QoI + costs."""

    #: short identifier, e.g. "cg"
    name: str = ""
    #: "I" (numerical solvers), "II" (PARSEC), "III" (ECP proxy apps)
    app_type: str = ""
    #: the Table 2 "replaced function" label
    replaced_function: str = ""
    #: the Table 2 QoI description
    qoi_name: str = ""

    # -- to implement per app ------------------------------------------------

    @property
    @abc.abstractmethod
    def region_fn(self) -> Callable:
        """The annotated code region (decorated with @code_region)."""

    @abc.abstractmethod
    def example_problem(self, rng: np.random.Generator) -> dict[str, Any]:
        """One representative input-problem dict (the region's kwargs)."""

    @abc.abstractmethod
    def qoi_from_outputs(self, problem: Mapping[str, Any], outputs: Mapping[str, Any]) -> float:
        """Scalar QoI of the application outcome for this problem."""

    @abc.abstractmethod
    def region_cost(self, problem: Mapping[str, Any], outputs: Mapping[str, Any]) -> RegionCost:
        """FLOP/byte cost of the exact region on this problem."""

    @abc.abstractmethod
    def other_cost(self, problem: Mapping[str, Any]) -> RegionCost:
        """FLOP/byte cost of the application outside the region."""

    # -- paper-scale projection ---------------------------------------------------
    #
    # The mini-app problems are orders of magnitude smaller than the paper's
    # (NPB class B/C, PARSEC native, ECP production inputs), so region times
    # at mini scale are microseconds and any fixed overhead (PCIe latency,
    # kernel launch) swamps Eqn 2.  ``cost_scale`` projects the region and
    # remainder costs to paper-scale problem sizes, and ``data_scale``
    # projects the input-transfer volume; both are per-app constants chosen
    # so the CPU-side region time lands in the paper's wall-clock range
    # (seconds).  The solver-to-remainder *ratio* — which determines the
    # achievable speedup — comes from each app's cost structure.

    #: multiplier from mini-problem costs to paper-scale costs
    cost_scale: float = 1e6
    #: multiplier from mini-problem input bytes to paper-scale input bytes
    data_scale: float = 1e3
    #: extra transfer amplification paid by tools that must unroll sparse
    #: inputs to dense before shipping them to the device (Autokeras path)
    unrolled_blowup: float = 1.0

    def scaled_region_cost(self, problem, outputs) -> RegionCost:
        return self.region_cost(problem, outputs).scaled(self.cost_scale)

    def scaled_other_cost(self, problem) -> RegionCost:
        return self.other_cost(problem).scaled(self.cost_scale)

    # -- optional per-app tuning ------------------------------------------------

    def perturb_names(self) -> Optional[Sequence[str]]:
        """Which inputs the sample generator perturbs (None = all arrays)."""
        return None

    def perturbation(self) -> Perturbation:
        from ..extract.sampling import Perturbation

        return Perturbation(kind="gaussian", scale=0.1)

    def nas_overrides(self) -> dict[str, Any]:
        """Per-app knobs merged into the SearchConfig by the pipeline."""
        return {}

    def sparse_input(self) -> bool:
        """True when the region's dominant input is a sparse matrix."""
        return False

    # -- shared machinery ----------------------------------------------------------

    def generate_problems(
        self, n: int, rng: np.random.Generator
    ) -> list[dict[str, Any]]:
        """``n`` input problems drawn from the app's workload distribution.

        Default: perturbed variants of the example problem, matching how the
        paper generates evaluation inputs when real datasets are scarce.
        """
        from ..extract.sampling import perturb_value

        base = self.example_problem(rng)
        names = self.perturb_names()
        if names is None:
            names = [
                k
                for k, v in base.items()
                if isinstance(v, np.ndarray) or hasattr(v, "nnz")
            ]
        problems = []
        p = self.perturbation()
        for _ in range(n):
            problem = dict(base)
            for name in names:
                problem[name] = perturb_value(problem[name], p, rng)
            problems.append(problem)
        return problems

    def exact_outputs(self, problem: Mapping[str, Any]) -> dict[str, Any]:
        """Run the original region on ``problem`` and name its outputs.

        This is all §7.1's restart needs; :meth:`run_exact` adds the QoI
        and cost for the callers that read them.
        """
        fn = self.region_fn
        return name_outputs(fn(**problem), get_region_spec(fn).returns)

    def run_exact(self, problem: Mapping[str, Any]) -> ExactRun:
        """Execute the original region; returns outputs, QoI and costs.

        ``wall_time`` times :meth:`exact_outputs`: the region and the
        naming of its outputs.
        """
        start = time.perf_counter()
        outputs = self.exact_outputs(problem)
        wall = time.perf_counter() - start
        qoi = self.qoi_from_outputs(problem, outputs)
        cost = self.region_cost(problem, outputs)
        return ExactRun(outputs=outputs, qoi=qoi, region_cost=cost, wall_time=wall)

    def acquire(
        self,
        *,
        n_samples: int = 150,
        rng: Optional[np.random.Generator] = None,
        dddg_workers: int = 1,
        sample_workers: int = 1,
    ) -> AcquisitionResult:
        """Run the §3 extractor workflow on this app's region."""
        from ..extract.acquisition import acquire

        rng = rng or np.random.default_rng(0)
        problem = self.example_problem(rng)
        return acquire(
            self.region_fn,
            problem,
            n_samples=n_samples,
            perturbation=self.perturbation(),
            rng=rng,
            dddg_workers=dddg_workers,
            perturb_names=self.perturb_names(),
            sample_workers=sample_workers,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} type={self.app_type}>"
