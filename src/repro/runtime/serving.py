"""Online serving path and its cost model (§7.3 "Online time").

The paper decomposes each online surrogate invocation into four phases:

1. fetching input data to GPU memory           (measured at 21.2 % of online time)
2. encoding input data to low-dim features     (10.1 %)
3. loading the pre-trained surrogate from file (1.6 %, amortized)
4. running the surrogate + retrieving output   (67.1 %)

:class:`OnlineCostModel` produces the same breakdown from the device/link
models; :class:`ServingSession` actually executes the path through the
orchestrator and measures wall-clock per phase, so the bench can report
both simulated and measured splits.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .. import obs
from ..nas.package import SurrogatePackage
from ..perf.counting import nn_inference_cost
from ..perf.devices import DeviceModel, Link, PCIE3_X16, TESLA_V100_NN
from ..perf.timers import PhaseTimer
from .client import Client
from .orchestrator import Orchestrator

__all__ = [
    "OnlineCostModel",
    "ServingSession",
    "ONLINE_PHASES",
    "ThroughputResult",
    "measure_serving_throughput",
    "QPSResult",
    "measure_sustained_qps",
]

ONLINE_PHASES = ("fetch_input", "encode", "load_model", "run_model")


@dataclass(frozen=True)
class OnlineCostModel:
    """Analytic per-invocation online cost, split into the four phases.

    ``compute_scale`` projects the (mini-scale) surrogate's compute and
    parameter volume to paper-scale problem sizes, matching the
    ``data_scale`` projection the input transfer already gets — at paper
    scale both the input *and* the network serving it are proportionally
    larger (the paper's surrogates consume thousands of latent features).
    """

    device: DeviceModel = TESLA_V100_NN
    link: Link = PCIE3_X16
    model_load_amortization: int = 1000  # the model file loads once per N calls
    compute_scale: float = 1.0

    def phase_times(
        self, package: SurrogatePackage, input_bytes: float
    ) -> dict[str, float]:
        """Seconds per phase for one invocation with ``input_bytes`` of input."""
        if input_bytes < 0:
            raise ValueError("input_bytes must be non-negative")
        scale = max(1.0, self.compute_scale)
        fetch = self.link.time(input_bytes)
        if package.autoencoder is not None:
            enc_flops = float(package.autoencoder.encode_flops(1)) * scale
            encode = self.device.kernel_time(enc_flops, enc_flops)
        else:
            encode = 0.0
        param_bytes = package.num_parameters() * 8.0 * scale
        load = self.link.time(param_bytes) / max(1, self.model_load_amortization)
        flops, traffic = nn_inference_cost(package.model, batch=1)
        run = self.device.kernel_time(flops * scale, traffic * scale) + self.link.time(
            package.output_dim * 8.0 * scale
        )
        return {
            "fetch_input": fetch,
            "encode": encode,
            "load_model": load,
            "run_model": run,
        }

    def total_time(self, package: SurrogatePackage, input_bytes: float) -> float:
        return sum(self.phase_times(package, input_bytes).values())

    def timer(self, package: SurrogatePackage, input_bytes: float) -> PhaseTimer:
        timer = PhaseTimer()
        for phase, seconds in self.phase_times(package, input_bytes).items():
            timer.add(phase, seconds)
        return timer


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of one serving-throughput measurement."""

    requests: int
    seconds: float
    max_batch_size: int
    num_workers: int
    num_processes: int = 0

    @property
    def requests_per_sec(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else float("inf")

    def format(self) -> str:
        pool = (
            f"processes={self.num_processes}"
            if self.num_processes
            else f"workers={self.num_workers}"
        )
        return (
            f"{self.requests} requests in {self.seconds:.3f}s = "
            f"{self.requests_per_sec:,.0f} req/s "
            f"(max_batch_size={self.max_batch_size}, {pool})"
        )


def measure_serving_throughput(
    package: SurrogatePackage,
    rows: np.ndarray,
    *,
    max_batch_size: int = 32,
    num_workers: int = 1,
    batch_invariant: bool = True,
    model_name: str = "surrogate",
    timeout: float = 120.0,
    compile_plans: bool = True,
    num_processes: int = 0,
) -> ThroughputResult:
    """Requests/sec of the orchestrator serving path for one configuration.

    Every row of ``rows`` is staged under its own input key *before* the
    clock starts, then all requests are pipelined through
    :meth:`Client.run_model_batch` so the serving pool can drain them into
    micro-batches; the measurement covers submit -> result for the full
    set.  ``max_batch_size=1`` gives the strict per-request baseline the
    batching speedup is judged against.  ``timeout`` bounds the wait for
    the whole request set (a wedged model forward raises
    :class:`TimeoutError` instead of hanging the benchmark).
    ``compile_plans=False`` pins the interpreted forward path (the
    baseline ``repro serve --no-compile`` measures against).
    ``num_processes > 0`` measures the sharded multi-process pool
    instead of the thread pool.
    """
    rows = np.atleast_2d(np.asarray(rows))
    orchestrator = Orchestrator(
        max_batch_size=max_batch_size,
        num_workers=num_workers,
        batch_invariant=batch_invariant,
        compile_plans=compile_plans,
        num_processes=num_processes,
    )
    client = Client(orchestrator)
    client.set_model(model_name, package)
    in_keys = [f"__bench_in_{i}__" for i in range(len(rows))]
    out_keys = [f"__bench_out_{i}__" for i in range(len(rows))]
    for key, row in zip(in_keys, rows):
        client.put_tensor(key, row)
    with orchestrator:
        start = time.perf_counter()
        client.run_model_batch(model_name, in_keys, out_keys, timeout=timeout)
        elapsed = time.perf_counter() - start
    return ThroughputResult(
        requests=len(rows),
        seconds=elapsed,
        max_batch_size=max_batch_size,
        num_workers=num_workers,
        num_processes=num_processes,
    )


@dataclass(frozen=True)
class QPSResult:
    """Outcome of one sustained-QPS measurement under mixed traffic."""

    mode: str
    num_processes: int
    requests: int
    seconds: float
    p50_ms: float
    p99_ms: float
    output_digest: str

    @property
    def qps(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else float("inf")

    def format(self) -> str:
        pool = f"{self.num_processes} processes" if self.num_processes else "threads"
        return (
            f"{self.qps:,.0f} req/s sustained over {self.seconds:.2f}s "
            f"({pool}; burst p50 {self.p50_ms:.2f}ms, p99 {self.p99_ms:.2f}ms)"
        )


def measure_sustained_qps(
    packages: dict[str, SurrogatePackage],
    traffic: Sequence[tuple[str, np.ndarray]],
    *,
    num_processes: int = 0,
    duration_s: float = 2.0,
    burst: int = 64,
    max_batch_size: int = 32,
    num_workers: int = 4,
    batch_invariant: bool = True,
    max_queue_depth: int = 512,
    timeout: float = 60.0,
) -> QPSResult:
    """Sustained QPS + burst latency percentiles under mixed-model traffic.

    ``traffic`` is a fixed request mix — ``(model_name, input_row)``
    pairs cycled for ``duration_s`` seconds in bursts of ``burst``
    requests through :meth:`Client.run_model_batch` (per-request names,
    results returned directly).  ``num_processes=0`` measures the
    thread-pool baseline; ``> 0`` the sharded process pool — both through
    the identical client API, so the comparison isolates the serving
    runtime.

    One full pass over ``traffic`` runs before the clock starts: it
    warms every compiled plan AND hashes the outputs into
    ``output_digest``, so two measurements over the same traffic can
    assert bit-identity across serving modes (``batch_invariant``
    models must produce byte-equal outputs in thread and process mode).
    """
    orchestrator = Orchestrator(
        max_batch_size=max_batch_size,
        num_workers=num_workers,
        batch_invariant=batch_invariant,
        num_processes=num_processes,
        max_queue_depth=max_queue_depth,
    )
    client = Client(orchestrator)
    for model_name, package in packages.items():
        client.set_model(model_name, package)
    names = [n for n, _ in traffic]
    rows = [np.asarray(r) for _, r in traffic]
    n = len(traffic)
    with orchestrator:
        probe = client.run_model_batch(names, rows, timeout=timeout)
        digest = hashlib.sha256()
        for out in probe:
            digest.update(np.ascontiguousarray(out).tobytes())
        served = 0
        latencies = []
        offset = 0
        start = time.perf_counter()
        while time.perf_counter() - start < duration_s:
            idx = [(offset + j) % n for j in range(burst)]
            burst_names = [names[i] for i in idx]
            burst_rows = [rows[i] for i in idx]
            t0 = time.perf_counter()
            client.run_model_batch(burst_names, burst_rows, timeout=timeout)
            latencies.append((time.perf_counter() - t0) * 1e3)
            served += burst
            offset = (offset + burst) % n
        elapsed = time.perf_counter() - start
    lat = np.asarray(latencies)
    return QPSResult(
        mode="processes" if num_processes else "threads",
        num_processes=num_processes,
        requests=served,
        seconds=elapsed,
        p50_ms=float(np.percentile(lat, 50)),
        p99_ms=float(np.percentile(lat, 99)),
        output_digest=digest.hexdigest(),
    )


class ServingSession:
    """Executes the Listing-2 online path and times each phase for real.

    Each §7.3 phase is measured exactly once: the elapsed seconds feed the
    :class:`PhaseTimer` *and* a tracing span *and* the
    ``repro_serving_phase_seconds`` histogram from the same measurement
    (:func:`repro.obs.phase`), so the simulated/measured breakdowns and the
    trace view share one source of truth.
    """

    def __init__(
        self,
        package: SurrogatePackage,
        *,
        model_name: str = "surrogate",
        orchestrator: Optional[Orchestrator] = None,
    ) -> None:
        self.package = package
        self.model_name = model_name
        self.orchestrator = orchestrator or Orchestrator()
        self.client = Client(self.orchestrator)
        self.timer = PhaseTimer()
        self._m_phase = obs.get_registry().histogram(
            "repro_serving_phase_seconds",
            "Online serving wall-clock seconds per §7.3 phase",
            labels=("phase",),
        )
        with self._phase("load_model"):
            self.client.set_model(model_name, package)

    def _phase(self, name: str):
        return obs.phase(
            name,
            timer=self.timer,
            histogram=self._m_phase,
            labels={"phase": name},
            attributes={"component": "serving", "model": self.model_name},
        )

    def infer(self, raw_input: np.ndarray, key: str = "in") -> np.ndarray:
        """One surrogate call through the store, phase-timed: the raw
        flattened input row in, the raw flattened outputs back."""
        with self._phase("fetch_input"):
            self.client.put_tensor(key, np.atleast_2d(raw_input))
            staged = self.client.get_tensor(key)
        with self._phase("encode"):
            features = self.package.encode(staged)
        with self._phase("run_model"):
            # the package's second half, on the features encoded above
            out = self.package.run_encoded(features)
            self.client.put_tensor("out", out)
            result = self.client.unpack_tensor("out")
        return result[0] if np.asarray(raw_input).ndim == 1 else result
