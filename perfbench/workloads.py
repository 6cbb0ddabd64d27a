"""One perfbench workload, run in its own interpreter by ``run.py``.

    python3 perfbench/workloads.py --workload listing2-mixed --seed 1 \
        --seconds 10 --phase measure

The last line of standard output is one JSON object.  Phases:

* ``measure`` — set up, then run the workload's fixed work untraced and
  check every output;
* ``trace``   — set up, then half the work untraced, the whole work with
  layer spans (``layers.py``) and the other half untraced, reporting
  per-layer time and the tracing overhead.

Every workload is a closed loop with one client: an HPC rank calls the
surrogate and waits for the answer before it goes on.  The amount of
work is fixed by ``--seconds`` (operations per second times seconds)
and then timed, so a slow run does the same work as a fast one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: paper-shaped surrogates (input -> hidden... -> output, all tanh)
MODEL_SPECS = {
    "amg": (8, (24,), 1),
    "blackscholes": (6, (16, 8), 2),
    "fft": (12, (32, 16), 4),
}
#: distinct input rows the caller cycles through, 128 per model
ROWS = 384
#: fixed work per second of --seconds, sized to a 2-vCPU host
LISTING2_CALLS_PER_S = 400
#: one AMG build per interpreter; its budget is fixed, not scaled by --seconds
BUILD_CONFIG = dict(n_samples=400, outer_iterations=2, inner_trials=3, seed=0)
HITRATE_PROBLEMS = 200
#: operations whose spans are kept for the Chrome trace
TRACE_EXPORT_OPS = 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--phase", required=True, choices=("measure", "trace")
    )
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.out)
    result = workload.run(args.phase)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def numerics() -> dict:
    """NumPy and BLAS build this process runs on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def pin_cpu() -> None:
    """Pin this process, and so every thread it starts, to its first
    allowed CPU: on a virtual machine a wake-up sent to another vCPU waits
    for the host to schedule that vCPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def merge(a: dict, b: dict) -> dict:
    """One untraced result from two passes of the work."""
    out = dict(a)
    for key in ("attempted", "failed", "ops", "work_s", "latency_samples"):
        out[key] = a[key] + b[key]
    out["latencies_ms"] = a["latencies_ms"] + b["latencies_ms"]
    out["p50_ms"] = statistics.median(out["latencies_ms"])
    out["ops_per_s"] = out["ops"] / out["work_s"]
    out["failed_ratio"] = out["failed"] / out["attempted"]
    out.pop("breakdown")
    return out


class Workload:
    """Set-up, fixed work and output checks of one workload."""

    def __init__(self, seed: int, seconds: float, out: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.out = out
        self.errors: list[str] = []
        self.spans = None

    def run(self, phase: str) -> dict:
        pin_cpu()
        start = time.perf_counter()
        import repro  # noqa: F401 - the import is part of set-up

        self.import_s = time.perf_counter() - start
        if phase == "trace":
            from layers import Breakdown, LayerSpans

            self.spans = LayerSpans()
            self.install_spans(self.spans)
            setup_root = self.spans.tracer.start_span("setup")
        self.setup()
        setup_s = time.perf_counter() - start
        result = {
            "workload": self.name,
            "seed": self.seed,
            "setup_s": setup_s,
            "numerics": numerics(),
            "inputs_digest": self.inputs_digest,
        }
        try:
            if phase == "trace":
                self.spans.tracer.end_span(setup_root)
                setup = Breakdown()
                setup.add(self.spans.tracer.finished_spans(), setup_root)
                self.spans.tracer.reset()
                self.spans.remove()
                # two untraced halves bracket the traced pass, so the host
                # drifting during the run weighs on both sides alike
                first = self.work(traced=False, share=0.5)
                self.install_spans(self.spans)
                traced = self.work(traced=True, share=1.0)
                self.spans.remove()
                untraced = merge(first, self.work(traced=False, share=0.5))
                result.update(untraced)
                result["trace"] = self.trace_report(setup, traced, untraced)
            else:
                result.update(self.work(traced=False, share=1.0))
                result.pop("breakdown")
        finally:
            self.teardown()
        result["errors"] = self.errors
        result["correct"] = not self.errors
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 10:
            self.errors.append(message)

    def recorder(self):
        """Span sink for one traced pass of the work."""
        from layers import OpRecorder

        self.out.mkdir(parents=True, exist_ok=True)
        self.trace_path = self.out / f"{self.name}.seed{self.seed}.trace.json"
        return OpRecorder(self.spans.tracer, self.trace_path, TRACE_EXPORT_OPS)

    def teardown(self) -> None:
        pass

    def trace_report(self, setup, traced: dict, untraced: dict) -> dict:
        """Per-layer metrics and report lines of a traced run."""
        b = traced["breakdown"]
        untraced_s = untraced["work_s"] / untraced["ops"] * traced["ops"]
        lines = b.report(f"{self.name} traced work", untraced_s)
        overhead = {k: traced[k] - untraced[k] for k in ("ops_per_s", "p50_ms")}
        lines.append("  tracing overhead (traced minus untraced): " + ", ".join(
            f"{k} {v:+.4g} ({v / untraced[k]:+.1%})" for k, v in overhead.items()
        ))
        return {
            "layers": {
                "setup.import_s": self.import_s,
                **self.layer_metrics(setup, traced),
                "unattributed_s": b.unattributed_s,
            },
            "lines": lines,
            "overhead": overhead,
            "chrome_trace": str(self.trace_path),
        }


# -- serving workload ---------------------------------------------------------------


class Listing2Mixed(Workload):
    """Paper Listing 2, one row per call, round-robin over three
    paper-shaped MLPs served by a running thread-mode ``Orchestrator``."""

    name = "listing2-mixed"

    def setup(self) -> None:
        import numpy as np

        from repro.nas.package import SurrogatePackage
        from repro.nn.mlp import Topology, build_mlp
        from repro.nn.tensor import batch_invariant
        from repro.runtime import Client, Orchestrator

        rng = np.random.default_rng(self.seed)
        self.packages = {}
        for name, (n_in, hidden, n_out) in MODEL_SPECS.items():
            topology = Topology(hidden=hidden, activation="tanh")
            self.packages[name] = SurrogatePackage(
                model=build_mlp(n_in, n_out, topology, rng=rng),
                topology=topology,
                input_dim=n_in,
                output_dim=n_out,
            )
        names = sorted(self.packages)
        self.names = [names[i % len(names)] for i in range(ROWS)]
        self.rows = [
            rng.standard_normal(MODEL_SPECS[n][0]) for n in self.names
        ]
        # the interpreted forward is the reference every served row must
        # match byte for byte
        with batch_invariant():
            self.reference = [
                np.ascontiguousarray(self.packages[n].predict(x)).tobytes()
                for n, x in zip(self.names, self.rows)
            ]
        self.inputs_digest = hashlib.sha256(
            b"".join(x.tobytes() for x in self.rows)
            + b"".join(self.reference)
        ).hexdigest()
        self.orchestrator = Orchestrator(batch_invariant=True)
        self.client = Client(self.orchestrator)
        for name, package in self.packages.items():
            self.client.set_model(name, package)
        self.orchestrator.start()
        for i in range(len(MODEL_SPECS)):
            self.operation(i)

    def teardown(self) -> None:
        self.orchestrator.stop()

    def operation(self, i: int):
        """One Listing-2 call: the ``run_model`` latency, the whole call's
        time and the output."""
        j = i % ROWS
        start = time.perf_counter()
        self.client.put_tensor("in", self.rows[j])
        run_start = time.perf_counter()
        self.client.run_model(self.names[j], "in", "out")
        latency = time.perf_counter() - run_start
        output = self.client.unpack_tensor("out")
        return latency, time.perf_counter() - start, output

    def verify(self, i: int, output) -> None:
        import numpy as np

        j = i % ROWS
        self.check(
            np.ascontiguousarray(output).tobytes() == self.reference[j],
            f"call {i} ({self.names[j]}): output differs from package.predict",
        )

    def work(self, traced: bool, share: float) -> dict:
        """Run ``share`` of the fixed call count; ``p50_ms`` reads the
        ``run_model`` latencies, ``work_s`` and ``ops_per_s`` the whole
        calls."""
        import numpy as np

        n_ops = max(1, round(LISTING2_CALLS_PER_S * self.seconds * share))
        latencies = []
        total_s = 0.0
        failed = 0
        recorder = self.recorder() if traced else None
        for i in range(n_ops):
            root = self.spans.tracer.start_span("op") if traced else None
            try:
                latency, elapsed, output = self.operation(i)
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                output = None
                failed += 1
                self.check(False, f"call {i} raised {type(exc).__name__}: {exc}")
            if traced:
                self.spans.tracer.end_span(root)
                recorder.record(root)
            if output is not None:
                latencies.append(latency)
                total_s += elapsed
                self.verify(i, output)
        lat_ms = np.asarray(latencies) * 1e3
        return {
            "attempted": n_ops,
            "failed": failed,
            "failed_ratio": failed / n_ops,
            "ops": len(latencies),
            "work_s": total_s,
            "ops_per_s": (n_ops - failed) / total_s if total_s else 0.0,
            "p50_ms": float(np.median(lat_ms)) if len(lat_ms) else 0.0,
            "latency_samples": len(latencies),
            "latencies_ms": lat_ms.tolist(),
            "breakdown": recorder.finish() if traced else None,
        }

    def install_spans(self, spans) -> None:
        from layers import TimedEvent
        from repro.compile import CompiledPlan
        from repro.runtime import Client, Orchestrator

        tracer = spans.tracer

        def timed_done(span, args, kwargs, request):
            request.done = TimedEvent(request.done, tracer, "orchestrator.wait")

        spans.wrap(Orchestrator, "start", "orchestrator.start")
        spans.wrap(Client, "put_tensor", "client.put")
        spans.wrap(Orchestrator, "submit", "orchestrator.submit", observe=timed_done)
        spans.wrap(CompiledPlan, "predict", "compile.predict")
        spans.wrap(Client, "unpack_tensor", "client.unpack")

    def layer_metrics(self, setup, traced: dict) -> dict:
        b = traced["breakdown"]
        return {
            "orchestrator.start_s": setup.incl_s.get("orchestrator.start", 0.0),
            "client.put_s": b.incl_s["client.put"],
            "client.unpack_s": b.incl_s["client.unpack"],
            "orchestrator.submit_s": b.incl_s["orchestrator.submit"],
            "orchestrator.wait_s": b.incl_s["orchestrator.wait"],
            "orchestrator.window_s": b.self_s["orchestrator.wait"],
            "compile.predict_s": b.incl_s["compile.predict"],
        }


# -- offline workload ---------------------------------------------------------------


class BuildAMG(Workload):
    """``AutoHPCnet.build`` on AMG, then HitRate on fresh problems."""

    name = "build-amg"

    def setup(self) -> None:
        from repro import AutoHPCnet, AutoHPCnetConfig
        from repro.apps.amg import AMGApplication

        self.app = AMGApplication()
        self.config = AutoHPCnetConfig(**BUILD_CONFIG)
        self.pipeline = AutoHPCnet(self.config)
        self.inputs_digest = hashlib.sha256(
            pickle.dumps(self.problems())
        ).hexdigest()

    def problems(self) -> list:
        """The fresh HitRate problems, drawn from the run's seed; the
        build's own seed is fixed so every run measures the same search."""
        import numpy as np

        return self.app.generate_problems(
            HITRATE_PROBLEMS, np.random.default_rng(self.seed)
        )

    def work(self, traced: bool, share: float) -> dict:
        """One whole build, whatever ``share``: a build cannot be split."""
        import numpy as np

        from repro import evaluate_surrogate, obs
        from repro.registry import ModelRegistry

        def ae_cache():
            registry = obs.get_registry()
            return tuple(
                (m.total() if m is not None else 0.0)
                for m in (
                    registry.get("repro_nas_ae_cache_hits_total"),
                    registry.get("repro_nas_ae_cache_misses_total"),
                )
            )

        self.out.mkdir(parents=True, exist_ok=True)
        cache_before = ae_cache()
        with tempfile.TemporaryDirectory(dir=self.out) as checkpoint_dir:
            recorder = self.recorder() if traced else None
            root = self.spans.tracer.start_span("op") if traced else None
            start = time.perf_counter()
            build = self.pipeline.build(self.app, checkpoint_dir=checkpoint_dir)
            build_s = time.perf_counter() - start
            if traced:
                self.spans.tracer.end_span(root)
                recorder.record(root)
            verified = ModelRegistry(Path(checkpoint_dir) / "registry").verify(
                self.app.name
            )
        self.check(
            not verified.errors,
            f"published artifact fails ModelRegistry.verify: {verified.errors}",
        )
        self.check(
            build.f_e <= self.config.quality_loss,
            f"f_e {build.f_e} exceeds quality_loss {self.config.quality_loss}",
        )
        row = evaluate_surrogate(
            build.surrogate,
            n_problems=HITRATE_PROBLEMS,
            rng=np.random.default_rng(self.seed),
        )
        hits, misses = (a - b for a, b in zip(ae_cache(), cache_before))
        return {
            "attempted": 1,
            "failed": 0,
            "failed_ratio": 0.0,
            "ops": 1,
            "work_s": build_s,
            # one measurement: p50_ms is the build time, ops_per_s its inverse
            "p50_ms": build_s * 1e3,
            "ops_per_s": 1.0 / build_s,
            "latency_samples": 1,
            "latencies_ms": [build_s * 1e3],
            "hit_rate": row.hit_rate,
            "hit_rate_problems": HITRATE_PROBLEMS,
            "f_e": build.f_e,
            "modeled_v100_speedup": row.speedup,
            "ae_cache": (hits, misses),
            "breakdown": recorder.finish() if traced else None,
        }

    def install_spans(self, spans) -> None:
        import repro.core.pipeline as pipeline
        import repro.nas.evaluation as evaluation
        import repro.nas.hierarchical as hierarchical
        from repro.apps.base import Application
        from repro.bo.gp import GaussianProcess
        from repro.bo.optimize import BayesianOptimizer
        from repro.nas.package import SurrogatePackage

        def epochs(span, args, kwargs, result):
            span.set_attribute("epochs", result.epochs_run)

        spans.wrap(Application, "acquire", "extract.acquire")
        spans.wrap(hierarchical, "train_autoencoder", "autoencoder.train")
        spans.wrap(evaluation, "train_model", "nn.train", observe=epochs)
        spans.wrap(GaussianProcess, "fit", "bo.fit")
        spans.wrap(BayesianOptimizer, "ask", "bo.ask")
        spans.wrap_arg(hierarchical.Hierarchical2DSearch, "run", "quality_fn", "nas.quality")
        spans.wrap(SurrogatePackage, "publish", "registry.publish")
        spans.wrap(pipeline, "warm_plan_cache", "compile.warm")

    def layer_metrics(self, setup, traced: dict) -> dict:
        b = traced["breakdown"]
        hits, misses = traced["ae_cache"]

        def time_in(name):
            return b.incl_s.get(name, 0.0)

        return {
            "extract.acquire_s": time_in("extract.acquire"),
            "autoencoder.train_s": time_in("autoencoder.train"),
            "autoencoder.calls": float(b.calls["autoencoder.train"]),
            "nas.ae_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "nn.train_s": time_in("nn.train"),
            "nn.epochs": b.attrs["nn.train.epochs"],
            "bo.fit_s": time_in("bo.fit"),
            "bo.ask_s": time_in("bo.ask"),
            "nas.quality_s": time_in("nas.quality"),
            "registry.publish_s": time_in("registry.publish"),
            "compile.warm_s": time_in("compile.warm"),
        }


WORKLOADS = {cls.name: cls for cls in (BuildAMG, Listing2Mixed)}


if __name__ == "__main__":
    sys.exit(main())
