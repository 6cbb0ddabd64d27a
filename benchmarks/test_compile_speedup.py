"""Compiled-plan inference benchmark: trace-and-compile vs interpreted.

One row per surrogate family, all sharing the same bar: the compiled
plan must serve single-row and batch-32 inference strictly faster than
the interpreted ``SurrogatePackage.predict`` path while staying
bit-identical under ``batch_invariant()``.

* ``mlp`` — the ISSUE-7 chain (encoder + Dense/activation surrogate);
  speedup comes from dropping ``Tensor``/autograd bookkeeping and
  fusing Dense+activation steps.
* ``cnn`` — the ISSUE-9 conv/pool family; on top of the interpreter
  overhead, the plan bakes the im2col gather indices at compile time,
  so the per-call cost is pure takes, matmuls and in-order adds.  The
  acceptance bar here is 2x single-row by default.

Results accumulate into ``BENCH_infer.json`` (override with
``REPRO_INFER_BENCH_JSON``): each test rewrites the file with its
family's row added, so running the whole module yields all rows.

Environment knobs (the CI smoke job runs the defaults):

* ``REPRO_INFER_BENCH_MIN_SPEEDUP``     — baseline threshold (default
  1.0, i.e. compiled must be strictly better)
* ``REPRO_INFER_BENCH_MIN_CNN_SPEEDUP`` — single-row CNN threshold
  (default 2.0)
* ``REPRO_INFER_BENCH_ITERS``           — timed iterations per
  measurement (default 300)

Run standalone with::

    PYTHONPATH=src python -m pytest benchmarks/test_compile_speedup.py -q -s
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.autoencoder.model import Autoencoder
from repro.compile import compile_package
from repro.nas.package import SurrogatePackage
from repro.nn.cnn import CNNTopology, build_model
from repro.nn.mlp import Topology
from repro.nn.tensor import batch_invariant

MIN_SPEEDUP = float(os.environ.get("REPRO_INFER_BENCH_MIN_SPEEDUP", "1.0"))
MIN_CNN_SPEEDUP = float(os.environ.get("REPRO_INFER_BENCH_MIN_CNN_SPEEDUP", "2.0"))
ITERS = int(os.environ.get("REPRO_INFER_BENCH_ITERS", "300"))
JSON_PATH = os.environ.get("REPRO_INFER_BENCH_JSON", "BENCH_infer.json")

#: paper-shaped serving chain: 64 raw features -> 16 latent -> (64, 32) MLP
DIN, LATENT, DOUT = 64, 16, 8
HIDDEN = (64, 32)
BATCH = 32
#: best-of-N repetitions per configuration to absorb scheduler noise
TRIALS = 5

#: accumulated report: one row per family, rewritten after each test
REPORT: dict = {
    "iters": ITERS,
    "trials": TRIALS,
    "min_speedup": MIN_SPEEDUP,
    "min_cnn_speedup": MIN_CNN_SPEEDUP,
    "batch": BATCH,
    "families": {},
}


def randomized(module, rng, scale=0.1):
    for p in module.parameters():
        p.data = rng.standard_normal(p.data.shape) * scale
    return module


@pytest.fixture(scope="module")
def mlp_package():
    rng = np.random.default_rng(11)
    topology = Topology(hidden=HIDDEN, activation="relu")
    model = randomized(build_model(LATENT, DOUT, topology), rng)
    ae = randomized(Autoencoder(DIN, LATENT, depth=1), rng)
    return SurrogatePackage(
        model=model, topology=topology, input_dim=DIN, output_dim=DOUT,
        autoencoder=ae,
    )


@pytest.fixture(scope="module")
def cnn_package():
    rng = np.random.default_rng(12)
    topology = CNNTopology(
        channels=(8, 4), kernel_sizes=(5, 3), pools=(2, 2), activation="relu"
    )
    model = randomized(build_model(DIN, DOUT, topology), rng)
    return SurrogatePackage(
        model=model, topology=topology, input_dim=DIN, output_dim=DOUT
    )


def best_latencies(fns, x) -> list[float]:
    """Best-of-TRIALS mean seconds per call of each of ``fns`` over ITERS
    timed iterations.

    Each trial times every ``fn`` once, in order, so a drift in host
    speed lands on all of them alike instead of deciding their ratio.
    """
    for fn in fns:
        fn(x)  # warm scratch buffers and any lazy state before the clock
    best = [float("inf")] * len(fns)
    for _ in range(TRIALS):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(ITERS):
                fn(x)
            best[i] = min(best[i], (time.perf_counter() - start) / ITERS)
    return best


def interpreted(package):
    def run(x):
        with batch_invariant():
            return package.predict(x)

    return run


def measure(package, plan, shapes) -> dict:
    """Bit-identity check + timed rows for each (label, input) pair."""
    row: dict = {"plan_steps": plan.num_steps(), "step_kinds": plan.step_kinds()}
    baseline = interpreted(package)
    for label, x in shapes.items():
        with batch_invariant():
            np.testing.assert_array_equal(plan.predict(x), package.predict(x))
        t_interp, t_plan = best_latencies((baseline, plan.predict), x)
        speedup = t_interp / t_plan
        print(
            f"\n{label}: interpreted {t_interp * 1e6:.1f}us | "
            f"compiled {t_plan * 1e6:.1f}us | {speedup:.2f}x"
        )
        row[label] = {
            "interpreted_s": t_interp,
            "compiled_s": t_plan,
            "speedup": speedup,
        }
    row["bit_identical"] = True
    return row


def emit(family: str, row: dict) -> None:
    REPORT["families"][family] = row
    with open(JSON_PATH, "w") as fh:
        json.dump(REPORT, fh, indent=2)
        fh.write("\n")
    print(f"{family} row written to {JSON_PATH}")


class TestCompiledInference:
    def test_mlp_compiled_beats_interpreted(self, mlp_package):
        plan = compile_package(mlp_package, batch_invariant=True)
        row = measure(
            mlp_package,
            plan,
            {
                "single_row": np.random.default_rng(3).standard_normal(DIN),
                "batch_32": np.random.default_rng(4).standard_normal((BATCH, DIN)),
            },
        )
        row.update(input_dim=DIN, latent_dim=LATENT, hidden=list(HIDDEN))
        emit("mlp", row)
        assert row["single_row"]["speedup"] > MIN_SPEEDUP
        assert row["batch_32"]["speedup"] > MIN_SPEEDUP

    def test_cnn_compiled_beats_interpreted_2x_single_row(self, cnn_package):
        plan = compile_package(cnn_package, batch_invariant=True)
        row = measure(
            cnn_package,
            plan,
            {
                "single_row": np.random.default_rng(5).standard_normal(DIN),
                "batch_32": np.random.default_rng(6).standard_normal((BATCH, DIN)),
            },
        )
        row.update(input_dim=DIN, topology=cnn_package.topology.describe())
        emit("cnn", row)
        assert row["single_row"]["speedup"] > MIN_CNN_SPEEDUP, (
            f"compiled single-row CNN inference only "
            f"{row['single_row']['speedup']:.2f}x the interpreted path "
            f"(required > {MIN_CNN_SPEEDUP}x)"
        )
        assert row["batch_32"]["speedup"] > MIN_SPEEDUP
