"""Sustained-QPS benchmark: thread-pool vs sharded process-pool serving.

Every mode serves the same three-model traffic through the identical
``Client.run_model_batch`` call, measured by
:func:`measure_sustained_qps`, and ``run_model_batch`` takes one bulk
path in both modes (``Orchestrator.submit``): each row is admitted
on its own, rows of one (model, version, shape, dtype) stack into
blocks, and each block runs as one vectorized compiled-plan forward —
in this process's serving threads, or on its shard after crossing the
process boundary as one shared-memory block.  The comparison therefore
isolates what the process boundary costs or buys, not two bulk
implementations.  Every model here runs ``batch_invariant``, so every
mode must produce byte-identical outputs; that is asserted.  No
speedup bar is asserted: which mode is faster depends on the core
count, and the report records each mode's rate.

Results are written to ``BENCH_qps.json`` (override with
``REPRO_QPS_BENCH_JSON``).  Environment knobs (the CI smoke job runs a
reduced configuration):

* ``REPRO_QPS_BENCH_DURATION``    — seconds measured per config (default 2.0)
* ``REPRO_QPS_BENCH_BURST``       — requests per burst (default 384)
* ``REPRO_QPS_BENCH_PROCESSES``   — process counts swept (default "1,2,4")

Run standalone with::

    PYTHONPATH=src python -m pytest benchmarks/test_qps.py -q -s
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.runtime import measure_sustained_qps

from tests.compile.test_plan import make_package

DURATION = float(os.environ.get("REPRO_QPS_BENCH_DURATION", "2.0"))
BURST = int(os.environ.get("REPRO_QPS_BENCH_BURST", "384"))
PROCESS_COUNTS = tuple(
    int(p)
    for p in os.environ.get("REPRO_QPS_BENCH_PROCESSES", "1,2,4").split(",")
)
JSON_PATH = os.environ.get("REPRO_QPS_BENCH_JSON", "BENCH_qps.json")

#: three paper-shaped surrogates of different widths — the traffic mixes
#: models so shard routing and per-model plan caches are both exercised
MODEL_SPECS = {
    "blackscholes": dict(input_dim=6, output_dim=2, hidden=(16, 8)),
    "fft": dict(input_dim=12, output_dim=4, hidden=(32, 16)),
    "amg": dict(input_dim=8, output_dim=1, hidden=(24,)),
}
TRAFFIC_LEN = 96


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2023)
    packages = {
        name: make_package(rng, activation="tanh", **spec)
        for name, spec in MODEL_SPECS.items()
    }
    names = sorted(packages)
    traffic = [
        (
            names[i % len(names)],
            rng.standard_normal(MODEL_SPECS[names[i % len(names)]]["input_dim"]),
        )
        for i in range(TRAFFIC_LEN)
    ]
    return packages, traffic


class TestSustainedQPS:
    def test_modes_serve_bit_identically(self, workload):
        packages, traffic = workload
        results = []
        baseline = measure_sustained_qps(
            packages, traffic, num_processes=0, duration_s=DURATION, burst=BURST
        )
        results.append(baseline)
        print(f"\n{baseline.format()}")
        for count in PROCESS_COUNTS:
            measured = measure_sustained_qps(
                packages,
                traffic,
                num_processes=count,
                duration_s=DURATION,
                burst=BURST,
            )
            results.append(measured)
            print(measured.format())

        report = {
            "traffic": {
                "models": {n: dict(s) for n, s in MODEL_SPECS.items()},
                "requests_in_mix": TRAFFIC_LEN,
                "burst": BURST,
                "duration_s": DURATION,
            },
            "configs": [
                {
                    "mode": r.mode,
                    "num_processes": r.num_processes,
                    "requests": r.requests,
                    "seconds": r.seconds,
                    "qps": r.qps,
                    "p50_ms": r.p50_ms,
                    "p99_ms": r.p99_ms,
                    "speedup_vs_threads": (
                        r.qps / baseline.qps if r.num_processes else 1.0
                    ),
                    "output_digest": r.output_digest,
                }
                for r in results
            ],
            "bit_identical_across_modes": all(
                r.output_digest == baseline.output_digest for r in results
            ),
        }
        with open(JSON_PATH, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {JSON_PATH}")

        # every mode must produce byte-identical outputs on the probe pass
        for r in results:
            assert r.output_digest == baseline.output_digest, (
                f"{r.mode} x{r.num_processes} outputs diverge from the "
                "thread baseline — batch_invariant bit-identity is broken"
            )
