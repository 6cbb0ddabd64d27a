"""Serving-throughput benchmark: micro-batched vs per-request orchestration.

The bar: micro-batching at ``max_batch_size=32`` must serve at least 5x
the requests/sec of strict per-request serving (``max_batch_size=1``) on
the quickstart (Blackscholes) MLP surrogate.  Both configurations go
through the one bulk path, ``Client.run_model_batch`` over store keys:
every request is admitted on its own, and its row joins a stacked block
of at most ``max_batch_size`` rows.  At 32 a block is one vectorized
``(B, F)`` forward, one queue drain and one telemetry update shared by
32 requests; at 1 every request pays its own forward, drain and update.
The two configurations are timed in alternating blocks inside one run
(per-request, batch-32, per-request, ...), each block a fresh
measurement of the whole request set, and each side keeps its best
block: a slow stretch of the shared host lands on both sides rather
than on one.

Both configurations run with ``batch_invariant=False`` (plain BLAS
``gemm``), the throughput-oriented serving mode.  The default
``batch_invariant=True`` mode trades some batched-forward speed for
bit-identical outputs across batch slicings (its row-by-row stacked
matmul holds the batch-32 speedup near 4x on this surrogate);
bit-identity is asserted separately by the property tests in
``tests/runtime/test_batching.py``.

Environment knobs (the CI smoke job runs a reduced configuration):

* ``REPRO_SERVING_BENCH_REQUESTS``    — requests per measurement (default 1024)
* ``REPRO_SERVING_BENCH_BATCH``       — batched config's max_batch_size (default 32)
* ``REPRO_SERVING_BENCH_MIN_SPEEDUP`` — assertion threshold (default 5.0)

Run standalone with::

    PYTHONPATH=src python -m pytest benchmarks/test_serving_throughput.py -q -s
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import AutoHPCnet, AutoHPCnetConfig
from repro.apps import BlackscholesApplication
from repro.runtime import measure_serving_throughput

N_REQUESTS = int(os.environ.get("REPRO_SERVING_BENCH_REQUESTS", "1024"))
BATCH = int(os.environ.get("REPRO_SERVING_BENCH_BATCH", "32"))
MIN_SPEEDUP = float(os.environ.get("REPRO_SERVING_BENCH_MIN_SPEEDUP", "5.0"))
#: best-of-N blocks per configuration to absorb scheduler noise
TRIALS = 2


@pytest.fixture(scope="module")
def quickstart_rows():
    """The quickstart surrogate plus a request stream of raw input rows."""
    app = BlackscholesApplication()
    build = AutoHPCnet(
        AutoHPCnetConfig(
            n_samples=200, outer_iterations=1, inner_trials=2, seed=0
        )
    ).build(app)
    surrogate = build.surrogate
    rng = np.random.default_rng(7)
    flat = np.stack(
        [surrogate.input_schema.flatten(p) for p in app.generate_problems(64, rng)]
    )
    reps = -(-N_REQUESTS // len(flat))
    return surrogate.package, np.tile(flat, (reps, 1))[:N_REQUESTS]


class TestServingThroughput:
    def test_batched_speedup_over_per_request(self, quickstart_rows):
        package, rows = quickstart_rows
        sides = {"per_request": 1, "batched": BATCH}
        best = dict.fromkeys(sides, 0.0)
        for _ in range(TRIALS):
            for side, max_batch_size in sides.items():
                rate = measure_serving_throughput(
                    package, rows, max_batch_size=max_batch_size,
                    batch_invariant=False,
                ).requests_per_sec
                best[side] = max(best[side], rate)
        per_request, batched = best["per_request"], best["batched"]
        speedup = batched / per_request
        print(
            f"\nper-request: {per_request:,.0f} req/s | "
            f"batch {BATCH}: {batched:,.0f} req/s | speedup {speedup:.1f}x "
            f"({N_REQUESTS} requests)"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"batched serving only {speedup:.2f}x faster than per-request "
            f"(required {MIN_SPEEDUP}x at max_batch_size={BATCH})"
        )

    def test_batched_outputs_match_per_request(self, quickstart_rows):
        """Throughput must not buy wrong answers: spot-check equivalence."""
        package, rows = quickstart_rows
        sample = rows[:8]
        batched = package.predict(np.asarray(sample))
        for i, row in enumerate(sample):
            assert np.allclose(batched[i], package.predict(row))
