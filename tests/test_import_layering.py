"""Import layering: a serving process loads serving code only.

Every rank and every spawned worker imports the serving stack, so what
that import closure pulls in is start-up time paid everywhere.  The
offline stack (SciPy, the search, the extractor's tracing and sampling,
autoencoder training) loads on demand and never in a serving process.
Each check runs in a fresh interpreter: ``sys.modules`` of the test
process already holds everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: modules a serving process must not load
OFFLINE = (
    "scipy",
    "repro.bo",
    "repro.nas.hierarchical",
    "repro.nas.inner",
    "repro.extract.dddg",
    "repro.extract.acquisition",
    "repro.extract.sampling",
    "repro.autoencoder.training",
)
SERVING_ENTRIES = (
    "repro",
    "repro.runtime",
    "repro.runtime.procworker",
    "repro.nas.package",
    "repro.compile",
    "repro.nn",
    # the region annotation every rank's application module carries
    "repro.extract.directives",
)

#: metric names ``repro telemetry`` listed after the small Blackscholes
#: build and serve below, when every module loaded eagerly
TELEMETRY_NAMES = [
    "repro_canary_fraction", "repro_canary_hit_rate",
    "repro_canary_promotions_total", "repro_canary_requests_total",
    "repro_canary_rollbacks_total", "repro_canary_version",
    "repro_compile_plan_build_seconds", "repro_compile_plan_exec_seconds",
    "repro_compile_plans_built_total", "repro_compile_untraceable_total",
    "repro_guard_fallback_seconds", "repro_guard_fallbacks_total",
    "repro_guard_invocations_total", "repro_guard_surrogate_seconds",
    "repro_nas_batch_ask_size", "repro_nas_best_f_c", "repro_nas_best_f_e",
    "repro_orchestrator_batch_size", "repro_orchestrator_batched_rows_total",
    "repro_orchestrator_failed_total", "repro_orchestrator_inference_seconds",
    "repro_orchestrator_queue_depth", "repro_orchestrator_served_total",
    "repro_orchestrator_stuck_workers", "repro_orchestrator_submitted_total",
    "repro_orchestrator_tensor_store_size", "repro_registry_active_version",
    "repro_registry_rollbacks_total", "repro_registry_swaps_total",
    "repro_serving_phase_seconds",
]

#: lists the loaded modules that fall under OFFLINE, as JSON
REPORT_OFFLINE = f"""
import json, sys
offline = {OFFLINE!r}
print(json.dumps(sorted(
    m for m in sys.modules if any(m == o or m.startswith(o + ".") for o in offline)
)))
"""

LISTING2 = """
import numpy as np
from repro.nas.package import SurrogatePackage
from repro.nn.mlp import Topology, build_mlp
from repro.runtime import Client, Orchestrator

topology = Topology(hidden=(8,), activation="tanh")
package = SurrogatePackage(
    model=build_mlp(4, 2, topology, rng=np.random.default_rng(0)),
    topology=topology, input_dim=4, output_dim=2,
)
orchestrator = Orchestrator()
client = Client(orchestrator)
client.set_model("m", package)
orchestrator.start()
try:
    x = np.arange(4.0)
    client.put_tensor("in", x)
    client.run_model("m", "in", "out")
    assert np.array_equal(client.unpack_tensor("out"), package.predict(x))
finally:
    orchestrator.stop()
"""


def run_python(*args: str, timeout: float = 120) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "module", SERVING_ENTRIES + ("repro.registry", "repro.cli", "repro.bo")
)
def test_module_imports_alone(module):
    """No entry module leans on another having been imported first."""
    run_python("-c", f"import {module}")


@pytest.mark.parametrize("module", SERVING_ENTRIES)
def test_serving_entry_loads_no_offline_module(module):
    out = run_python("-c", f"import {module}\n{REPORT_OFFLINE}")
    assert json.loads(out.splitlines()[-1]) == []


def test_listing2_call_loads_no_offline_module():
    out = run_python("-c", LISTING2 + REPORT_OFFLINE)
    assert json.loads(out.splitlines()[-1]) == []


def test_lazy_package_names_still_resolve():
    out = run_python("-c", """
import repro, repro.core, repro.nas, repro.autoencoder, repro.extract
for pkg in (repro, repro.core, repro.nas, repro.autoencoder, repro.extract):
    for name in pkg.__all__:
        assert getattr(pkg, name) is not None, (pkg.__name__, name)
    assert set(pkg.__all__) <= set(dir(pkg))
print("ok")
""")
    assert out.split() == ["ok"]


def test_unknown_name_raises_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018


def test_telemetry_lists_the_same_metrics():
    out = run_python(
        "-m", "repro", "telemetry", "--app", "Blackscholes", "--samples", "40",
        "--outer", "1", "--inner", "1", "--problems", "2", "--format", "json",
        timeout=300,
    )
    metrics = json.loads(out[out.index("{"):])["metrics"]
    assert sorted({m["name"] for m in metrics}) == TELEMETRY_NAMES
