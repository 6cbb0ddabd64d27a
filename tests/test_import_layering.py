"""Import layering: a serving process loads serving code only.

Every rank and every spawned worker imports the serving stack, so what
that import closure pulls in is start-up time paid everywhere.  The
offline stack (the search, the extractor's tracing and sampling,
autoencoder training, the compiled training step) loads on demand and
never in a serving process.  SciPy loads in neither: the tests use it as
a reference only.
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
    "repro.nn.trainstep",
)
#: modules a thread-mode Listing-2 process must not load either: process
#: mode, persistence, the guard, the cost model, the training stack and
#: the scaler class (a package's scalers arrive as objects) load on
#: first use
LISTING2_ON_DEMAND = (
    "multiprocessing",
    "repro.runtime.procworker",
    "repro.runtime.shm_store",
    "repro.runtime.serving",
    "repro.runtime.guard",
    "repro.nn.train",
    "repro.nn.optim",
    "repro.nn.checkpoint",
    "repro.nn.losses",
    "repro.nn.cnn",
    "repro.nn.conv",
    "repro.perf.devices",
    "repro.perf.cache",
    "repro.perf.counting",
    "repro.registry.store",
    "repro.autoencoder",
    "repro.obs.merge",
    "repro.core.scaling",
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


def report_loaded(modules: tuple) -> str:
    """Code that prints the loaded modules that fall under ``modules``, as JSON."""
    return f"""
import json, sys
listed = {modules!r}
print(json.dumps(sorted(
    m for m in sys.modules if any(m == o or m.startswith(o + ".") for o in listed)
)))
"""


REPORT_OFFLINE = report_loaded(OFFLINE)

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


# the CLI too: ``repro registry`` and ``repro lifecycle`` load no build code
@pytest.mark.parametrize("module", SERVING_ENTRIES + ("repro.cli",))
def test_serving_entry_loads_no_offline_module(module):
    out = run_python("-c", f"import {module}\n{REPORT_OFFLINE}")
    assert json.loads(out.splitlines()[-1]) == []


def test_registry_loads_no_nn_module():
    """The store knows no model type: the codecs load on demand."""
    out = run_python("-c", """
import json, sys
import repro.registry
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.nn"))))
""")
    assert json.loads(out.splitlines()[-1]) == []


def test_listing2_call_loads_no_offline_module():
    out = run_python("-c", LISTING2 + report_loaded(OFFLINE + LISTING2_ON_DEMAND))
    assert json.loads(out.splitlines()[-1]) == []


def test_exact_fallback_loads_no_offline_module():
    """An application module and §7.1's restart on its region (the
    guard's fallback body) need no extractor."""
    out = run_python("-c", """
import numpy as np
from repro.apps.amg import AMGApplication

app = AMGApplication()
outputs = app.exact_outputs(app.example_problem(np.random.default_rng(0)))
assert sorted(outputs) == ["iters", "x"]
""" + REPORT_OFFLINE)
    assert json.loads(out.splitlines()[-1]) == []


def small_registry(root: Path) -> Path:
    from repro.lifecycle.state import LifecycleRecord, LifecycleStore
    from repro.registry import ModelRegistry

    registry = ModelRegistry(root)
    registry.publish(
        "demo", "nn-model", lambda staged: (staged / "blob.bin").write_bytes(b"x"),
        input_dim=4, output_dim=2,
    )
    LifecycleStore(registry, "demo").save(LifecycleRecord(model="demo", incumbent=1))
    return root


@pytest.mark.parametrize("argv", [
    ["registry", "list", "{root}"],
    ["lifecycle", "status", "{root}", "--model", "demo", "--registry", "{root}"],
])
def test_operator_subcommand_loads_no_offline_module(argv, tmp_path):
    root = str(small_registry(tmp_path / "registry"))
    argv = [a.format(root=root) for a in argv]
    out = run_python("-c", f"""
from repro.cli import main
assert main({argv!r}) == 0
{REPORT_OFFLINE}""")
    assert "demo" in out
    assert json.loads(out.splitlines()[-1]) == []


LAZY_PACKAGES = (
    "repro", "repro.core", "repro.nas", "repro.autoencoder", "repro.extract",
    "repro.nn", "repro.perf", "repro.runtime", "repro.compile",
)


def test_lazy_package_names_still_resolve():
    out = run_python("-c", f"""
import importlib
for pkg in map(importlib.import_module, {LAZY_PACKAGES!r}):
    for name in pkg.__all__:
        assert getattr(pkg, name) is not None, (pkg.__name__, name)
    assert set(pkg.__all__) <= set(dir(pkg))
print("ok")
""")
    assert out.split() == ["ok"]


def test_no_export_resolves_to_a_submodule():
    """With every submodule loaded (the import system binds each onto its
    package), every re-exported name is still what the package exports."""
    out = run_python("-c", f"""
import importlib, pkgutil, types
for pkg in map(importlib.import_module, {LAZY_PACKAGES!r}[1:]):
    for sub in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(pkg.__name__ + "." + sub.name)
    for name in pkg.__all__:
        assert not isinstance(getattr(pkg, name), types.ModuleType), (pkg.__name__, name)
print("ok")
""", timeout=300)
    assert out.split() == ["ok"]


def test_export_named_like_its_submodule():
    """``repro.nn.checkpoint`` is the function, also when its submodule
    loads first; the submodule still imports by its dotted name."""
    run_python("-c", """
import repro.nn.checkpoint
import sys
import repro.nn
from repro.nn import checkpoint
from repro.nn.checkpoint import CheckpointSequential
module = sys.modules["repro.nn.checkpoint"]
assert checkpoint is repro.nn.checkpoint is module.checkpoint
assert repro.nn.CheckpointSequential is CheckpointSequential
""")


def test_unknown_name_raises_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018


def test_build_loads_no_scipy(tmp_path):
    """The offline build itself needs only NumPy: SciPy is a test-only
    reference."""
    out = run_python("-c", f"""
import json, sys
from repro.cli import main
assert main(["build", "Blackscholes", "--samples", "60", "--outer", "1",
             "--inner", "2", "--out", {str(tmp_path)!r}]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""", timeout=300)
    assert json.loads(out.splitlines()[-1]) == []


def test_telemetry_lists_the_same_metrics():
    out = run_python(
        "-m", "repro", "telemetry", "--app", "Blackscholes", "--samples", "40",
        "--outer", "1", "--inner", "1", "--problems", "2", "--format", "json",
        timeout=300,
    )
    metrics = json.loads(out[out.index("{"):])["metrics"]
    assert sorted({m["name"] for m in metrics}) == TELEMETRY_NAMES
