"""A published artifact is the surrogate: raw rows in, raw outputs out.

A small Blackscholes build, whose scalers standardize both sides,
publishes into a registry.  A fresh interpreter that reads only that
registry must answer the build's raw flattened rows byte for byte as the
build's own ``DeployedSurrogate.run`` does, under ``batch_invariant()``:
through ``SurrogatePackage.load(...).predict``, and through
``Client.set_model_from_registry`` in thread mode and with one worker
process.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro import AutoHPCnet, AutoHPCnetConfig
from repro.apps import BlackscholesApplication
from repro.nn import batch_invariant

ROOT = Path(__file__).resolve().parents[2]

FAST = AutoHPCnetConfig(
    n_samples=120, outer_iterations=1, inner_trials=2, num_epochs=40,
    quality_problems=4, quality_loss=0.9, qoi_mu=0.5, seed=0,
)

SERVE = """
import sys
import numpy as np
from repro.nas.package import SurrogatePackage
from repro.nn import batch_invariant
from repro.registry import ModelRegistry
from repro.runtime import Client, Orchestrator

registry = ModelRegistry(sys.argv[1])
with np.load(sys.argv[2]) as data:
    rows, expected = data["rows"], data["expected"]

answers = {}
with batch_invariant():
    package = SurrogatePackage.load(registry.resolve("Blackscholes").path)
    answers["load"] = package.predict(rows)
for mode, processes in (("threads", 0), ("processes", 1)):
    orchestrator = Orchestrator(num_processes=processes)
    Client(orchestrator).set_model_from_registry("Blackscholes", registry)
    with orchestrator:
        answers[mode] = np.stack(
            Client(orchestrator).run_model_batch("Blackscholes", list(rows), timeout=120)
        )
for way, answer in answers.items():
    assert answer.dtype == expected.dtype, (way, answer.dtype)
    assert answer.tobytes() == expected.tobytes(), (
        way, float(np.max(np.abs(answer - expected)))
    )
print("ok", sorted(answers))
"""


def test_fresh_process_serves_raw_rows_from_the_registry(tmp_path):
    app = BlackscholesApplication()
    build = AutoHPCnet(FAST).build(app, checkpoint_dir=str(tmp_path / "build"))
    surrogate = build.surrogate

    problems = app.generate_problems(20, np.random.default_rng(7))
    rows = np.stack([surrogate.input_schema.flatten(p) for p in problems])
    with batch_invariant():
        expected = np.stack(
            [surrogate.output_schema.flatten(surrogate.run(p)) for p in problems]
        )
    np.savez(tmp_path / "rows.npz", rows=rows, expected=expected)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SERVE, str(tmp_path / "build" / "registry"),
         str(tmp_path / "rows.npz")],
        env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "['load',", "'processes',", "'threads']"]
    # both sides were standardized for training: the check has teeth
    assert not surrogate.package.x_scaler.is_identity
    assert not surrogate.package.y_scaler.is_identity
