"""Checkpoint / restore of the architecture search (§6.1).

Auto-HPCnet lets the user stop the (long) model-architecture search and
resume it later, and share the trained autoencoder + surrogate across
applications.  This script:

1. runs the first outer iteration of the 2D NAS for the MG application and
   checkpoints it;
2. "comes back later": a fresh ``AutoHPCnet`` instance resumes from the
   checkpoint and finishes the remaining iterations (the completed
   iteration is not re-run — watch the outer history);
3. re-loads the surrogate package the build published (scalers,
   autoencoder and model) into a *different* object from the registry,
   demonstrating the save/share path: it answers raw region rows.

Run:  python examples/search_checkpointing.py
"""

import tempfile

import numpy as np

from repro import AutoHPCnet, AutoHPCnetConfig
from repro.apps import MGApplication
from repro.nas import SurrogatePackage
from repro.registry import ModelRegistry


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="autohpcnet_ckpt_") as workdir:
        run(workdir)


def run(workdir: str) -> None:
    app = MGApplication()

    base = dict(
        n_samples=300, inner_trials=3, num_epochs=80, ae_epochs=40,
        quality_loss=0.10, seed=4,
    )

    print("phase 1: run ONE outer iteration, then stop ...")
    cfg1 = AutoHPCnetConfig(outer_iterations=1, **base)
    build1 = AutoHPCnet(cfg1).build(app, checkpoint_dir=workdir)
    print(f"  outer iterations completed: {len(build1.search.outer_history)}")
    print(f"  checkpoint written to {workdir}\n")

    print("phase 2: resume and finish the search (3 iterations total) ...")
    cfg2 = AutoHPCnetConfig(outer_iterations=3, **base)
    build2 = AutoHPCnet(cfg2).build(app, checkpoint_dir=workdir)
    history = build2.search.outer_history
    print(f"  outer iterations in history: {len(history)}")
    for obs in history:
        print(f"    K={obs.k:<5} f_c={obs.f_c:.3e}s f_e={obs.f_e:.3f} "
              f"(sigma_y={obs.ae_sigma:.2f}, {obs.inner_trials} inner trials)")
    print(f"  {build2.search.summary()}\n")

    print("phase 3: share the surrogate ...")
    # the build published its package, scalers included, into the
    # registry under the checkpoint directory
    loaded = SurrogatePackage.from_registry(
        ModelRegistry(f"{workdir}/registry"), app.name
    )
    problem = app.example_problem(np.random.default_rng(11))
    x = build2.surrogate.input_schema.flatten(problem)
    assert np.array_equal(loaded.predict(x), build2.surrogate.package.predict(x))
    print(f"  package re-loaded from {build2.artifact.path}: predictions identical")


if __name__ == "__main__":
    main()
