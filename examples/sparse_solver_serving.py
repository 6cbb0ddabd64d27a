"""Sparse CG solver served through the orchestrator (Listings 1-2).

This scenario covers the parts of Auto-HPCnet the other examples don't:

* the **extractor** output on a real sparse-solver region — which variables
  it classified as inputs/outputs, and how much the loop compression saved;
* the **sparse code path** — the CG matrix is never made dense: the input
  schema fills the surrogate's row from the matrix's live CSR entries;
* **online serving** — the surrogate is saved to disk, reloaded through
  ``Client.set_model_from_file`` (Listing 2), and invoked through the
  in-memory tensor store with per-phase timing (§7.3 online overheads).

Run:  python examples/sparse_solver_serving.py
"""

import tempfile

import numpy as np

from repro import AutoHPCnet, AutoHPCnetConfig
from repro.apps import CGApplication
from repro.runtime import Client, Orchestrator, ServingSession


def main() -> None:
    app = CGApplication()

    # --- the extractor view of the region (§3) ---
    acq = app.acquire(n_samples=50, rng=np.random.default_rng(0))
    print("extractor summary:")
    print(" ", acq.summary())
    print(f"  inputs:  {list(acq.io.inputs)}")
    print(f"  outputs: {list(acq.io.outputs)}")
    print(f"  internals: {list(acq.io.internals)}")
    print(f"  mini-scale matrix density: {app.matrix.density:.2%} "
          f"(at NPB class-B scale the dense unroll costs ~{app.unrolled_blowup:.0f}x, §1)\n")

    # --- build the surrogate ---
    config = AutoHPCnetConfig(
        n_samples=400, outer_iterations=2, inner_trials=3,
        quality_loss=0.10, seed=0,
    )
    print("building the CG surrogate ...")
    build = AutoHPCnet(config).build(app)
    print(build.search.summary(), "\n")

    # --- save / reload through the client (Listing 2) ---
    orchestrator = Orchestrator()
    client = Client(orchestrator, cluster=False)
    with tempfile.TemporaryDirectory(prefix="autohpcnet_") as workdir:
        build.surrogate.package.save(f"{workdir}/AI-CFD-net")
        package = client.set_model_from_file(
            "AI-CFD-net", f"{workdir}/AI-CFD-net", "TORCH", "GPU"
        )
        print(f"model re-loaded from {workdir}/AI-CFD-net "
              f"({package.num_parameters()} parameters)\n")

    # --- Listing 1 flow: put_tensor -> run_model -> unpack_tensor ---
    problem = app.example_problem(np.random.default_rng(5))
    client.put_tensor("in_key", build.surrogate.input_schema.flatten(problem))
    client.run_model("AI-CFD-net", inputs="in_key", outputs="out_key")
    solution = client.unpack_tensor("out_key")

    exact, _ = app.region_fn(**problem)
    rel = np.linalg.norm(solution - exact) / np.linalg.norm(exact)
    qoi_exact = app.qoi_from_outputs(problem, {"x": exact})
    qoi_sur = app.qoi_from_outputs(problem, {"x": solution})
    print(f"surrogate vs exact CG solution: vector L2 error {rel:.2%}, "
          f"QoI error {abs(qoi_sur - qoi_exact) / qoi_exact:.2%}")
    print("(the search optimizes the application's QoI under its quality bound,")
    print(" not the raw vector error — §6.2's quality-oriented optimization)\n")

    # --- phase-timed serving loop (§7.3) ---
    session = ServingSession(build.surrogate.package, model_name="AI-CFD-net")
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = app.example_problem(rng)
        session.infer(build.surrogate.input_schema.flatten(p))
    print("measured online phase breakdown over 20 invocations:")
    print(session.timer.report())


if __name__ == "__main__":
    main()
