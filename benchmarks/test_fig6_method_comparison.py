"""Figure 6: Auto-HPCnet vs ACCEPT vs loop perforation vs Autokeras.

Paper result: Auto-HPCnet consistently wins on all 11 applications; ACCEPT
and loop perforation exceed 2x on only a few apps (Blackscholes for ACCEPT,
fluidanimate and X264 for perforation); Autokeras reaches 12.8x/10.89x on
Blackscholes/fluidanimate but *slows down* the applications whose inputs
are high-dimensional sparse matrices (CG, AMG here) because it cannot
consume sparse formats and is blind to the final quality.

All methods are quality-enforced: per §7.1 a problem that misses the
quality requirement restarts on the original code (restart-adjusted
effective speedup).  All four are scored on one problem set per app, so
the exact region runs once per evaluation problem.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps import make_application
from repro.baselines import (
    build_accept_surrogate,
    build_autokeras_surrogate,
    evaluate_perforation,
    find_max_rate,
)
from repro.core.evaluation import ProblemSet, evaluate_surrogate
from repro.perf import effective_speedup

from conftest import APP_NAMES, BENCH_CONFIG, MU, N_EVAL_PROBLEMS, eval_rng

#: comparison subset keeps the bench affordable while covering all types
#: and both Autokeras behaviours (dense win, sparse slowdown)
FIG6_APPS = ("CG", "FFT", "MG", "Blackscholes", "fluidanimate",
             "streamcluster", "X264", "AMG", "Laghos")


def _compare(all_builds):
    table = {}
    for name in FIG6_APPS:
        app = make_application(name)
        problems = ProblemSet.draw(app, N_EVAL_PROBLEMS, eval_rng())
        rows = {}

        build = all_builds[name]
        auto = evaluate_surrogate(build.surrogate, mu=MU, problems=problems)
        rows["Auto-HPCnet"] = (
            effective_speedup(auto.breakdown, auto.hit_rate), auto.hit_rate
        )

        if app.app_type == "II":
            accept = build_accept_surrogate(
                app, n_samples=BENCH_CONFIG.n_samples,
                num_epochs=BENCH_CONFIG.num_epochs, seed=0,
            )
            arow = evaluate_surrogate(accept, mu=MU, problems=problems)
            rows["ACCEPT"] = (
                effective_speedup(arow.breakdown, arow.hit_rate), arow.hit_rate
            )
        else:
            rows["ACCEPT"] = (float("nan"), float("nan"))

        rate = find_max_rate(app, mu=MU, rng=np.random.default_rng(5))
        perf = evaluate_perforation(app, rate, mu=MU, problems=problems)
        rows["LoopPerforation"] = (perf.speedup, perf.hit_rate)

        autokeras = build_autokeras_surrogate(
            app, n_trials=6, n_samples=BENCH_CONFIG.n_samples,
            num_epochs=BENCH_CONFIG.num_epochs, seed=0,
        )
        krow = evaluate_surrogate(
            autokeras, mu=MU, problems=problems,
            transfer_blowup=app.unrolled_blowup,
        )
        rows["Autokeras"] = (
            effective_speedup(krow.breakdown, krow.hit_rate), krow.hit_rate
        )
        table[name] = rows
    return table


def test_fig6_method_comparison(all_builds, benchmark):
    table = benchmark.pedantic(lambda: _compare(all_builds), rounds=1, iterations=1)

    methods = ("Auto-HPCnet", "ACCEPT", "LoopPerforation", "Autokeras")
    print("\n=== Fig. 6: quality-enforced speedup by method ===")
    header = f"{'application':<14}" + "".join(f"{m:>18}" for m in methods)
    print(header)
    for name in FIG6_APPS:
        cells = []
        for m in methods:
            s, h = table[name][m]
            cells.append("       n/a        " if math.isnan(s) else f"{s:7.2f}x ({h:4.0%}) ")
        print(f"{name:<14}" + "".join(f"{c:>18}" for c in cells))
    print("paper: Auto-HPCnet wins everywhere; Autokeras slows down sparse-input apps")

    # --- shape assertions ---
    for name in FIG6_APPS:
        auto_s = table[name]["Auto-HPCnet"][0]
        for m in ("ACCEPT", "LoopPerforation", "Autokeras"):
            other = table[name][m][0]
            if not math.isnan(other):
                assert auto_s >= other * 0.95, (name, m, auto_s, other)
    # Autokeras pays the dense-unroll transfer on the sparse-matrix apps
    for sparse_app in ("CG", "AMG"):
        assert table[sparse_app]["Autokeras"][0] < 1.2, table[sparse_app]
    # perforation stays modest: its granularity is the loop iteration
    perf_values = [table[n]["LoopPerforation"][0] for n in FIG6_APPS]
    assert max(perf_values) < max(table[n]["Auto-HPCnet"][0] for n in FIG6_APPS)
