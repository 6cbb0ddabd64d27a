"""Command-line interface: the user-facing script of §6.1.

The paper wraps the workflow in scripts the domain scientist runs after
annotating a region.  This CLI exposes the same verbs::

    python -m repro list-apps
    python -m repro lint src/repro/apps/cg.py --format json
    python -m repro lint CG                   # app: lint + cross-validate
    python -m repro trace CG --dot /tmp/cg.dot
    python -m repro build Blackscholes --samples 400 --out /tmp/bs
    python -m repro build CG --trace-out build.trace.json
    python -m repro build MG --parallel-trials 4 --prune-trials --out /tmp/mg
    python -m repro evaluate Blackscholes --problems 50
    python -m repro compare FFT
    python -m repro serve Blackscholes --max-batch-size 32 --baseline
    python -m repro serve Blackscholes --hot-swap
    python -m repro serve Blackscholes --no-compile --baseline
    python -m repro serve Blackscholes --processes 4
    python -m repro telemetry --app Blackscholes --format prometheus
    python -m repro registry list /tmp/bs/registry
    python -m repro registry verify /tmp/bs/registry
    python -m repro compile list /tmp/bs
    python -m repro compile warm /tmp/bs --model Blackscholes
    python -m repro compile clear /tmp/bs

``build`` writes the surrogate package (and the search checkpoint) to
``--out``; ``evaluate`` and ``compare`` build in-process with the given
budgets and run the Fig. 5 / Fig. 6 protocols.  ``--trace-out`` dumps a
Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)
and ``--metrics-out`` the Prometheus exposition; ``telemetry`` prints the
process-global metrics registry, optionally after exercising one app's
build + serving + guard path.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import obs
from .lifecycle.cli import add_lifecycle_parser, cmd_lifecycle
from .registry.cli import add_registry_parser, cmd_registry

if TYPE_CHECKING:
    from .core import AutoHPCnetConfig

# The applications, the pipeline and the reports load SciPy and the
# search, so each handler imports what it runs: ``registry`` and
# ``lifecycle`` never pay for them.

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-HPCnet reproduction: NN surrogates for HPC regions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the Table 2 applications")

    lint = sub.add_parser(
        "lint",
        help="static surrogate-fitness preflight over a file, module, or app",
    )
    lint.add_argument(
        "target",
        help="python file path, dotted module name, or app name (see list-apps)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="diagnostic output format (json is stable for CI consumption)",
    )
    lint.add_argument(
        "--fail-on", choices=("error", "warning"), default="error",
        help="lowest severity that makes the exit code nonzero",
    )
    lint.add_argument(
        "--no-crossval", action="store_true",
        help="for app targets: skip the dynamic trace cross-validation",
    )
    lint.add_argument(
        "--select", action="append", default=[], metavar="CODE",
        help="only report rules matching this code prefix (repeatable; "
        "e.g. --select CC gates just the concurrency rules)",
    )
    lint.add_argument(
        "--ignore", action="append", default=[], metavar="CODE",
        help="drop rules matching this code prefix (repeatable)",
    )
    lint.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser("trace", help="run the extractor on an app's region")
    trace.add_argument("app", help="application name (see list-apps)")
    trace.add_argument("--samples", type=int, default=20)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--dot", help="also write the DDDG as Graphviz DOT to this path")

    build = sub.add_parser("build", help="build a surrogate end to end")
    build.add_argument("app")
    build.add_argument("--samples", type=int, default=400)
    build.add_argument("--outer", type=int, default=2)
    build.add_argument("--inner", type=int, default=3)
    build.add_argument("--quality-loss", type=float, default=0.10)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--out", help="directory for the package + checkpoint")
    build.add_argument(
        "--no-compile", action="store_true",
        help="skip warming the serving plan cache after publishing",
    )
    _add_search_args(build)
    _add_telemetry_args(build)

    evaluate = sub.add_parser("evaluate", help="Fig. 5 protocol on one app")
    evaluate.add_argument("app")
    evaluate.add_argument("--problems", type=int, default=50)
    evaluate.add_argument("--mu", type=float, default=0.10)
    evaluate.add_argument("--samples", type=int, default=400)
    evaluate.add_argument("--seed", type=int, default=0)
    _add_telemetry_args(evaluate)

    telemetry = sub.add_parser(
        "telemetry",
        help="dump the process-global metrics registry (optionally after "
        "exercising one app's build + serving path)",
    )
    telemetry.add_argument(
        "--app", help="build + serve this app first so the registry has data"
    )
    telemetry.add_argument("--samples", type=int, default=120)
    telemetry.add_argument("--outer", type=int, default=1)
    telemetry.add_argument("--inner", type=int, default=2)
    telemetry.add_argument("--problems", type=int, default=5)
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument(
        "--format", choices=("table", "prometheus", "json"), default="table",
        dest="fmt", help="metrics output format",
    )
    _add_telemetry_args(telemetry)

    compare = sub.add_parser(
        "compare", help="Fig. 6 protocol: vs ACCEPT / perforation / Autokeras"
    )
    compare.add_argument("app")
    compare.add_argument("--problems", type=int, default=30)
    compare.add_argument("--samples", type=int, default=400)
    compare.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="benchmark the micro-batched serving path on one app's surrogate",
    )
    serve.add_argument("app")
    serve.add_argument(
        "--requests", type=int, default=512,
        help="inference requests to pipeline through the serving pool",
    )
    serve.add_argument(
        "--max-batch-size", type=int, default=32,
        help="most requests one vectorized forward may carry (1 = per-request)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="serving threads in the pool"
    )
    serve.add_argument(
        "--processes", type=int, default=0,
        help="serve from N sharded worker processes (consistent-hash model "
        "placement, shared-memory tensor transport) instead of the thread "
        "pool; 0 keeps threads",
    )
    serve.add_argument(
        "--no-batch-invariant", action="store_true",
        help="let model forwards use BLAS gemm (faster for large models, but "
        "outputs are no longer bit-reproducible across batch sizes)",
    )
    serve.add_argument(
        "--baseline", action="store_true",
        help="also measure strict per-request serving and report the speedup",
    )
    serve.add_argument(
        "--hot-swap", action="store_true",
        help="also smoke-test versioned serving: deploy a second version of "
        "the surrogate while requests are in flight and verify none fail",
    )
    serve.add_argument(
        "--no-compile", action="store_true",
        help="serve through the interpreted forward path instead of "
        "trace-and-compiled plans (the escape hatch, and the baseline the "
        "compiled path is judged against)",
    )
    serve.add_argument("--samples", type=int, default=200)
    serve.add_argument("--outer", type=int, default=1)
    serve.add_argument("--inner", type=int, default=2)
    serve.add_argument("--seed", type=int, default=0)
    _add_telemetry_args(serve)

    add_registry_parser(sub)

    compile_cmd = sub.add_parser(
        "compile",
        help="inspect, warm, or clear the persistent serving plan cache",
    )
    compile_cmd.add_argument(
        "action", choices=("list", "warm", "clear"),
        help="list cached plan keys, pre-compile a published surrogate's "
        "plans, or drop every cached plan",
    )
    compile_cmd.add_argument(
        "cache_dir",
        help="build output directory hosting the cache (the --out of "
        "`repro build`; plans live under <cache_dir>/plan_cache)",
    )
    compile_cmd.add_argument(
        "--model",
        help="for warm: registry artifact name to compile (required)",
    )
    compile_cmd.add_argument(
        "--version", type=int, default=None,
        help="for warm: registry artifact version (default: latest)",
    )
    compile_cmd.add_argument(
        "--registry", default=None,
        help="for warm: registry directory (default: <cache_dir>/registry)",
    )

    add_lifecycle_parser(sub)

    return parser


def _add_search_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel-trials", type=int, default=1,
        help="inner NAS trials proposed per constant-liar batch and evaluated "
        "concurrently (1 = the classic sequential loop)",
    )
    parser.add_argument(
        "--trial-workers", type=int, default=None,
        help="threads evaluating one trial batch (default: one per trial)",
    )
    parser.add_argument(
        "--prune-trials", action="store_true",
        help="cut inner trials short when their validation curve falls "
        "behind the median of earlier trials (median-stopping rule)",
    )
    parser.add_argument(
        "--no-ae-cache", action="store_true",
        help="always retrain autoencoders instead of reusing cached "
        "artifacts (the cache persists under --out when given)",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        help="write a Chrome trace-event JSON of the run (open in "
        "chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out",
        help="write the Prometheus text exposition of the run's metrics",
    )


def _flush_telemetry(args: argparse.Namespace) -> None:
    """Honor --trace-out/--metrics-out after a command body ran."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        path = obs.get_tracer().export_chrome_trace(trace_out)
        print(f"trace written to {path}")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from pathlib import Path

        path = Path(metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(obs.get_registry().to_prometheus())
        print(f"metrics written to {path}")


def _config(args: argparse.Namespace) -> AutoHPCnetConfig:
    from .core import AutoHPCnetConfig

    return AutoHPCnetConfig(
        n_samples=args.samples,
        outer_iterations=getattr(args, "outer", 2),
        inner_trials=getattr(args, "inner", 3),
        quality_loss=getattr(args, "quality_loss", 0.10),
        parallel_trials=getattr(args, "parallel_trials", 1),
        trial_workers=getattr(args, "trial_workers", None),
        prune_trials=getattr(args, "prune_trials", False),
        ae_cache=not getattr(args, "no_ae_cache", False),
        compile_plans=not getattr(args, "no_compile", False),
        seed=args.seed,
    )


def _cmd_list_apps() -> int:
    from .apps import ALL_APPLICATIONS

    print(f"{'name':<16}{'type':<6}{'replaced function':<22}{'QoI'}")
    for cls in ALL_APPLICATIONS:
        print(f"{cls.name:<16}{cls.app_type:<6}{cls.replaced_function:<22}{cls.qoi_name}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from .apps import ALL_APPLICATIONS, make_application
    from .static import LintReport, Severity, cross_validate, lint_region_fn, lint_module

    app_names = {cls.name.lower() for cls in ALL_APPLICATIONS}
    if not os.path.isfile(args.target) and args.target.lower() in app_names:
        # app target: runtime lint of the region plus static/dynamic
        # cross-validation on the app's example problem
        app = make_application(args.target)
        static_report, diags = lint_region_fn(app.region_fn)
        report = LintReport(
            target=f"app {app.name} (region {static_report.region_name!r})",
            regions=(static_report.region_name,),
            diagnostics=list(diags),
        )
        if not args.no_crossval:
            problem = app.example_problem(np.random.default_rng(args.seed))
            cv = cross_validate(app.region_fn, problem)
            report.extend(cv.diagnostics)
            if args.fmt == "text":
                print(cv.summary())
    else:
        report = lint_module(args.target)

    if args.select or args.ignore:
        report = report.filter(select=args.select, ignore=args.ignore)
    if args.fmt == "json":
        print(report.format_json())
    else:
        print(report.format_text())
    return report.exit_code(Severity.parse(args.fail_on))


def _cmd_trace(args: argparse.Namespace) -> int:
    from .apps import make_application

    app = make_application(args.app)
    acq = app.acquire(n_samples=args.samples, rng=np.random.default_rng(args.seed))
    print(acq.summary())
    print(f"inputs:    {list(acq.io.inputs)}")
    print(f"outputs:   {list(acq.io.outputs)}")
    print(f"internals: {list(acq.io.internals)}")
    if args.dot:
        from .extract import write_dot

        path = write_dot(acq.dddg, args.dot, acq.io)
        print(f"DDDG written to {path}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from .apps import make_application
    from .core import AutoHPCnet
    from .core.reports import format_build_report

    app = make_application(args.app)
    build = AutoHPCnet(_config(args)).build(app, checkpoint_dir=args.out)
    print(format_build_report(build))
    if args.out:
        build.surrogate.package.save(f"{args.out}/package")
        print(f"\npackage saved to {args.out}/package")
    if build.artifact is not None:
        print(
            f"published to registry: {build.artifact.name} "
            f"v{build.artifact.version} (digest {build.artifact.digest[:12]})"
        )
    _flush_telemetry(args)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .apps import make_application
    from .core import AutoHPCnet, evaluate_surrogate
    from .core.reports import format_evaluation_table

    app = make_application(args.app)
    build = AutoHPCnet(_config(args)).build(app)
    row = evaluate_surrogate(
        build.surrogate,
        n_problems=args.problems,
        mu=args.mu,
        rng=np.random.default_rng(args.seed + 1),
    )
    print(format_evaluation_table([row]))
    _flush_telemetry(args)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.app:
        from .apps import make_application
        from .core import AutoHPCnet
        from .runtime import ServingSession, default_validator, GuardedSurrogate

        app = make_application(args.app)
        build = AutoHPCnet(_config(args)).build(app)
        session = ServingSession(build.surrogate.package)
        guarded = GuardedSurrogate(build.surrogate, default_validator(app.name))
        rng = np.random.default_rng(args.seed + 1)
        for problem in app.generate_problems(args.problems, rng):
            session.infer(build.surrogate.input_schema.flatten(problem))
            guarded.run(problem)
        print(f"exercised {args.problems} serving + guarded invocations on {app.name}\n")
    registry = obs.get_registry()
    if args.fmt == "prometheus":
        print(registry.to_prometheus(), end="")
    elif args.fmt == "json":
        print(registry.to_json())
    else:
        from .core.reports import format_metrics_table

        print(format_metrics_table(registry.snapshot()))
    _flush_telemetry(args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .apps import make_application
    from .core import AutoHPCnet
    from .runtime import measure_serving_throughput

    app = make_application(args.app)
    build = AutoHPCnet(_config(args)).build(app)
    surrogate = build.surrogate
    rng = np.random.default_rng(args.seed + 1)
    n_problems = min(args.requests, 64)
    rows = np.stack(
        [
            surrogate.input_schema.flatten(p)
            for p in app.generate_problems(n_problems, rng)
        ]
    )
    reps = -(-args.requests // len(rows))  # ceil division
    rows = np.tile(rows, (reps, 1))[: args.requests]

    result = measure_serving_throughput(
        surrogate.package,
        rows,
        max_batch_size=args.max_batch_size,
        num_workers=args.workers,
        batch_invariant=not args.no_batch_invariant,
        model_name=app.name,
        compile_plans=not args.no_compile,
        num_processes=args.processes,
    )
    print(result.format())
    # snapshot the batch-size histogram before the baseline run pollutes
    # it with its 1-request batches (the registry is process-global)
    registry = obs.get_registry()
    batch_size = registry.get("repro_orchestrator_batch_size")
    if batch_size is not None and batch_size.count():
        # exact figures: the histogram's percentiles interpolate in-bucket
        count = batch_size.count()
        print(f"micro-batches: {count} (mean size {batch_size.sum() / count:.1f})")
    if args.baseline:
        baseline = measure_serving_throughput(
            surrogate.package,
            rows,
            max_batch_size=1,
            num_workers=1,
            batch_invariant=not args.no_batch_invariant,
            model_name=app.name,
            compile_plans=not args.no_compile,
        )
        print(f"baseline: {baseline.format()}")
        print(
            f"speedup: {result.requests_per_sec / baseline.requests_per_sec:.1f}x"
        )
    if args.hot_swap:
        code = _hot_swap_smoke(app.name, surrogate.package, rows, args)
        if code:
            return code
    _flush_telemetry(args)
    return 0


def _hot_swap_smoke(name, package, rows, args: argparse.Namespace) -> int:
    """Deploy a second surrogate version while requests are in flight."""
    from .runtime import Client, Orchestrator

    orc = Orchestrator(
        max_batch_size=args.max_batch_size,
        num_workers=args.workers,
        batch_invariant=not args.no_batch_invariant,
        compile_plans=not args.no_compile,
    )
    client = Client(orc)
    v1 = client.set_model(name, package)
    v2 = client.set_model(name, package, deploy=False)
    half = max(1, len(rows) // 2)
    with orc:
        halves = [orc.submit(name, list(rows[:half]))]
        deployed = client.deploy_model(name, v2)
        halves.append(orc.submit(name, list(rows[half:])))
        failures = 0
        for handle in halves:
            if handle.done.wait(timeout=60.0):
                failures += sum(error is not None for error in handle.errors)
            else:
                failures += len(handle.errors)
        active = orc.active_version(name)
    print(
        f"hot-swap smoke: {len(rows)} requests across deploy "
        f"v{v1}->v{deployed}, {failures} failed, active v{active}"
    )
    return 1 if failures or active != deployed else 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .compile import (
        UNTRACEABLE_KINDS,
        PlanCache,
        UntraceableModelError,
        warm_plan_cache,
    )
    from .nas.package import SurrogatePackage
    from .registry import ModelRegistry

    cache = PlanCache(args.cache_dir)
    if args.action == "list":
        keys = cache.keys()
        for key in keys:
            info = cache.describe(key)
            if info is None:
                print(key)
                continue
            kinds = ",".join(info["step_kinds"]) or "-"
            mode = "invariant" if info["batch_invariant"] else "blas"
            print(f"{key}  [{mode}] steps={kinds}")
        print(f"{len(keys)} cached plan(s) under {cache.directory}")
        print("still interpreted (untraceable kinds):")
        for reason, what in sorted(UNTRACEABLE_KINDS.items()):
            print(f"  {reason}: {what}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached plan(s) under {cache.directory}")
        return 0
    # warm: compile a published surrogate's natural specializations
    if not args.model:
        print("compile warm requires --model <registry artifact name>",
              file=sys.stderr)
        return 2
    registry_dir = args.registry or str(Path(args.cache_dir) / "registry")
    registry = ModelRegistry(registry_dir)
    ref = registry.resolve(args.model, args.version)
    package = SurrogatePackage.load(ref.path)
    try:
        keys = warm_plan_cache(cache, package, digest=ref.digest)
    except UntraceableModelError as exc:
        print(f"cannot compile {args.model}: {exc}", file=sys.stderr)
        return 1
    print(
        f"warmed {len(keys)} plan(s) for {ref.name} v{ref.version} "
        f"under {cache.directory}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .apps import make_application
    from .baselines import compare_methods
    from .core import AutoHPCnetConfig

    app = make_application(args.app)
    config = AutoHPCnetConfig(n_samples=args.samples, seed=args.seed)
    rows = compare_methods(
        app, config=config, n_problems=args.problems, seed=args.seed
    )
    for row in rows:
        print(row.format())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-apps":
        return _cmd_list_apps()
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "registry":
        return cmd_registry(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "lifecycle":
        return cmd_lifecycle(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
