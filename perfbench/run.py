"""perfbench: the repository's one benchmark command.

    python3 perfbench/run.py --workload listing2-mixed --seed 1 \
        --seconds 10 --trace 0

Runs from the root of a checkout.  Each workload runs in fresh
interpreters (``workloads.py``) with one BLAS thread, so import state
and peak RSS belong to that workload.

``--trace 0`` measures the end-to-end metrics with no spans: several
interpreters each set up and do an equal share of the fixed work, and
the metrics are medians over them.  ``--trace 1`` runs one interpreter
that does the whole work untraced and then traced, prints the per-layer
self time, the unattributed remainder and the tracing overhead, writes
a Chrome trace under ``perfbench/out/``, and reports the per-layer
metrics.

Standard output ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``; a wrong output makes the command exit 1.  Every
run appends its record, stamped with its environment, to
``perfbench/out/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: interpreters per measured run; each sets up and does an equal share
#: of the work.  An AMG build cannot be split: each of those interpreters
#: does one whole build
PROCESSES = {"listing2-mixed": 4, "build-amg": 4}
#: per-interpreter values reported as their median
MEDIANS = ("setup_s", "p50_ms", "peak_rss_mb", "hit_rate")
#: a run must end within 180 s; children share what is left of this
DEADLINE_S = 170.0
#: BLAS and OpenMP pools pinned to one thread before NumPy loads; any
#: process the workload spawns inherits the environment
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    probe_s = host_probe_s()
    if args.trace:
        runs = [child(args, "trace", args.seconds, started)]
    else:
        procs = PROCESSES[args.workload]
        runs = [
            child(args, "measure", args.seconds / procs, started)
            for _ in range(procs)
        ]
    result = combine(runs)

    if args.trace:
        # a layer this workload never calls into spent 0 s in it
        values = result["trace"]["layers"]
        wanted = spec["per_layer"]
    else:
        values = result
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }

    report(args, result, probe_s)
    record = {
        "env": {**environment(args, result), "host_probe_s": probe_s},
        "workload": args.workload,
        "result": {k: v for k, v in result.items() if k != "trace"},
        "runs": [
            {k: v for k, v in r.items() if k not in ("latencies_ms", "trace")}
            for r in runs
        ],
        "trace": result.get("trace"),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def combine(runs: list[dict]) -> dict:
    """One result from the workload's interpreters.

    Timings and peak RSS are medians over the interpreters, counts are
    sums, ``ops_per_s`` is every completed row over all operation time,
    and p99 pools every latency.
    """
    result = dict(runs[-1])
    for key in MEDIANS:
        if key in result:
            result[key] = statistics.median(r[key] for r in runs)
    for key in ("attempted", "failed", "latency_samples", "work_s"):
        result[key] = sum(r[key] for r in runs)
    if result["work_s"]:
        result["ops_per_s"] = (
            sum(r["ops_per_s"] * r["work_s"] for r in runs) / result["work_s"]
        )
    result["failed_ratio"] = result["failed"] / result["attempted"]
    latencies = sorted(x for r in runs for x in r.get("latencies_ms", ()))
    # nearest rank; 0 when every operation failed
    result["p99_ms"] = (
        latencies[math.ceil(0.99 * len(latencies)) - 1] if latencies else 0.0
    )
    result["errors"] = [e for r in runs for e in r["errors"]]
    result["correct"] = not result["errors"]
    result["interpreters"] = len(runs)
    result.pop("latencies_ms", None)
    return result


def child(args, phase: str, seconds: float, started: float) -> dict:
    """Run one workload interpreter; its last stdout line is its result."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--phase", phase,
        "--out", str(OUT),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started))
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} {phase} timed out")
    finally:
        reap_group(proc.pid)
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"perfbench: {args.workload} {phase} exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def reap_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait for the child's process group to empty; kill what stays.

    Multiprocessing's resource tracker exits once its parent is gone;
    anything still in the group after the grace period is stray and
    must not outlive the run.
    """
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def host_probe_s() -> float:
    """CPU time of a fixed pure-Python loop on the benchmark's CPU.

    Not a metric: it tells how fast the host ran this record, so a
    record whose CPU-bound figures all moved together can be read
    against the host rather than the program.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    start = time.process_time()
    total = 0
    for i in range(1_000_000):
        total += i * i
    elapsed = time.process_time() - start
    os.sched_setaffinity(0, allowed)
    return elapsed


def report(args, result: dict, probe_s: float) -> None:
    """Human-readable metrics: name, value, unit and sample count."""
    procs = result["interpreters"]
    rows = [("setup_s", result["setup_s"], "s", procs)]
    if args.workload == "build-amg":
        rows += [
            ("build_s", result["p50_ms"] / 1e3, "s", procs),
            ("hit_rate", result["hit_rate"], "ratio", result["hit_rate_problems"]),
        ]
    else:
        n = result["latency_samples"]
        rows += [
            ("p50_ms", result["p50_ms"], "ms", n),
            ("p99_ms", result["p99_ms"], "ms", n),
            ("ops_per_s", result["ops_per_s"], "1/s", result["attempted"]),
            ("failed_ratio", result["failed_ratio"], "ratio", result["attempted"]),
        ]
    rows.append(("peak_rss_mb", result["peak_rss_mb"], "MiB", procs))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds}")
    for name, value, unit, n in rows:
        print(f"  {name:<14} {value:14.4f} {unit:<6} n={n}")
    if args.workload == "build-amg":
        print(
            f"  modeled (not measured): V100 speedup "
            f"{result['modeled_v100_speedup']:.2f}x"
        )
    print(f"  host probe     {probe_s:.4f} s CPU for a fixed Python loop (not a metric)")
    print(f"  inputs digest  {result['inputs_digest']}")
    for line in (result.get("trace") or {}).get("lines", []):
        print(line)
    status = "ok" if result["correct"] else "FAILED: " + "; ".join(result["errors"])
    print(f"  correctness    {status}")


def environment(args, result: dict) -> dict:
    """Where and how the record was measured."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **result["numerics"],
        "threads": THREAD_ENV,
        "cpus": sorted(os.sched_getaffinity(0)),
        "pinning": "workload process on the first CPU",
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit():
    """HEAD's commit id read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
