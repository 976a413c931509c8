"""Benchmark for cloudmorph: one workload, one seed, one result line.

Run from the repository root:

    python3 benchmarks/run.py --workload pair_m1000 --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in BENCHMARK.json at the root. Each run
starts benchmarks/worker.py in fresh interpreters with BLAS and OpenMP
pinned to one thread: SETUP_SAMPLES - 1 that only set up, then one that
sets up, measures for --seconds and checks every output. With --trace 0
the result carries the end-to-end metrics; with --trace 1 the worker wraps
the program's layer functions (see tracing.py) and the result carries the
per-layer metrics instead. Comparing a traced run with an untraced run of
the same seed gives the tracing overhead (``traced.morph_s`` against
``morph_s``).

The metric table and the environment go to standard output; its last line
is one JSON object with the keys correct, attempted, failed and metrics.
Work files go to .bench_work/ at the root. The exit code is 0 when a result
was printed, whether or not its checks passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def tail(samples: list[float]) -> str:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g} {statistics.quantiles(ordered, n=1000)[int(p * 10) - 1]:.6g}"
    return "no tail percentile (fewer than 20 samples)"


def start_worker(args, work: Path, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, **{name: "1" for name in PINNED})
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--launched-at", repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    # The program's own prints go to stderr so stdout ends with the result.
    proc = subprocess.run(
        command, env=env, cwd=ROOT, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads((work / "result.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cloudmorph benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Exit through SystemExit on SIGTERM, so subprocess.run kills the worker too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cloudmorph" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no cloudmorph sources (src/cloudmorph) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = ROOT / ".bench_work" / "runs"
    setup_s = []
    try:
        for k in range(SETUP_SAMPLES):
            work = runs / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}-{k}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                result = start_worker(args, work, k < SETUP_SAMPLES - 1, deadline)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            setup_s.append(result["setup_s"])
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "metrics" not in result:
        print(f"error: no pass completed: {result['errors']}", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(result["layers"])
        values["traced.morph_s"] = result["metrics"]["morph_s"]
    else:
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(setup_s)
    # Metrics of a layer the program no longer has (listed as absent) are
    # left out of the result; any other missing metric is an error.
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not result.get("absent"):
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    declared = [m for m in declared if m["name"] in values]

    env = result["environment"]
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    result["setup_samples"] = setup_s
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  seconds {args.seconds:g}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    samples = {**result["samples"], "setup_s": setup_s}
    for metric in declared:
        name = metric["name"]
        line = f"  {name:<42} {values[name]:>14.6g} {metric['unit']}"
        if name in samples:
            line += f"  median of {len(samples[name])}; {tail(samples[name])}"
        print(line)
    if not args.trace:
        m = result["metrics"]
        print(f"  {'eval_s':<42} {m['eval_s']:>14.6g} s  median of {len(samples['eval_s'])};"
              f" {tail(samples['eval_s'])}")
        print(f"  {'unregistered_rms':<42} {m['unregistered_rms']:>14.6g} mm"
              f"  (aligned_rms must be under half of it)")
        print(f"  {'bcpd.iterations':<42} {m['iterations']:>14d} count")
    if args.trace:
        untraced_path = results / f"{args.workload}-seed{args.seed}-trace0.json"
        untraced = json.loads(untraced_path.read_text()) if untraced_path.exists() else None
        if untraced and untraced["environment"]["code"] == env["code"] and "metrics" in untraced:
            base = untraced["metrics"]["morph_s"]
            print(f"  tracing overhead on morph_s: {values['traced.morph_s'] - base:+.4g} s"
                  f" ({(values['traced.morph_s'] / base - 1) * 100:+.2f}% of the untraced run)")
    if result.get("absent"):
        print(f"  absent layers (renamed or removed): {', '.join(result['absent'])}")
        print(f"  metrics left out: {', '.join(missing)}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<42} {error_rate:>14.6g} ratio"
          f"  ({result['failed']} failed of {result['attempted']} attempted)")
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"  check failed: {name}: {detail}")
    for error in result["errors"]:
        print(f"  error: {error}")

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    bad = [n for n, v in metrics.items() if not math.isfinite(v["value"])]
    print(json.dumps({
        "correct": result["failed"] == 0 and not bad,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
