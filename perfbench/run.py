"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wire-mixed --seed 3 --seconds 30 --trace 0

Human-readable lines first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, from a run
with span wrappers installed. A run on a host too noisy to measure
cleanly still prints its result, after a line starting ``INVALID:``.
Exits 1 when an output check fails, 2 on a bad invocation or a checkout
without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-vgg", "wire-mixed")
HOST_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "REPRO_")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_record() -> dict:
    """Host and method facts, recorded as found (nothing is set)."""
    import numpy as np

    try:
        sha = open(os.path.join(ROOT, ".git", "HEAD")).read().strip()
        if sha.startswith("ref: "):
            sha = open(os.path.join(ROOT, ".git", sha[5:])).read().strip()
    except OSError:
        sha = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(HOST_ENV_PREFIXES)},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import loadgen
    import tracing
    import workloads

    spec = _spec()
    host = host_record()
    print("host: " + json.dumps(host, sort_keys=True), flush=True)
    print(f"method: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; medians over {workloads.SETUP_REPEATS} set-ups; "
          f"windows past steal {loadgen.STEAL_LIMIT_PCT}% or generator lateness "
          f"p99 {loadgen.LATE_LIMIT_MS} ms are disturbed and left out", flush=True)

    tracer = None
    if args.trace and args.workload == "offline-vgg":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.workload == "offline-vgg":
        result = workloads.run_offline(args.seed, args.seconds, tracer)
    else:
        result = workloads.run_wire(args.seed, args.seconds, bool(args.trace))

    for line in result.lines:
        print(line)
    ratio = result.failed / max(result.attempted, 1)
    print(f"failed_ratio {ratio:.6f} fraction ({result.failed}/{result.attempted})")

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    untraced_path = os.path.join(workloads.OUT_DIR, f"e2e-{args.workload}-{args.seed}.json")
    if args.trace:
        if tracer is not None:
            path = os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-{args.seed}.json.gz")
            tracer.dump(path, {"metrics": result.layers})
            for line in tracing.self_time_lines(tracer.self_times()):
                print(line)
            tracer.uninstall()
            result.spans = path
        print(f"spans written to {os.path.relpath(result.spans, ROOT)}")
        if os.path.exists(untraced_path):
            with open(untraced_path) as fh:
                untraced = json.load(fh)
            for name, value in sorted(result.metrics.items()):
                print(f"tracing overhead {name}: {value - untraced[name]:+.4g} "
                      f"(traced {value:.4g}, untraced {untraced[name]:.4g})")
        else:
            print("tracing overhead: run --trace 0 with the same seed first")
        wanted = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result.layers
    else:
        with open(untraced_path, "w") as fh:
            json.dump(result.metrics, fh)
        wanted = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = result.metrics
    for name in wanted:
        print(f"{name} {values[name]:.6g} {units[name]}")

    correct = result.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
