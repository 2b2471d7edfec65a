"""Benchmark launcher: python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1

Runs one workload in a fresh child process (bench/workload.py) with BLAS
and OpenMP pinned to one thread, and prints one JSON line as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (setup_s, wall_s, cpu_s, peak_rss_mb);
with --trace 1 they are the per-layer ones from a traced run.  The full
record (timings, answers, checks, versions, machine) goes to
bench/out/BENCH_<workload>_seed<N>[_trace].json.

setup_s is the median over several fresh processes of the time from spawn
to the moment the workload's inputs are built.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("radial-oracles", "anneal", "solve-io")
SETUP_PROBES = 5
DEADLINE_S = 170.0
sys.path.insert(0, HERE)
from tracing import LAYER_UNITS  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child(args, extra, timeout):
    """Run workload.py; returns (spawn time, parsed last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", os.path.join(OUT, "work", args.workload)] + extra
    env = dict(os.environ, **THREAD_ENV)
    spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "robinshape", "__init__.py")):
        raise SystemExit("robinshape sources not found under src/")
    os.makedirs(OUT, exist_ok=True)
    t0 = time.monotonic()

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            spawn, rep = child(args, ["--setup-only"], DEADLINE_S)
            setups.append(rep["ready"] - spawn)
    spawn, res = child(args, [], DEADLINE_S - (time.monotonic() - t0))
    setups.append(res["ready"] - spawn)

    if args.trace:
        metrics = {name: {"value": res["layers"].get(name, 0.0), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    record = dict(res, setup_s=setups, metrics=metrics,
                  threads=THREAD_ENV, args=vars(args),
                  machine={"nproc": os.cpu_count(),
                           "platform": platform.platform(),
                           "processor": platform.processor()})
    name = f"BENCH_{args.workload}_seed{args.seed}{'_trace' if args.trace else ''}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for key, check in res["checks"].items():
        if not check["ok"]:
            print(f"check failed: {key}: {check['detail']}")
    for op, err in res["errors"].items():
        print(f"operation failed: {op}: {err}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
