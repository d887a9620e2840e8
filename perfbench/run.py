"""kerrlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kerrlab checkout. Each run starts fresh interpreters
(worker.py) with BLAS pinned to one thread and PYTHONPATH=src, so kerrlab is
used straight from the checkout's source. The main worker sets up, prints
READY, then runs round(S / the workload's nominal round time) whole rounds
of the workload's operations, a count that never depends on the host's
speed, and checks every output. Two more workers only set up, so that
setup_s is the median of three fresh set-ups.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1). Workers
write their reports and CSVs under .perfbench_work/ and traces under
.perfbench_trace/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("waves", "geometry", "geodesic", "solvers-1p1")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles kerrlab alike
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, env, deadline):
    """Start one worker; returns (set-up seconds, RESULT dict or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        setup_s, result = None, None
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        fail(f"worker {' '.join(args[:2])} exited with code {proc.returncode}")
    return setup_s, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kerrlab", "cli.py")):
        fail("run from the root of a kerrlab checkout: src/kerrlab/cli.py is missing")
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = os.path.join(root, ".perfbench_work", tag)
    os.makedirs(workdir)
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(root, ".perfbench_trace"), exist_ok=True)
        trace_file = os.path.join(root, ".perfbench_trace", f"{args.workload}-{args.seed}.jsonl")

    env = worker_env(root)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        setups = [run_worker(common + ["--seconds", "0", "--setup-only"], env, deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        extra = ["--trace-file", trace_file] if trace_file else []
        setup_main, result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)] + extra, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(setup_main)
    if result is None:
        fail("worker printed no result")

    if args.trace:
        metrics = result["layers"]
        print(f"perfbench: traced wall_s {result['wall_s']:.6f} over {result['rounds']} rounds")
    else:
        peak_kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(f"perfbench: {result['rounds']} rounds, round walls "
              + " ".join(f"{w:.4f}" for w in result["round_walls"])
              + ", set-ups " + " ".join(f"{s:.4f}" for s in setups))
    print(json.dumps({"correct": result["unexpected"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
