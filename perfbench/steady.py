"""Steadiness of the benchmark: run each workload k times, one seed each.

    python3 perfbench/steady.py [--runs 10] [--workloads waves,geometry]
                                [--first-seed 1] [--out FILE]

Run from the root of a kerrlab checkout. Every run lasts run_seconds from
BENCHMARK.json. For every workload and end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound, and the failed and
attempted counts, which must be the same in every run. A spread is ok at
or below a third of its bound; setup_s is exempt, as its spread follows
the host's speed over the minutes of a set and only its median is bounded
(by --compare). With --out it also writes
every run's numbers as JSON, to compare two sets (--compare A B): the
medians of the two sets must agree within each metric's bound, either way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def machine():
    """nproc, CPU model and git SHA (when the checkout is a git repository)."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
        sha = git.stdout.strip() if git.returncode == 0 else "none"
    except OSError:
        sha = "none"
    return {"nproc": os.cpu_count(), "cpu": model, "sha": sha}


def one_run(workload, seed, seconds):
    """One run.py run; its result plus the run's own elapsed seconds."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def report(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, runs in results.items():
        counts = {(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed/attempted {sorted(counts)}, correct {correct}, "
              f"mean elapsed {statistics.mean(r['elapsed_s'] for r in runs):.1f} s")
        ok &= correct and len(counts) == 1
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            if name == "setup_s":
                verdict = "median only"
            else:
                within = s["spread"] <= bound / 3
                ok &= within
                verdict = "ok" if within else "WIDE"
            print(f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                  f"spread {s['spread']:.4f}  bound {bound}  {verdict}")
    return ok


def compare(spec, a, b):
    """Second set's median against the first's, per workload and metric, in
    either direction, and the same failed and attempted counts in both sets."""
    ok = True
    for workload in a:
        counts = {(r["failed"], r["attempted"]) for r in a[workload] + b[workload]}
        ok &= len(counts) == 1
        print(f"{workload:12s} failed/attempted {sorted(counts)}")
    for m in spec["end_to_end"]:
        for workload in a:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[workload])
            change = (mb - ma) / ma
            good = abs(change) <= m["bound"]
            ok &= good
            print(f"{workload:12s} {m['name']:12s} {ma:.4f} -> {mb:.4f}  ({change:+.4f}, bound {m['bound']})"
                  f"  {'ok' if good else 'APART'}")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), default=None)
    args = ap.parse_args(argv)

    spec = load_spec(os.getcwd())
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as fh:
                sets.append(json.load(fh))
        return 0 if compare(spec, *sets) else 1

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    print(json.dumps(machine()), flush=True)
    results = {}
    for workload in names:
        results[workload] = []
        for i in range(args.runs):
            r = one_run(workload, args.first_seed + i, seconds)
            results[workload].append(r)
            print(f"{workload} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items())
                  + f" elapsed={r['elapsed_s']:.1f}", flush=True)
        if args.out:
            os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
            with open(args.out, "w") as fh:
                json.dump(results, fh, indent=1)
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
