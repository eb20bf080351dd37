"""Run the benchmark over several seeds and record a baseline.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Run from the repository root.  For every workload it makes one untraced
run per seed (seeds 1..N, one process each, one after another) and one
traced run, then reports each end-to-end metric's median and quartile
spread ((q3 - q1) / median, as `statistics.quantiles(values, n=4)` gives
them) against the bound in BENCHMARK.json, the per-layer metrics of the
traced run, the doubling sweeps, input descriptors and every failure.  Each
run's seconds as measured, before scaling to the reference machine's
speed, are kept beside its metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({done.returncode}): {done.stderr[-2000:]}")
    details = next(json.loads(x[len("details "):]) for x in lines if x.startswith("details "))
    return json.loads(lines[-1]), details


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.seeds + 1)
    out = {
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"], "seeds": list(seeds), "workloads": {},
    }
    steady = True
    for name in names:
        results = [run(name, s, bench["run_seconds"], 0) for s in seeds]
        entry = {"end_to_end": {}, "runs": [], "failures": []}
        for metric in bounds:
            stats = spread([r["metrics"][metric]["value"] for r, _ in results])
            stats["bound"] = bounds[metric]
            entry["end_to_end"][metric] = stats
            ok = stats["spread"] < bounds[metric] / 3
            steady &= ok
            mark = "" if ok else "over bound" if stats["spread"] > bounds[metric] else "over bound/3"
            print(f"{name:<7} {metric:<12} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f}  bound {bounds[metric]:.4f} {mark}")
        for (res, det), seed in zip(results, seeds):
            entry["runs"].append({
                "seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                "tail_percentile": det["tail_percentile"], "samples": det["samples"],
                "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                "measured": det["measured"], "slowness": det["slowness"],
            })
            entry["failures"] += det["failures"]
        entry["inputs"] = results[0][1]["kinds"]
        res, det = run(name, 1, bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        entry["sweep"] = det["sweep"]
        entry["failures"] += det["failures"]
        print(f"{name:<7} failures: {len(entry['failures'])}")
        out["workloads"][name] = entry
    out["steady"] = steady
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
