"""Record the benchmark's baseline: median and spread of every metric.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --out perfbench/results/baseline.json

Runs ``run.py`` with tracing off once per workload and seed, for two
sets of seeds one after the other (1-10, then 11-20), and
once per workload with tracing on at seed 42, one run at a time.  For
each end-to-end metric and set it stores the median, the quartiles and
the spread (interquartile range over median); it also stores how far
the two sets' medians lie apart, in whichever direction is larger, next
to the metric's bound.  For the traced run it stores the per-layer split.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import suite

BENCHMARK = json.loads((suite.REPO_ROOT / "BENCHMARK.json").read_text())
TRACE_SEED = 42
#: Two sets of ten seeds, run one after the other: their medians must
#: agree within the bounds.
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=suite.REPO_ROOT, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"in {result['wall_s']:.1f} s", flush=True)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median,
            "values": values}


def one_set(workload: str, seeds, bounds) -> dict:
    runs = [bench(workload, seed, 0) for seed in seeds]
    entry = {
        "seeds": list(seeds),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "wall_s": [r["wall_s"] for r in runs],
        "end_to_end": {
            name: spread([r["metrics"][name]["value"] for r in runs]) for name in bounds
        },
    }
    for name, s in entry["end_to_end"].items():
        flag = "" if s["iqr_over_median"] < bounds[name] / 3 else "  (>= bound/3)"
        print(f"  {name:14s} median {s['median']:.6g}  spread {s['iqr_over_median']:.3f}"
              f"  bound {bounds[name]}{flag}", flush=True)
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Record median and spread of every metric.")
    p.add_argument("--out", type=Path, default=suite.OUT_DIR / "baseline.json")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    sets = [
        {w: one_set(w, seeds, bounds) for w in suite.WORKLOADS}
        for seeds in SEED_SETS
    ]
    record = {
        "recorded": datetime.date.today().isoformat(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores, "
                   f"Python {platform.python_version()}",
        "run_seconds": BENCHMARK["run_seconds"],
        "workloads": {},
    }
    for w in suite.WORKLOADS:
        first, second = sets[0][w], sets[1][w]
        drift = {}
        for name, bound in bounds.items():
            a = first["end_to_end"][name]["median"]
            b = second["end_to_end"][name]["median"]
            drift[name] = {"apart": max(a / b, b / a) - 1.0, "bound": bound}
            print(f"{w} {name}: medians {a:.6g} / {b:.6g}, apart {drift[name]['apart']:.3f}"
                  f" (bound {bound})", flush=True)
        traced = bench(w, TRACE_SEED, 1)
        record["workloads"][w] = {
            "first_set": first,
            "second_set": second,
            "median_drift": drift,
            "per_layer_seed": TRACE_SEED,
            "per_layer": {
                k: (None if v.get("absent") else v["value"]) for k, v in traced["metrics"].items()
            },
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
