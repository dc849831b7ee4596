"""Measures the benchmark's baseline and writes perfbench/baseline.json.

Usage, from the root of a checkout: python3 perfbench/baseline.py

Runs ``run.py`` untraced on every workload at seeds 1-10, twice over (two
sets, the second started after the first has ended; within a set the
workloads take turns seed by seed), then once traced per workload at
seed 1.  For every end-to-end metric and workload it records,
per set, the median, the quartiles and the spread (interquartile distance
over the median) across seeds, and how much worse the second set's median
is than the first's.  It also records the traced per-layer values and the
machine.  The file is written fresh, so one git SHA covers all of it.
Which end-to-end metric each per-layer metric should move is in
``layer_map.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail: "))[len("detail: "):])
    print(workload, seed, trace, lines[-1], flush=True)
    return dict(json.loads(lines[-1]), detail=detail)


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {(k, w): [] for k in range(SETS) for w in workloads}
    for k in range(SETS):
        for s in SEEDS:
            for w in workloads:
                runs[k, w].append(run(w, s, 0))
    end_to_end = {}
    for w in workloads:
        out = {}
        for m in spec["end_to_end"]:
            sets = [summary([r["metrics"][m["name"]]["value"] for r in runs[k, w]]) for k in range(SETS)]
            first, second = sets[0]["median"], sets[-1]["median"]
            worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
            out[m["name"]] = {
                "unit": m["unit"], "bound": m["bound"], "sets": sets,
                "second_worse_by": worse, "within_bound": worse <= m["bound"],
            }
        all_runs = [r for k in range(SETS) for r in runs[k, w]]
        out["fail_frac"] = sum(r["failed"] for r in all_runs) / sum(r["attempted"] for r in all_runs)
        out["tail_percentiles"] = [r["detail"]["tail_percentile"] for r in all_runs]
        out["samples"] = [r["detail"]["samples"] for r in all_runs]
        end_to_end[w] = out
        print(w, json.dumps({k: [round(s["spread"], 3) for s in v["sets"]] + [round(v["second_worse_by"], 3)]
                             for k, v in out.items() if isinstance(v, dict)}), flush=True)
    per_layer = {}
    for w in workloads:
        traced = run(w, SEEDS[0], 1)
        per_layer[w] = {k: v["value"] for k, v in traced["metrics"].items()}
        per_layer[w]["correct"] = traced["correct"]
    out = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "sets": SETS,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "waiting": "none: every layer runs on the calling thread, so no layer waits on another",
    }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
