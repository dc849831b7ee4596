"""framecalc benchmark: CLI-command throughput on three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the workload in a fresh process (``worker.py``), which has the
seed's inputs generated (``gen.py``) in child processes as it goes, and
times a fresh-process ``import framecalc.cli`` several times before and
after it.  With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The
program under test is ``src/framecalc`` of the checkout; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
# Import probes before and again after the workload, so that set-up time
# samples the host at two moments of the run.
SETUP_PROBES = 8
DEADLINE_S = 170.0

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import framecalc.cli\n"
    "t = time.perf_counter() - t\n"
    "src = sys.argv[1]\n"
    "if not framecalc.cli.__file__.startswith(src + '/'):\n"
    "    sys.exit('framecalc imported from outside ' + src)\n"
    "print(repr(t))\n"
)


class BenchError(Exception):
    pass


def child(argv: list, env: dict, deadline: float) -> str:
    """Run a child process to completion; its stdout, or BenchError."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("out of time before " + " ".join(argv[:3]))
    try:
        proc = subprocess.run(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def setup_seconds(env: dict, src: str, deadline: float, probes: int) -> list[float]:
    """Import times of framecalc.cli in fresh processes."""
    times = []
    for _ in range(probes):
        out = child([sys.executable, "-c", IMPORT_PROBE, src], env, deadline)
        times.append(float(out.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="framecalc benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "framecalc", "cli.py")):
        print(f"error: no framecalc sources under {src}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=src)
    work = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup = []
        if not args.trace:  # the first probe only warms the bytecode cache
            setup = setup_seconds(env, src, deadline, SETUP_PROBES + 1)[1:]
        out = child(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--work", work,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
        if not args.trace:
            setup += setup_seconds(env, src, deadline, SETUP_PROBES)
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    detail = dict(result["detail"], workload=args.workload, seed=args.seed, trace=args.trace)
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
        detail["setup_samples_s"] = setup
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    for failure in result["failures"]:
        print(f"failed: {failure}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    for m in declared:
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"op_tail_ms is p{detail['tail_percentile']:.1f} of {detail['samples']} calls")
        print(f"fail_frac: {detail['fail_frac']:.6g} ratio")
        for name, c in sorted(detail["commands"].items()):
            print(f"{name}: {c['total_s']:.6g} s over {c['calls']} calls")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
