"""Runs one workload in a fresh process and prints its measurements.

Usage: python3 perfbench/worker.py --workload NAME --seed N --work DIR --seconds S --trace 0|1

Calls ``framecalc.cli.main(argv)`` in process, one call after another (a
closed loop with one client), over the seed's groups of calls, and checks
every call's output.  The groups come from ``gen.py``, run in a child
process one batch at a time into DIR, so the generator never runs in the
measured process and no input repeats however fast the calls get.  With
``--trace 0`` it runs groups until the calls have taken ``--seconds`` in
total, stopping at a group boundary; time spent generating is not counted.
With ``--trace 1`` it replays the first groups once untraced and once
under the tracer, and reports per-layer metrics.  The last line of stdout
is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import checks
from gen import BATCH_GROUPS, TRACE_GROUPS

GEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gen.py")

# Name under which each command's seconds are reported.
COMMAND_METRIC = {
    "verify": "verify_s",
    "verify_all": "verify_all_s",
    "holonomy": "holonomy_s",
    "moduli": "moduli_s",
    "paper_example": "paper_example_s",
}


class Runner:
    """Runs calls, times them and applies the correctness gate."""

    def __init__(self, cli, recorded: dict):
        self.cli = cli
        self.recorded = recorded
        self.first: dict[str, tuple] = {}  # call id -> (digest, problem)
        self.latencies: list[tuple[str, float]] = []  # (command, seconds)
        self.failures: list[str] = []
        self.digests: list[tuple[str, str]] = []  # (call id, digest) in call order

    def run(self, call: dict, root=None) -> None:
        out, err = io.StringIO(), io.StringIO()
        rc = error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if root is None:
                    rc = self.cli.main(call["argv"])
                else:
                    rc = root(f"bench.{call['command']}", self.cli.main, call["argv"])
        except (Exception, SystemExit) as exc:  # any escape is a failed call
            error = repr(exc)
        elapsed = perf_counter() - start
        self.latencies.append((call["command"], elapsed))
        text = out.getvalue()
        dig = checks.digest(text) if error is None and rc == 0 else f"rc={rc} error={error}"
        self.digests.append((call["id"], dig))
        if call["id"] not in self.first:
            found = checks.problem(call, rc, text, error, self.recorded.get(call["id"]))
            self.first[call["id"]] = (dig, found)
        first_digest, found = self.first[call["id"]]
        if found is None and dig != first_digest:
            found = "output differs from an earlier run of the same call"
        if found is not None:
            self.failures.append(f"{call['id']}: {found}")

    def total_s(self) -> float:
        return sum(s for _, s in self.latencies)

    def commands(self) -> dict[str, dict]:
        """Seconds and calls per command, under the command's metric name."""
        out: dict[str, dict] = {}
        for command, secs in self.latencies:
            entry = out.setdefault(COMMAND_METRIC[command], {"total_s": 0.0, "calls": 0})
            entry["total_s"] += secs
            entry["calls"] += 1
        return out


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it, and
    its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    pos = n - 11
    return ordered[pos], 100.0 * (pos + 1) / n


def batch(workload: str, seed: int, work: str, first: int, count: int) -> list:
    """Groups first .. first+count-1 of the seed, generated in a child process."""
    subprocess.run(
        [sys.executable, GEN, "--workload", workload, "--seed", str(seed), "--out", work,
         "--first", str(first), "--count", str(count)],
        check=True,
    )
    with open(os.path.join(work, f"groups-{first}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def untraced(cli, workload: str, seed: int, work: str, seconds: float, recorded: dict) -> dict:
    runner = Runner(cli, recorded)
    groups: list = []
    done = 0
    while runner.total_s() < seconds:
        if done == len(groups):
            groups += batch(workload, seed, work, done, BATCH_GROUPS[workload])
        for call in groups[done]:
            runner.run(call)
        done += 1
    times = [s for _, s in runner.latencies]
    tail_s, tail_pct = tail(times)
    attempted = len(times)
    return {
        "attempted": attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:10],
        "metrics": {
            "ops_per_s": (attempted - len(runner.failures)) / runner.total_s(),
            "op_p50_ms": 1000.0 * statistics.median(times),
            "op_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "detail": {
            "groups": done,
            "generated_groups": len(groups),
            "tail_percentile": tail_pct,
            "samples": attempted,
            "fail_frac": len(runner.failures) / attempted,
            "commands": runner.commands(),
        },
    }


def traced(cli, groups: list, recorded: dict, spans_path: str) -> dict:
    from tracer import SCALAR_OPS, Tracer

    calls = [call for group in groups for call in group]
    plain = Runner(cli, recorded)
    for call in calls:
        plain.run(call)

    tr = Tracer()
    traced_runner = Runner(cli, recorded)
    tr.install()
    try:
        for pos, call in enumerate(calls):
            tr.call_id = pos
            traced_runner.run(call, root=tr.root)
    finally:
        tr.uninstall()
    tr.write_spans(spans_path)

    failures = plain.failures + traced_runner.failures
    for (cid, a), (_, b) in zip(plain.digests, traced_runner.digests):
        if a != b:
            failures.append(f"{cid}: traced output differs from untraced output")

    incl, calls_by, selfs, nested = tr.inclusive_s, tr.calls, tr.self_s, tr.nested
    verifies = calls_by["analysis.verify_automorphism"]
    hol_rank = nested[("linalg.rank", "analysis.infinitesimal_holonomy")]

    def per_verify(callee: str) -> float:
        return nested[(callee, "analysis.verify_automorphism")] / verifies if verifies else 0.0

    scalar_ops = sum(calls_by[f"scalars.Scalar.{op}"] for op in SCALAR_OPS)
    metrics = {
        "analysis.holonomy_s": incl["analysis.infinitesimal_holonomy"],
        "analysis.holonomy_self_s": selfs["analysis.infinitesimal_holonomy"],
        "analysis.holonomy_rank_calls": hol_rank,
        "analysis.holonomy_accept_ratio": (
            tr.measured["analysis.infinitesimal_holonomy"] / hol_rank if hol_rank else 0.0
        ),
        "connections.torsion_per_verify": per_verify("connections.torsion"),
        "connections.curvature_per_verify": per_verify("connections.curvature"),
        "connections.covariant_derivative_calls": calls_by["connections.covariant_derivative"],
        "analysis.compose_calls": calls_by["analysis.compose"],
        "analysis.verify_s": incl["analysis.verify_automorphism"],
        "analysis.musical_endomorphism_s": incl["analysis.musical_endomorphism"],
        "analysis.null_filtration_s": incl["analysis.null_filtration"],
        "linalg.rref_calls": calls_by["linalg.rref"],
        "linalg.rref_cells": tr.measured["linalg.rref"],
        "linalg.rank_calls": calls_by["linalg.rank"],
        "linalg.nullspace_s": incl["linalg.nullspace"],
        "linalg.solve_affine_sparse_s": incl["linalg.solve_affine_sparse"],
        "linalg.pfaffian_s": incl["linalg.pfaffian"],
        "moduli.symplectic_connection_space_s": incl["moduli.symplectic_connection_space"],
        "moduli.automorphism_space_s": incl["moduli.automorphism_space"],
        "scalars.ops": scalar_ops,
        "tensors.created": calls_by["tensors.Tensor.__init__"],
        "tensors.getitem": calls_by["tensors.Tensor.__getitem__"],
        "frames.ce_differential_calls": calls_by["frames.ce_differential"],
        "specfile.load_s": incl["specfile.load_spec_file"],
        "catalog.example_identity_checks_s": incl["catalog.example_identity_checks"],
        "trace.overhead": traced_runner.total_s() / plain.total_s(),
    }
    for layer, secs in tr.layer_self_s().items():
        metrics[f"{layer}.self_s"] = secs
    commands = plain.commands()
    for key in COMMAND_METRIC.values():
        metrics[f"cmd.{key}"] = commands.get(key, {"total_s": 0.0})["total_s"]
    return {
        "attempted": len(plain.latencies) + len(traced_runner.latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": metrics,
        "detail": {
            "traced_calls": len(calls),
            "untraced_s": plain.total_s(),
            "traced_s": traced_runner.total_s(),
            "spans": len(tr.spans),
            "wait_s": "not applicable: every layer runs on the calling thread",
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import framecalc.cli as cli

    recorded = checks.load_digests(args.workload, args.seed)
    if args.trace:
        groups = batch(args.workload, args.seed, args.work, 0, TRACE_GROUPS[args.workload])
        result = traced(cli, groups, recorded, os.path.join(args.work, "spans.jsonl"))
    else:
        result = untraced(cli, args.workload, args.seed, args.work, args.seconds, recorded)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
