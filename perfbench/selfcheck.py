"""Self-checks of the benchmark.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py

1. The generator is deterministic: the same seed gives byte-identical
   files and calls, also when its groups are generated in other batches;
   another seed gives other files.
2. The correctness gate counts a deliberately altered output as failed,
   both by the independent checks and by the recorded digest.
3. Traced and untraced runs print identical outputs, and the tracer
   restores every rebound name when it is removed.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS  # noqa: E402

SCRATCH = os.path.join(".perfbench_work", "selfcheck")


def tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".spec"):
            with open(os.path.join(root, name), "rb") as fh:
                out[name] = fh.read()
    return out


def check_determinism() -> str | None:
    for workload in gen.BUILDERS:
        whole = os.path.join(SCRATCH, workload, "whole")
        split = os.path.join(SCRATCH, workload, "split")
        other = os.path.join(SCRATCH, workload, "other")
        calls = gen.generate(workload, 5, whole, 0, 3)
        split_calls = gen.generate(workload, 5, split, 0, 2) + gen.generate(workload, 5, split, 2, 1)
        gen.generate(workload, 6, other, 0, 3)
        split_calls = json.loads(json.dumps(split_calls).replace(split, whole))
        if tree_bytes(whole) != tree_bytes(split) or calls != split_calls:
            return f"{workload}: seed 5 gave other files or calls when generated in two batches"
        if tree_bytes(whole) == tree_bytes(other):
            return f"{workload}: seeds 5 and 6 gave the same spec files"
    return None


class FakeCli:
    """Stands in for framecalc.cli and prints a fixed text."""

    def __init__(self, text: str, rc: int = 0):
        self.text, self.rc = text, rc

    def main(self, argv):
        sys.stdout.write(self.text)
        return self.rc


def check_altered_output() -> str | None:
    import framecalc.cli as cli

    call = {
        "id": "example/paper_example/1/6",
        "command": "paper_example",
        "argv": ["paper-example", "--beta=1/6", "--format", "machine"],
        "expect": {},
    }
    good = worker.Runner(cli, {})
    good.run(call)
    if good.failures:
        return f"the unaltered call failed: {good.failures}"
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.main(call["argv"])
    original = text.getvalue()
    recorded = {call["id"]: checks.digest(original)}
    data = json.loads(original)

    broken = dict(data, all_ok=False)
    reformatted = json.dumps(data)  # same content, other bytes
    cases = [
        ("a failed identity", FakeCli(json.dumps(broken, indent=2) + "\n"), {}),
        ("a missing key", FakeCli(json.dumps({k: v for k, v in data.items() if k != "beta"})), {}),
        ("a nonzero exit", FakeCli(original, rc=2), {}),
        ("other bytes than the recorded digest", FakeCli(reformatted), recorded),
    ]
    for label, fake, table in cases:
        runner = worker.Runner(fake, table)
        runner.run(call)
        if len(runner.failures) != 1:
            return f"an output with {label} was not counted as failed"
    runner = worker.Runner(FakeCli(original), recorded)
    runner.run(call)
    if runner.failures:
        return f"the recorded output itself was counted as failed: {runner.failures}"

    # Outputs that compute too little, gated without a recorded digest.
    too_little = [
        ("an empty --all-invariant list", "verify_all", {"dim": 4, "reports": 2}, []),
        ("a truncated holonomy", "holonomy", {"dim": 4, "generators": 10},
         {"model": "m", "beta": None, "generator_count": 0, "span_dimension": 0, "generators": []}),
    ]
    for label, command, expect, output in too_little:
        short = {"id": f"m/{command}", "command": command, "argv": [], "expect": expect}
        runner = worker.Runner(FakeCli(json.dumps(output)), {})
        runner.run(short)
        if len(runner.failures) != 1:
            return f"{label} was not counted as failed"
    return None


def check_traced_identical() -> str | None:
    import importlib

    import framecalc.cli as cli

    before = {
        layer: dict(vars(importlib.import_module(f"framecalc.{layer}"))) for layer in LAYERS
    }
    groups = []
    for workload in gen.BUILDERS:
        groups += gen.generate(workload, 5, os.path.join(SCRATCH, f"trace-{workload}"), 0, 1)
    result = worker.traced(cli, groups, {}, os.path.join(SCRATCH, "spans.jsonl"))
    if result["failed"]:
        return f"traced run failed: {result['failures']}"
    if not result["detail"]["spans"]:
        return "the traced run recorded no spans"
    for layer in LAYERS:
        after = vars(importlib.import_module(f"framecalc.{layer}"))
        changed = [k for k, v in before[layer].items() if after.get(k) is not v]
        if changed:
            return f"framecalc.{layer} still has rebound names after uninstall: {changed[:5]}"
    from framecalc.scalars import Scalar

    if hasattr(Scalar.__add__, "__wrapped__"):
        return "Scalar.__add__ is still wrapped after uninstall"
    return None


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    failed = 0
    for check in (check_determinism, check_altered_output, check_traced_identical):
        found = check()
        print(f"{'ok  ' if found is None else 'FAIL'} {check.__name__}" + (f": {found}" if found else ""))
        failed += found is not None
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
