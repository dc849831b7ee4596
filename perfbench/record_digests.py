"""Records the SHA-256 of every call's machine JSON at the default seed.

Usage, from the root of a checkout: python3 perfbench/record_digests.py

Generates the first batch of groups of each workload (what a run of the
package as first benchmarked uses) at the seed stored in digests.json,
runs every call once, requires each to pass the independent checks, and
rewrites digests.json.  Calls of later groups have no recorded digest and
are gated by the independent checks alone.  Run it only on a commit whose outputs are known
good: the digests are the reference later commits must reproduce.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from worker import Runner  # noqa: E402


def main() -> int:
    import framecalc.cli as cli

    with open(checks.DIGESTS_PATH, encoding="utf-8") as fh:
        seed = json.load(fh)["seed"]
    table = {"seed": seed, "workloads": {}}
    for workload, count in gen.BATCH_GROUPS.items():
        out = os.path.join(".perfbench_work", f"record-{workload}")
        runner = Runner(cli, {})
        for group in gen.generate(workload, seed, out, 0, count):
            for call in group:
                runner.run(call)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        table["workloads"][workload] = {cid: dig for cid, dig in runner.digests}
        print(f"{workload}: {len(runner.digests)} calls recorded")
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
