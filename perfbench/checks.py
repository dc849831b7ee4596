"""Per-call correctness gate.

A call passes when it exits 0 without raising, prints machine JSON with the
documented keys, and either matches the SHA-256 recorded in
``digests.json`` (default seed) or, for any other seed, passes the
independent checks below.  A call that fails counts toward ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import os
from math import comb

REPORT_KEYS = {
    "model", "vector", "beta", "is_affine_automorphism", "is_symplectic", "d_flat",
    "divergence", "nilpotency_index", "trace_powers", "image_chain",
    "image_isotropic", "holonomy_commutes",
}
GATED_KEYS = ("nilpotency_index", "trace_powers", "image_chain", "image_isotropic", "holonomy_commutes")
KEYS = {
    "verify": REPORT_KEYS,
    "holonomy": {"model", "beta", "generator_count", "span_dimension", "generators"},
    "moduli": {"model", "dimension", "particular", "basis"},
    "paper_example": {"model", "beta", "checks", "all_ok"},
}

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str, seed: int) -> dict:
    """Recorded digests by call id, or {} when the seed has none."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    if seed != table["seed"]:
        return {}
    return table["workloads"].get(workload, {})


def _report_problem(rep: dict, dim: int, automorphism: bool) -> str | None:
    if set(rep) != REPORT_KEYS:
        return f"report keys {sorted(rep)}"
    if rep["is_affine_automorphism"] is not automorphism:
        return f"is_affine_automorphism is {rep['is_affine_automorphism']}, expected {automorphism}"
    gated = [rep[k] for k in GATED_KEYS]
    if automorphism:
        if any(v is None for v in gated):
            return "an automorphism report has null gated fields"
        if len(rep["trace_powers"]) != dim:
            return "trace_powers does not have one entry per power 1..dim"
        if len(rep["image_chain"]) != (rep["nilpotency_index"] or dim):
            return "image_chain does not have one subspace per power up to the nilpotency bound"
    elif any(v is not None for v in gated):
        return "a non-automorphism report has gated fields set"
    return None


def independent_problem(call: dict, data) -> str | None:
    """Checks that need no recorded output.  Where the inputs fix the
    answer (report and generator counts in ``expect``, the moduli
    dimension), the check is two-sided."""
    command, expect = call["command"], call["expect"]
    dim = expect.get("dim")
    if command == "verify_all":
        if not isinstance(data, list):
            return "--all-invariant output is not a list"
        labels = [f"aut[{pos}]" for pos in range(expect["reports"])]
        if [rep.get("vector") for rep in data] != labels:
            return f"{len(data)} reports, expected one per automorphism: {labels}"
        for rep in data:
            problem = _report_problem(rep, dim, True)
            if problem:
                return f"{rep['vector']}: {problem}"
        return None
    if set(data) != KEYS[command]:
        return f"keys {sorted(data)} != {sorted(KEYS[command])}"
    if command == "verify":
        return _report_problem(data, dim, expect["automorphism"])
    if command == "moduli":
        want = comb(dim + 2, 3)
        if data["dimension"] != want or len(data["basis"]) != want:
            return f"moduli dimension {data['dimension']}, expected C({dim}+2, 3) = {want}"
        return None
    if command == "holonomy":
        count = data["generator_count"]
        if not (count == data["span_dimension"] == len(data["generators"])):
            return "generator_count, span_dimension and generators disagree"
        if count != expect["generators"]:
            return f"{count} holonomy generators, expected {expect['generators']}"
        if any(len(g) != dim or any(len(r) != dim for r in g) for g in data["generators"]):
            return "a generator is not a dim x dim matrix"
        return None
    if command == "paper_example":
        if data["all_ok"] is not True or not data["checks"] or not all(c["ok"] for c in data["checks"]):
            return "paper-example reports a failed identity"
        return None
    return f"unknown command {command}"


def problem(call: dict, rc, text: str, error: str | None, recorded: str | None) -> str | None:
    """None when the call's output is correct, else the reason it is not."""
    if error is not None:
        return f"raised {error}"
    if rc != 0:
        return f"exit code {rc}"
    try:
        data = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    found = independent_problem(call, data)
    if found:
        return found
    if recorded is not None and digest(text) != recorded:
        return "machine JSON differs from the recorded digest"
    return None
