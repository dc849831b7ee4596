"""Seeded input generator for the framecalc benchmark.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR --first G --count K

Writes the spec files of groups G .. G+K-1 into DIR, through the public
``framecalc.specfile`` API, plus ``groups-G.json`` listing their CLI
calls.  A group holds every call made on one slice of the inputs; the
benchmark loop stops only at group boundaries, so the mix of commands in a
run does not depend on where the clock ran out.  The groups of a seed form
an unbounded sequence in which no call repeats (``paper-example
--symbolic`` takes no input and is the one call that does); the worker
asks for the next batch when it has run the ones it has.

The model recipes (two-step nilpotent algebras, closed nondegenerate
forms) are copies of the ones in the test helpers, kept here so that edits
to the tests cannot shift the workloads.  Every model draws from its own ``random.Random`` keyed by
workload, seed and model name, so the same seed gives byte-identical
files, however the groups are split into batches.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from framecalc import (
    FrameAlgebra,
    Tensor,
    automorphism_space,
    ce_differential,
    darboux_flat,
    lie_derivative_connection,
    structure_constants,
    symplectic_connection_space,
    symplectic_form,
    validate_algebra,
)
from framecalc.connections import Connection, covariant_derivative, curvature
from framecalc.errors import FormError
from framecalc.linalg import nullspace, rank
from framecalc.scalars import Scalar
from framecalc.specfile import document_from_model, serialize_spec
from framecalc.tensors import DOWN, increasing_tuples, vector

# Groups per generated batch: about what a 30-second run of the package
# as first benchmarked needs, so that a run usually generates once.
BATCH_GROUPS = {"nonflat-verify": 8, "moduli-solve": 24, "symbolic-family": 32}

# Groups the traced run replays, untraced and then traced.
TRACE_GROUPS = {"nonflat-verify": 2, "moduli-solve": 4, "symbolic-family": 8}

# Holonomy of every dim-4 connection the benchmark samples: all of sp(4).
SP4 = 10


# -- recipes (copied from the test helpers) ---------------------------------------


def rational(rng: random.Random, span: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def two_step_nilpotent(rng: random.Random, dim: int) -> FrameAlgebra:
    """[E_i, E_j] in span{E_(m+1) .. E_dim} for i, j <= m, everything else zero."""
    m = (dim + 1) // 2
    entries = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for k in range(m + 1, dim + 1):
                v = rational(rng, span=2, den=2)
                if v:
                    entries[(i, j, k)] = v
    return validate_algebra(structure_constants(dim, entries))


def symplectic_candidate(dim: int, entries: dict) -> Tensor:
    """Antisymmetric 2-form tensor from sparse i < j entries (not validated)."""
    table = {}
    for (i, j), v in entries.items():
        s = v if isinstance(v, Scalar) else Scalar.rational(v)
        table[(i, j)] = s
        table[(j, i)] = -s
    return Tensor.from_entries(dim, (DOWN, DOWN), table)


def closed_nondegenerate_form(rng: random.Random, alg: FrameAlgebra, attempts: int = 40):
    """A random rational symplectic form with vanishing exterior derivative,
    or None when the sampled combinations stay degenerate."""
    dim = alg.dim
    pairs = list(increasing_tuples(dim, 2))
    columns = []
    for p in pairs:
        d = ce_differential(alg, symplectic_candidate(dim, {p: 1}))
        columns.append([c.as_fraction() for c in d.comps])
    rows = []
    for r in range(dim**3):
        row = [columns[col][r] for col in range(len(pairs))]
        if any(row):
            rows.append(row)
    closed_basis = nullspace(rows, len(pairs))
    if not closed_basis:
        return None
    for _ in range(attempts):
        coeffs = [rational(rng, span=2, den=2) for _ in closed_basis]
        entries = {}
        for c, vec in zip(coeffs, closed_basis):
            if not c:
                continue
            for p, v in zip(pairs, vec):
                if v:
                    entries[p] = entries.get(p, Fraction(0)) + c * v
        entries = {p: v for p, v in entries.items() if v}
        if not entries:
            continue
        try:
            return symplectic_form(dim, entries)
        except FormError:
            continue
    return None


def random_symplectic_model(rng: random.Random, dim: int):
    """(algebra, omega) with omega closed and nondegenerate; retries algebras."""
    while True:
        alg = two_step_nilpotent(rng, dim)
        omega = closed_nondegenerate_form(rng, alg)
        if omega is not None:
            return alg, omega


# -- builders particular to the benchmark ------------------------------------------


def nilpotent_model(rng: random.Random, dim: int):
    """random_symplectic_model, redrawn while the algebra is abelian (at
    dim 4 a two-step nilpotent draw has a single bracket, which may be 0)."""
    while True:
        alg, omega = random_symplectic_model(rng, dim)
        if not alg.c.is_zero():
            return alg, omega


def dense_model(rng: random.Random, dim: int):
    """nilpotent_model, redrawn until the form has nonzero entries on at
    least two thirds of the index pairs.  The cost of a dense moduli solve
    grows with the number of nonzero form entries (0.5-1.1 s at dim 6 for 7
    to 11 entries), so a floor on density keeps it steady across seeds."""
    pairs = dim * (dim - 1) // 2
    while True:
        alg, omega = nilpotent_model(rng, dim)
        nonzero = len(omega.lower.nonzero()) // 2  # (i, j) and (j, i) both count
        if 3 * nonzero >= 2 * pairs:
            return alg, omega


def moduli_model(rng: random.Random, dim: int):
    alg, omega = nilpotent_model(rng, dim)
    return alg, omega, symplectic_connection_space(alg, omega)


def kt_type_model(rng: random.Random, n: int):
    """Seeded Kodaira-Thurston-type model of dimension 2n: brackets
    [E_2, E_2k] = a_k E_1 (k = 2..n) and the Darboux-type form
    sum_k w_k e^(2k-1) ^ e^(2k), with seeded nonzero a_k and w_k.  E_1 is
    central and pairs only with E_2, so the form is closed; the moduli
    solve is sparse and takes about 0.1 s at dim 6."""
    dim = 2 * n
    brackets = {(2, 2 * k, 1): rng.choice((-2, -1, 1, 2)) for k in range(2, n + 1)}
    form = {(2 * k - 1, 2 * k): rng.choice((-2, -1, 1, 2)) for k in range(1, n + 1)}
    return validate_algebra(structure_constants(dim, brackets)), symplectic_form(dim, form)


def integer_connection(rng: random.Random, space, positions) -> Connection:
    """Member of the moduli space with seeded coefficients in {-2, -1, 1, 2}
    on the given basis directions and 0 elsewhere.  (The test recipe draws
    rational coefficients, zeros included, on a few random directions;
    that makes holonomy costs differ threefold between seeds.)"""
    coeffs = [0] * space.dimension
    for pos in positions:
        coeffs[pos] = rng.choice((-2, -1, 1, 2))
    return space.point(coeffs)


def spans_sp4(alg, conn) -> bool:
    """Whether the curvature endomorphisms R(E_i, E_j) and their first
    covariant derivatives span sp(4).  They lie in the holonomy algebra,
    which lies in sp(4) for a connection that preserves the form, so the
    holonomy is then all of sp(4): the gate can require exactly SP4
    generators without relying on the closure it checks."""
    riem = curvature(alg, conn)
    grad = covariant_derivative(alg, conn, riem)
    r = range(1, alg.dim + 1)
    pairs = [(i, j) for i in r for j in r if i < j]
    rows = [[riem[(i, j, a, b)].as_fraction() for a in r for b in r] for i, j in pairs]
    rows += [[grad[(c, i, j, a, b)].as_fraction() for a in r for b in r] for c in r for i, j in pairs]
    return rank(rows) == SP4


def qb_family(rng: random.Random, space) -> Connection:
    """particular + b*B1 + b^2*B2 + 1/2*B3, each B a +-1 combination of
    three seeded basis directions.  With one direction per B the holonomy
    at a rational b has dimension 2 to 10 by seed; with three it is all of
    sp(4) on dim-4 models."""
    b = Scalar.parameter("b")
    gamma = space.particular.gamma
    for factor in (b, b * b, Scalar.rational(Fraction(1, 2))):
        for pos in rng.sample(range(space.dimension), 3):
            gamma = gamma + space.homogeneous_basis[pos].gamma.scale(factor * rng.choice((-1, 1)))
    return Connection(gamma)


def automorphism_vector(rng: random.Random, alg, conn) -> tuple[Tensor, int]:
    """A seeded nonzero combination of the automorphism basis, and the
    size of that basis."""
    basis = automorphism_space(alg, conn).basis
    total = None
    for v in basis:
        term = v.scale(Scalar.rational(rng.choice((-2, -1, 1, 2))))
        total = term if total is None else total + term
    return total, len(basis)


def family_with_witness(rng: random.Random, alg, space, attempts: int = 20):
    """A Q[b] family and a seeded integer vector X with L_X nabla != 0;
    families whose sampled vectors are all automorphisms are redrawn."""
    for _ in range(attempts):
        conn = qb_family(rng, space)
        # L_X nabla is polynomial in b: nonzero at one rational b suffices.
        at = conn.substitute(Fraction(1, 3))
        for _ in range(4):
            x = vector(alg.dim, [rng.randint(-2, 2) for _ in range(alg.dim)])
            if not x.is_zero() and not lie_derivative_connection(alg, at, x).is_zero():
                return conn, x
    raise RuntimeError("no sampled family has a non-automorphism vector")


def random_beta(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(2, 7))


def sp4_family(rng: random.Random, alg, space, attempts: int = 20):
    """family_with_witness and a seeded beta at which the family's holonomy
    is all of sp(4) (see spans_sp4).  A few families have a smaller
    holonomy at every b; they are redrawn."""
    for _ in range(attempts):
        conn, x = family_with_witness(rng, alg, space)
        for _ in range(8):
            beta = random_beta(rng)
            if spans_sp4(alg, conn.substitute(beta)):
                return conn, x, beta
    raise RuntimeError("no sampled family has holonomy sp(4)")


def calkin_wilf(n: int) -> Fraction:
    """Term n (from 0) of the Calkin-Wilf sequence, which lists every
    positive rational exactly once: 1, 1/2, 2, 1/3, 3/2, 2/3, 3, ..."""
    q = Fraction(1)
    for _ in range(n):
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)
    return q


# -- workloads -----------------------------------------------------------------------


class Writer:
    """Writes spec files into one directory and collects the call list."""

    def __init__(self, out: str, workload: str, seed: int):
        self.out = out
        self.workload = workload
        self.seed = seed

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}/{name}")

    def spec(self, name, alg, omega, conn=None, vectors=None, parameter=None) -> str:
        doc = document_from_model(alg.dim, parameter, alg, omega, conn, vectors)
        path = os.path.join(self.out, f"{name}.spec")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(serialize_spec(doc))
        return path

    def call(self, group: list, name: str, command: str, argv: list, **expect) -> None:
        group.append(
            {
                "id": f"{name}/{command}" + (f"/{expect['tag']}" if "tag" in expect else ""),
                "command": command,
                "argv": argv + ["--format", "machine"],
                "expect": {k: v for k, v in expect.items() if k != "tag"},
            }
        )


@functools.lru_cache(maxsize=None)
def darboux6():
    darboux = darboux_flat(3)
    return darboux, symplectic_connection_space(darboux.algebra, darboux.omega)


def nonflat_verify(w: Writer, g: int) -> list[dict]:
    group: list[dict] = []
    # dim 4: generic member of the 20-dimensional moduli space, so the
    # holonomy is all of sp(4) and the cost is steady across seeds.
    name = f"nil4-{g:03d}"
    rng = w.rng(name)
    alg, omega, space = moduli_model(rng, 4)
    conn = integer_connection(rng, space, range(space.dimension))
    while not spans_sp4(alg, conn):  # not seen in seeds 1-40
        conn = integer_connection(rng, space, range(space.dimension))
    x, automorphisms = automorphism_vector(rng, alg, conn)
    path = w.spec(name, alg, omega, conn, {"X": x})
    w.call(group, name, "verify_all", ["verify", path, "--all-invariant"], dim=4,
           reports=automorphisms)
    w.call(group, name, "verify", ["verify", path, "--vector", "X"], dim=4, automorphism=True)
    w.call(group, name, "holonomy", ["holonomy", path], dim=4, generators=SP4)
    # dim 6: Darboux frame with a connection on a fixed six-direction
    # slice of its 56-dimensional moduli space, whose holonomy has
    # dimension 6.  Generic dim-6 connections take 10-35 s per holonomy
    # (2-core x86_64, Python 3.11).  Every field of the abelian frame is an
    # automorphism, so --all-invariant runs six full verdict chains,
    # holonomy included; single verify and holonomy calls here would
    # take 0.05-0.1 s and put the median call between two clusters.
    name = f"dar6-{g:03d}"
    rng = w.rng(name)
    darboux, space = darboux6()
    conn = integer_connection(rng, space, range(20, 26))
    path = w.spec(name, darboux.algebra, darboux.omega, conn)
    w.call(group, name, "verify_all", ["verify", path, "--all-invariant"], dim=6, reports=6)
    return group


def moduli_solve(w: Writer, g: int) -> list[dict]:
    group: list[dict] = []
    for dim in (4, 6):
        name = f"nil{dim}-{g:03d}"
        alg, omega = dense_model(w.rng(name), dim)
        w.call(group, name, "moduli", ["moduli", w.spec(name, alg, omega)], dim=dim)
    name = f"kt8-{g:03d}"
    alg, omega = kt_type_model(w.rng(name), 4)
    w.call(group, name, "moduli", ["moduli", w.spec(name, alg, omega)], dim=8)
    return group


def symbolic_family(w: Writer, g: int) -> list[dict]:
    group: list[dict] = []
    w.call(group, "example", "paper_example", ["paper-example", "--symbolic"], tag="symbolic")
    # A distinct |beta| per group: Calkin-Wilf terms from a seeded offset.
    offset = w.rng("example").randrange(64)
    beta = calkin_wilf(offset + g) * w.rng(f"example-{g:03d}").choice((-1, 1))
    w.call(group, "example", "paper_example", ["paper-example", f"--beta={beta}"], tag=str(beta))

    name = f"qb4-{g:03d}"
    rng = w.rng(name)
    alg, omega, space = moduli_model(rng, 4)
    conn, x, beta = sp4_family(rng, alg, space)
    path = w.spec(name, alg, omega, conn, {"X": x}, parameter="b")
    w.call(group, name, "verify", ["verify", path, "--vector", "X"], dim=4, automorphism=False)
    w.call(group, name, "verify", ["verify", path, "--vector", "X", f"--beta={beta}"],
           dim=4, automorphism=False, tag=str(beta))
    w.call(group, name, "holonomy", ["holonomy", path, f"--beta={beta}"], dim=4, generators=SP4)

    # KT-type rather than dense: a dense dim-6 moduli solve would add
    # 1.5 s of generation per group.
    name = f"qb6-{g:03d}"
    rng = w.rng(name)
    alg, omega = kt_type_model(rng, 3)
    conn, x = family_with_witness(rng, alg, symplectic_connection_space(alg, omega))
    path = w.spec(name, alg, omega, conn, {"X": x}, parameter="b")
    w.call(group, name, "verify", ["verify", path, "--vector", "X"], dim=6, automorphism=False)
    return group


BUILDERS = {
    "nonflat-verify": nonflat_verify,
    "moduli-solve": moduli_solve,
    "symbolic-family": symbolic_family,
}


def generate(workload: str, seed: int, out: str, first: int, count: int) -> list[list[dict]]:
    """Groups first .. first+count-1 of the seed's sequence; writes their
    spec files and ``groups-<first>.json`` into ``out``."""
    os.makedirs(out, exist_ok=True)
    w = Writer(out, workload, seed)
    groups = [BUILDERS[workload](w, g) for g in range(first, first + count)]
    with open(os.path.join(out, f"groups-{first}.json"), "w", encoding="utf-8") as fh:
        json.dump(groups, fh, indent=1, sort_keys=True)
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.first, args.count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
