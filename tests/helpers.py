"""Shared sampling utilities for the test suite.

Random model generation is seeded and deterministic.  Two-step nilpotent
algebras satisfy the Jacobi identity by construction ([V, V] lands in a
central complement), which gives an honest supply of valid nonabelian
algebras at any even dimension.
"""

from __future__ import annotations

import random
from fractions import Fraction

from framecalc import (
    Connection,
    FrameAlgebra,
    Tensor,
    abelian_algebra,
    ce_differential,
    structure_constants,
    symplectic_form,
    validate_algebra,
)
from framecalc.errors import FormError
from framecalc.linalg import nullspace
from framecalc.scalars import Scalar
from framecalc.tensors import DOWN, UP, increasing_tuples


def rational(rng: random.Random, span: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_rational_scalar(rng: random.Random, span: int = 3) -> Scalar:
    return Scalar.rational(rational(rng, span))


def random_poly_scalar(rng: random.Random, max_degree: int = 2) -> Scalar:
    out = Scalar.rational(rational(rng))
    b = Scalar.parameter("b")
    for d in range(1, max_degree + 1):
        c = rational(rng)
        if c:
            out = out + (b**d) * c
    return out


def random_vector(rng: random.Random, dim: int, poly: bool = False) -> Tensor:
    make = random_poly_scalar if poly else random_rational_scalar
    return Tensor(dim, (UP,), tuple(make(rng) for _ in range(dim)))


def random_covector(rng: random.Random, dim: int) -> Tensor:
    return Tensor(dim, (DOWN,), tuple(random_rational_scalar(rng) for _ in range(dim)))


def random_form(rng: random.Random, dim: int, degree: int) -> Tensor:
    from framecalc.tensors import antisymmetric_from_components

    parts = {}
    for inc in increasing_tuples(dim, degree):
        v = random_rational_scalar(rng)
        if v:
            parts[inc] = v
    return antisymmetric_from_components(dim, degree, (DOWN,) * degree, parts)


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


def closed_nondegenerate_form(rng: random.Random, alg: FrameAlgebra, attempts: int = 40):
    """A random rational symplectic form with vanishing exterior derivative,
    or None when the sampled combinations stay degenerate."""
    dim = alg.dim
    pairs = list(increasing_tuples(dim, 2))
    columns = []
    for p in pairs:
        basis_form = symplectic_candidate(dim, {p: 1})
        d = ce_differential(alg, basis_form)
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


def symplectic_candidate(dim: int, entries: dict) -> Tensor:
    """Antisymmetric 2-form tensor from sparse i < j entries (not validated)."""
    table = {}
    for (i, j), v in entries.items():
        s = v if isinstance(v, Scalar) else Scalar.rational(v)
        table[(i, j)] = s
        table[(j, i)] = -s
    return Tensor.from_entries(dim, (DOWN, DOWN), table)


def random_symplectic_model(rng: random.Random, dim: int):
    """(algebra, omega) with omega closed and nondegenerate; retries algebras."""
    while True:
        alg = two_step_nilpotent(rng, dim)
        omega = closed_nondegenerate_form(rng, alg)
        if omega is not None:
            return alg, omega


def random_torsion_free_connection(
    rng: random.Random, alg: FrameAlgebra, poly: bool = False
) -> Connection:
    """Random symmetric part plus half the bracket constants."""
    dim = alg.dim
    make = random_poly_scalar if poly else random_rational_scalar
    table = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            for k in range(1, dim + 1):
                s = make(rng)
                table[(i, j, k)] = s
                table[(j, i, k)] = s
    half = Fraction(1, 2)
    entries = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                entries[(i, j, k)] = table[(i, j, k)] + alg.c[(i, j, k)] * half
    gamma = Tensor.from_entries(dim, (DOWN, DOWN, UP), entries)
    return Connection(gamma)


def sample_connection(rng: random.Random, space, nonzero: int = 6) -> Connection:
    """A random member of an affine solution space with few active directions."""
    coeffs = [Fraction(0)] * space.dimension
    active = min(nonzero, space.dimension)
    for pos in rng.sample(range(space.dimension), active):
        coeffs[pos] = rational(rng, span=2, den=2)
    return space.point(coeffs)


def aff_r_squared():
    """(algebra, omega) for aff(R) x aff(R): [E1,E2] = E2, [E3,E4] = E4 and
    omega = e12 + e34.  The algebra is not unimodular (tr ad E1 = 1), so
    invariant fields can have nonzero divergence."""
    alg = validate_algebra(structure_constants(4, {(1, 2, 2): 1, (3, 4, 4): 1}))
    return alg, symplectic_form(4, {(1, 2): 1, (3, 4): 1})


ALGEBRA_POOL_SEED = 20260810


def pool_algebras() -> list[FrameAlgebra]:
    """Small fixed zoo of valid algebras for cross-check suites."""
    from framecalc import kodaira_thurston

    rng = random.Random(ALGEBRA_POOL_SEED)
    pool = [
        abelian_algebra(2),
        abelian_algebra(4),
        validate_algebra(structure_constants(2, {(1, 2, 1): 1})),
        validate_algebra(structure_constants(4, {(1, 2, 3): 1})),
        kodaira_thurston().algebra,
        two_step_nilpotent(rng, 4),
        two_step_nilpotent(rng, 6),
    ]
    return pool
