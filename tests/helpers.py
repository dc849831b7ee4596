"""Shared sampling utilities and references for the test suite.

Random model generation is seeded and deterministic.  Two-step nilpotent
algebras satisfy the Jacobi identity by construction ([V, V] lands in a
central complement), which gives an honest supply of valid nonabelian
algebras at any even dimension.

``ref_solve_affine_sparse`` and ``ref_symplectic_connection_space`` are the
elimination the package used to find the symplectic connection space
before it was built in closed form: both linear systems over the ``dim**3``
Christoffel unknowns, solved by one augmented :class:`Echelon`.  They stay
here as the reference the closed form must reproduce exactly.
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
from framecalc.errors import FormError, InconsistencyError, ShapeError
from framecalc.linalg import Echelon, nullspace
from framecalc.moduli import AffineSolutionSpace
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


def dense_symplectic_model(rng: random.Random, dim: int):
    """random_symplectic_model, redrawn until the algebra is nonabelian (from
    dim 4 on) and the form is nonzero on at least two thirds of the index
    pairs, so that raising an index mixes every frame."""
    pairs = dim * (dim - 1) // 2
    while True:
        alg, omega = random_symplectic_model(rng, dim)
        nonzero = len(omega.lower.nonzero()) // 2  # (i, j) and (j, i) both count
        if (dim < 4 or not alg.c.is_zero()) and 3 * nonzero >= 2 * pairs:
            return alg, omega


def kt_type_model(rng: random.Random, n: int):
    """Kodaira-Thurston-type model of dimension 2n: brackets
    [E_2, E_2k] = a_k E_1 (k = 2..n) and the form sum_k w_k e^(2k-1) ^ e^(2k),
    with seeded nonzero a_k and w_k.  E_1 is central and pairs only with
    E_2, so the form is closed."""
    dim = 2 * n
    brackets = {(2, 2 * k, 1): rng.choice((-2, -1, 1, 2)) for k in range(2, n + 1)}
    form = {(2 * k - 1, 2 * k): rng.choice((-2, -1, 1, 2)) for k in range(1, n + 1)}
    return validate_algebra(structure_constants(dim, brackets)), symplectic_form(dim, form)


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


def ref_solve_affine_sparse(
    rows: list[dict[int, Fraction]],
    rhs: list[Scalar],
    nunknowns: int,
) -> tuple[list[Scalar], list[list[Fraction]]]:
    """Solve ``rows @ x = rhs`` exactly.

    Coefficients are rational; right-hand sides may be polynomial scalars.
    Returns (particular solution with free unknowns set to zero, canonical
    rational nullspace basis).  Raises :class:`InconsistencyError` when the
    system has no solution.
    """
    ech = Echelon(nunknowns + 1)
    for r, (row, value) in enumerate(zip(rows, rhs)):
        aug = dict(row)
        if value:
            aug[nunknowns] = value
        rest = ech.reduce(aug)
        if not rest:
            continue
        if min(rest) == nunknowns:
            raise InconsistencyError(
                f"system is inconsistent (row {r}: 0 = {rest[nunknowns]})"
            )
        ech._add(rest)

    particular = [Scalar.zero()] * nunknowns
    for p, tail in ech._tails.items():
        particular[p] = tail.get(nunknowns, Scalar.zero())
    return particular, ech.kernel(nunknowns).basis()


def _gamma_unknown(dim: int, i: int, j: int, k: int) -> int:
    return ((i - 1) * dim + (j - 1)) * dim + (k - 1)


def ref_symplectic_connection_space(alg: FrameAlgebra, omega) -> AffineSolutionSpace:
    """Solve {torsion = 0, nabla omega = 0} by elimination over dim**3 unknowns.

    Torsion rows pair gamma[i,j,k] - gamma[j,i,k] against the bracket
    constants, and form rows contract gamma against the form components.
    """
    if alg.dim != omega.dim:
        raise ShapeError("algebra and form dimensions must agree")
    if not ce_differential(alg, omega.lower).is_zero():
        raise InconsistencyError("no torsion-free connection preserves a non-closed form")
    dim = alg.dim
    nunknowns = dim**3
    rows: list[dict[int, Fraction]] = []
    rhs: list[Scalar] = []
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(1, dim + 1):
                rows.append(
                    {
                        _gamma_unknown(dim, i, j, k): Fraction(1),
                        _gamma_unknown(dim, j, i, k): Fraction(-1),
                    }
                )
                rhs.append(alg.c[(i, j, k)])
    for a in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(j + 1, dim + 1):
                row: dict[int, Fraction] = {}
                for p in range(1, dim + 1):
                    w = omega.lower[(p, k)].as_fraction()
                    if w:
                        col = _gamma_unknown(dim, a, j, p)
                        row[col] = row.get(col, Fraction(0)) - w
                    w = omega.lower[(j, p)].as_fraction()
                    if w:
                        col = _gamma_unknown(dim, a, k, p)
                        row[col] = row.get(col, Fraction(0)) - w
                if row:
                    rows.append(row)
                    rhs.append(Scalar.zero())
    particular, basis = ref_solve_affine_sparse(rows, rhs, nunknowns)
    part_conn = Connection(Tensor(dim, (DOWN, DOWN, UP), tuple(particular)))
    basis_conns = tuple(
        Connection(Tensor(dim, (DOWN, DOWN, UP), tuple(Scalar.rational(c) for c in row)))
        for row in basis
    )
    return AffineSolutionSpace(part_conn, basis_conns)
