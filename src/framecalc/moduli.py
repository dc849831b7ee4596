"""The space of invariant symplectic connections, flatness testing on
parametrized slices, and the automorphism/symplectic field spaces.

Torsion-free connections with ``nabla omega = 0`` form an affine space
modelled on the totally symmetric 3-tensors ``S_ijk = gamma[i,j,p] omega_pk``
(Bieliavsky, Cahen, Gutt, Rawnsley and Schwachhöfer, *Symplectic
connections*, IJGMMP 2006, section 2; Gelfand, Retakh and Shubin, *Fedosov
manifolds*, Adv. Math. 1998).  :func:`symplectic_connection_space` builds
it in closed form from that description; nothing eliminates the two
linear systems over the ``dim**3`` Christoffel unknowns.  Its output is
still the one that elimination gives:

* the homogeneous basis is the canonical (reduced row-echelon) basis of
  the directions, and a subspace has only one such basis;
* the particular point is the one that vanishes on the free unknowns of
  the elimination, found from the echelon of the same directions with
  the column order reversed (matroid duality, see the function).

Christoffel unknowns are ordered lexicographically in (i, j, k), 1-based,
so echelon bases are stable across runs and versions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .analysis import Geometry, Subspace, _geometry_for
from .connections import Connection, curvature, _lie_derivative_brackets
from .errors import InconsistencyError, ParameterError, ShapeError
from .frames import (
    FrameAlgebra,
    SymplecticForm,
    ce_differential,
    lower_index,
    musical_flat,
    raise_index,
)
from .scalars import Scalar
from .tensors import DOWN, UP, Tensor, _from_offsets, basis_vector

_GAMMA = (DOWN, DOWN, UP)
_ZERO = Scalar.zero()
_ONE = Scalar.one()


@dataclass(frozen=True)
class AffineSolutionSpace:
    """particular + span(homogeneous_basis), all points torsion-free and
    form-preserving."""

    particular: Connection
    homogeneous_basis: tuple[Connection, ...]

    @property
    def dimension(self) -> int:
        return len(self.homogeneous_basis)

    def point(self, coefficients) -> Connection:
        """The member at the given rational coefficients on the basis."""
        coeffs = [Fraction(c) for c in coefficients]
        if len(coeffs) != self.dimension:
            raise ShapeError(f"expected {self.dimension} coefficients, got {len(coeffs)}")
        total = self.particular.gamma
        for c, direction in zip(coeffs, self.homogeneous_basis):
            if c:
                total = total + direction.gamma.scale(c)
        return Connection(total)

    def contains(self, conn: Connection) -> bool:
        """Membership test; the candidate must have rational entries."""
        dim = self.particular.dim
        if conn.dim != dim:
            return False
        delta = conn.gamma - self.particular.gamma
        try:
            target = [c.as_fraction() for c in delta.comps]
        except ParameterError:
            return False
        rows = [[c.as_fraction() for c in b.gamma.comps] for b in self.homogeneous_basis]
        return linalg.Echelon(len(target), rows).contains(target)


def symplectic_connection_space(alg: FrameAlgebra, omega: SymplecticForm) -> AffineSolutionSpace:
    """The torsion-free connections with nabla omega = 0, in closed form.

    ``S_ijk = gamma[i,j,p] omega_pk`` turns the homogeneous system into
    "S is totally symmetric", so the directions are the elementary
    symmetric 3-tensors with their last slot raised by the dual bivector,
    ``gamma[x,y,q] = Omega^{qz} S_xyz``: ``C(dim+2, 3)`` sparse rows whose
    canonical echelon basis is the homogeneous basis.  The particular
    point starts at ``Gamma0 = c/2``.  With ``N_ajk = S0_ajk - S0_akj``
    (``nabla0 omega`` up to sign) and ``B_ajk = (N_ajk + N_jak)/3``,
    ``Gamma0 - B`` raised is torsion-free, and ``d omega = 0`` (the cyclic
    sum of ``N``) makes it preserve ``omega``.  It is then moved along the
    directions until it vanishes on the free unknowns of the elimination
    of the two systems in lexicographic unknown order.  Those unknowns are
    the pivots of the echelon of the same directions with the column order
    reversed (the complement of the lexicographically first basis of a
    matroid is the lexicographically last basis of its dual), so the
    result is the unique point with zeros there, whatever route finds it.
    ``c`` may be polynomial; only the particular point then lies in Q[b].
    """
    if alg.dim != omega.dim:
        raise ShapeError("algebra and form dimensions must agree")
    if not ce_differential(alg, omega.lower).is_zero():
        raise InconsistencyError(
            "no torsion-free connection preserves a non-closed form"
        )
    dim = alg.dim
    n = dim**3
    # raise_rows[z] lists (q, Omega^{qz}): S_xyz contributes to gamma[x,y,q]
    raise_rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(dim)]
    for off, value in omega.upper._entries():
        q, z = divmod(off, dim)
        raise_rows[z].append((q, value.as_fraction()))
    directions = []
    for triple in itertools.combinations_with_replacement(range(dim), 3):
        row: dict[int, Fraction] = {}
        for x, y, z in set(itertools.permutations(triple)):
            base = (x * dim + y) * dim
            for q, w in raise_rows[z]:
                row[base + q] = w
        directions.append(row)

    basis = linalg.Echelon(n, directions)
    basis_conns = []
    for pivot, tail in basis.rows():
        comps = [_ZERO] * n
        comps[pivot] = _ONE
        for col, x in tail.items():
            comps[col] = Scalar.rational(x)
        basis_conns.append(Connection(Tensor(dim, _GAMMA, tuple(comps))))

    gamma0 = alg.c.scale(Fraction(1, 2))
    # 3 B_ajk = S0_ajk + S0_jak - S0_akj - S0_jka, so S0_xyz enters B at
    # (x,y,z) and (y,x,z) with sign + and at (x,z,y) and (z,x,y) with sign -
    b_acc: dict[int, Scalar] = {}
    for off, s in lower_index(gamma0, 2, omega)._entries():
        rest, z = divmod(off, dim)
        x, y = divmod(rest, dim)
        for key, term in (
            (off, s),
            ((y * dim + x) * dim + z, s),
            ((x * dim + z) * dim + y, -s),
            ((z * dim + x) * dim + y, -s),
        ):
            prev = b_acc.get(key)
            b_acc[key] = term if prev is None else prev + term
    correction = _from_offsets(dim, (DOWN, DOWN, DOWN), b_acc).scale(Fraction(1, 3))
    comps = list((gamma0 - raise_index(correction, 2, omega)).comps)
    reversed_basis = linalg.Echelon(
        n, ({n - 1 - c: w for c, w in row.items()} for row in directions)
    )
    for pivot, tail in reversed_basis.rows():
        t = comps[n - 1 - pivot]
        if t:
            comps[n - 1 - pivot] = _ZERO
            for col, w in tail.items():
                comps[n - 1 - col] = comps[n - 1 - col] - t * w
    particular = Connection(Tensor(dim, _GAMMA, tuple(comps)))
    return AffineSolutionSpace(particular, tuple(basis_conns))


def is_flat_family(alg: FrameAlgebra, family: Connection) -> bool:
    """True when the curvature vanishes identically in the parameter."""
    return curvature(alg, family).is_zero()


def _automorphism_rows(geometry: Geometry) -> list[list[Fraction]]:
    """Rows of the linear map X (by frame components) to L_X nabla.

    The columns L_{E_a} nabla come from the bracket route, which needs no
    curvature; reports on the resulting basis check both routes."""
    alg, conn = geometry.alg, geometry.conn
    if not conn.is_rational():
        raise ParameterError(
            "automorphism solving needs a rational connection; substitute the parameter first"
        )
    geometry.require_torsion_free()
    dim = alg.dim
    columns = []
    for a in range(1, dim + 1):
        lx = _lie_derivative_brackets(alg, conn, basis_vector(dim, a))
        columns.append([c.as_fraction() for c in lx.comps])
    rows = []
    for r in range(dim**3):
        row = [columns[a][r] for a in range(dim)]
        if any(row):
            rows.append(row)
    return rows


def automorphism_space(
    alg: FrameAlgebra, conn: Connection, geometry: Geometry | None = None
) -> Subspace:
    """Invariant fields X with L_X nabla = 0, as a canonical subspace.

    ``geometry``, when given, supplies the torsion verdict.
    """
    rows = _automorphism_rows(_geometry_for(alg, conn, None, geometry))
    return Subspace.from_vectors(alg.dim, linalg.nullspace(rows, alg.dim))


def _symplectic_field_rows(alg: FrameAlgebra, omega: SymplecticForm) -> list[list[Fraction]]:
    dim = alg.dim
    columns = []
    for a in range(1, dim + 1):
        d_flat = ce_differential(alg, musical_flat(basis_vector(dim, a), omega))
        columns.append([c.as_fraction() for c in d_flat.comps])
    rows = []
    for r in range(dim**2):
        row = [columns[a][r] for a in range(dim)]
        if any(row):
            rows.append(row)
    return rows


def symplectic_field_space(alg: FrameAlgebra, omega: SymplecticForm) -> Subspace:
    """Invariant fields whose dual one-form is closed: d(i_X omega) = 0."""
    rows = _symplectic_field_rows(alg, omega)
    basis = linalg.nullspace(rows, alg.dim)
    return Subspace.from_vectors(alg.dim, basis)


@dataclass(frozen=True)
class NonSymplecticReport:
    """Dimension comparison of automorphisms against symplectic automorphisms."""

    automorphisms: Subspace
    symplectic_automorphism_dim: int
    witness: Tensor | None

    @property
    def automorphism_dim(self) -> int:
        return self.automorphisms.dim


def find_non_symplectic_automorphisms(
    alg: FrameAlgebra, omega: SymplecticForm, conn: Connection
) -> NonSymplecticReport:
    """Compare dim(aut) with dim(aut intersect symplectic); produce a witness
    automorphism with non-closed dual one-form when the dimensions differ."""
    aut_rows = _automorphism_rows(Geometry(alg, omega, conn))
    sym_rows = _symplectic_field_rows(alg, omega)
    joint = linalg.nullspace(aut_rows + sym_rows, alg.dim)
    aut = Subspace.from_vectors(alg.dim, linalg.nullspace(aut_rows, alg.dim))
    witness = None
    if len(joint) < aut.dim:
        for v in aut.basis:
            if not ce_differential(alg, musical_flat(v, omega)).is_zero():
                witness = v
                break
    return NonSymplecticReport(aut, len(joint), witness)
