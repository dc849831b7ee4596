"""Exact linear solving for invariant torsion-free form-preserving connections,
flatness testing on parametrized slices, and the automorphism/symplectic
field spaces.

Christoffel unknowns are ordered lexicographically in (i, j, k), 1-based,
so echelon bases are stable across runs and versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .analysis import Geometry, Subspace, _geometry_for
from .connections import Connection, curvature, _lie_derivative_brackets
from .errors import InconsistencyError, ParameterError, ShapeError
from .frames import FrameAlgebra, SymplecticForm, ce_differential, musical_flat
from .scalars import Scalar
from .tensors import DOWN, UP, Tensor, basis_vector

_F0 = Fraction(0)
_F1 = Fraction(1)
_ZERO = Scalar.zero()


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


def _gamma_unknown(dim: int, i: int, j: int, k: int) -> int:
    return ((i - 1) * dim + (j - 1)) * dim + (k - 1)


def symplectic_connection_space(alg: FrameAlgebra, omega: SymplecticForm) -> AffineSolutionSpace:
    """Solve {torsion = 0, nabla omega = 0} exactly.

    The system is linear with rational coefficients: torsion rows pair
    gamma[i,j,k] - gamma[j,i,k] against the bracket constants, and form
    rows contract gamma against the (rational) form components.  The form
    must be closed for the system to be consistent.
    """
    if alg.dim != omega.dim:
        raise ShapeError("algebra and form dimensions must agree")
    if not ce_differential(alg, omega.lower).is_zero():
        raise InconsistencyError(
            "no torsion-free connection preserves a non-closed form"
        )
    dim = alg.dim
    nunknowns = dim**3
    rows: list[dict[int, Fraction]] = []
    rhs: list[Scalar] = []
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(1, dim + 1):
                rows.append(
                    {
                        _gamma_unknown(dim, i, j, k): _F1,
                        _gamma_unknown(dim, j, i, k): -_F1,
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
                        row[col] = row.get(col, _F0) - w
                    w = omega.lower[(j, p)].as_fraction()
                    if w:
                        col = _gamma_unknown(dim, a, k, p)
                        row[col] = row.get(col, _F0) - w
                if row:
                    rows.append(row)
                    rhs.append(_ZERO)
    particular, basis = linalg.solve_affine_sparse(rows, rhs, nunknowns)
    part_conn = Connection(Tensor(dim, (DOWN, DOWN, UP), tuple(particular)))
    basis_conns = tuple(
        Connection(Tensor(dim, (DOWN, DOWN, UP), tuple(Scalar.rational(c) for c in row)))
        for row in basis
    )
    return AffineSolutionSpace(part_conn, basis_conns)


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
