"""The automorphism verdict chain: musical endomorphism, nilpotency,
null-space filtration, isotropy, infinitesimal holonomy, and the
aggregated report.

Rank and echelon computations need rational matrices: over the polynomial
ring the rank depends on the parameter locus, so parameter-dependent
inputs are refused with an instruction to substitute a value first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .connections import (
    Connection,
    covariant_derivative,
    curvature,
    divergence,
    first_torsion_violation,
    lie_derivative_connection,
    preserves_form,
    require_symplectic,
)
from .errors import (
    ConventionFault,
    ParameterError,
    PreconditionError,
    ShapeError,
    StabilizationError,
)
from .frames import (
    FrameAlgebra,
    SymplecticForm,
    ce_differential,
    musical_flat,
    omega_power,
    raise_index,
    wedge,
)
from .scalars import Scalar
from .tensors import DOWN, UP, Tensor, basis_vector, identity_endomorphism

_ZERO = Scalar.zero()
_F0 = Fraction(0)


# -- rational subspaces -------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A rational subspace with its canonical reduced-echelon basis.

    Equal subspaces store identical bases, so dataclass equality is
    subspace equality.
    """

    ambient_dim: int
    basis: tuple[Tensor, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        rows = [_rational_components(v, ambient_dim) for v in vectors]
        basis = tuple(
            Tensor(ambient_dim, (UP,), tuple(Scalar.rational(c) for c in row))
            for row in linalg.Echelon(ambient_dim, rows).basis()
        )
        return cls(ambient_dim, basis)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(ambient_dim, [basis_vector(ambient_dim, i) for i in range(1, ambient_dim + 1)])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Tensor) -> bool:
        rows = [_rational_components(v, self.ambient_dim) for v in self.basis]
        return linalg.Echelon(self.ambient_dim, rows).contains(
            _rational_components(vector, self.ambient_dim)
        )

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)


def _rational_components(vector, ambient_dim: int) -> list[Fraction]:
    if isinstance(vector, Tensor):
        if vector.valence != (UP,) or vector.dim != ambient_dim:
            raise ShapeError("subspace vectors must be valence-(up) of the ambient dimension")
        try:
            return [c.as_fraction() for c in vector.comps]
        except ParameterError as exc:
            raise ParameterError(
                "subspace computations need rational components; substitute the parameter first"
            ) from exc
    return [Fraction(c) for c in vector]


def is_isotropic(omega: SymplecticForm, subspace: Subspace) -> bool:
    """True when the form vanishes on every pair of basis vectors."""
    for a in range(len(subspace.basis)):
        for b in range(a + 1, len(subspace.basis)):
            if omega.pairing(subspace.basis[a], subspace.basis[b]):
                return False
    return True


def is_lagrangian(omega: SymplecticForm, subspace: Subspace) -> bool:
    return is_isotropic(omega, subspace) and 2 * subspace.dim == omega.dim


# -- endomorphisms ------------------------------------------------------------


def compose(a: Tensor, b: Tensor) -> Tensor:
    """(a then b) as endomorphisms: (a o b)[i,k] = a[i,p] b[p,k]."""
    _require_endo(a)
    _require_endo(b)
    if a.dim != b.dim:
        raise ShapeError("endomorphism dimensions must agree")
    dim = a.dim
    comps = []
    for i in range(1, dim + 1):
        for k in range(1, dim + 1):
            total = _ZERO
            for p in range(1, dim + 1):
                ap = a[(i, p)]
                if ap:
                    bp = b[(p, k)]
                    if bp:
                        total = total + ap * bp
            comps.append(total)
    return Tensor(dim, (DOWN, UP), tuple(comps))


def endo_power(a: Tensor, k: int) -> Tensor:
    _require_endo(a)
    if k < 0:
        raise ShapeError("endomorphism powers take k >= 0")
    out = identity_endomorphism(a.dim)
    for _ in range(k):
        out = compose(out, a)
    return out


def endo_trace(a: Tensor) -> Scalar:
    _require_endo(a)
    return a.contract(0, 1)[()]


def apply_endo(a: Tensor, x: Tensor) -> Tensor:
    """Image vector: (A X)^k = X^i a[i,k]."""
    _require_endo(a)
    if x.valence != (UP,) or x.dim != a.dim:
        raise ShapeError("apply_endo takes a vector of the endomorphism's dimension")
    dim = a.dim
    comps = []
    for k in range(1, dim + 1):
        total = _ZERO
        for i in range(1, dim + 1):
            xi = x[(i,)]
            if xi:
                ak = a[(i, k)]
                if ak:
                    total = total + xi * ak
        comps.append(total)
    return Tensor(dim, (UP,), tuple(comps))


def commutator(a: Tensor, b: Tensor) -> Tensor:
    return compose(a, b) - compose(b, a)


def _require_endo(a: Tensor):
    if a.valence != (DOWN, UP):
        raise ShapeError(f"endomorphisms have valence (down, up), got {a.valence}")


def _endo_matrix(a: Tensor) -> list[list[Fraction]]:
    try:
        return [
            [a[(i, k)].as_fraction() for k in range(1, a.dim + 1)] for i in range(1, a.dim + 1)
        ]
    except ParameterError as exc:
        raise ParameterError(
            "endomorphism analysis needs rational components; substitute the parameter first"
        ) from exc


# -- the musical endomorphism --------------------------------------------------


def musical_endomorphism(
    alg: FrameAlgebra, omega: SymplecticForm, conn: Connection, x: Tensor
) -> Tensor:
    """A[i,j] with A = d(X-flat) seen as an endomorphism through the form.

    Computed two ways: raising the last slot of d(X-flat) built from
    antisymmetrized covariant derivatives, and as
    nabla_i X^j - Omega^{jp} nabla_p X_i.  The two must agree for a
    torsion-free form-preserving connection.
    """
    pair = first_torsion_violation(alg, conn)
    if pair is not None:
        raise PreconditionError(f"torsion nonzero at {pair}")
    if not preserves_form(alg, conn, omega):
        raise PreconditionError("connection does not preserve the form")
    x_flat = musical_flat(x, omega)
    grad_flat = covariant_derivative(alg, conn, x_flat)
    d_flat = grad_flat - grad_flat.swap_slots(0, 1)
    route_one = _raise_last(d_flat, omega)

    grad_x = covariant_derivative(alg, conn, x)
    dim = alg.dim
    comps = []
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            second = _ZERO
            for p in range(1, dim + 1):
                w = omega.upper[(j, p)]
                if w:
                    g = grad_flat[(p, i)]
                    if g:
                        second = second + w * g
            comps.append(grad_x[(i, j)] - second)
    route_two = Tensor(dim, (DOWN, UP), tuple(comps))
    if route_one != route_two:
        raise ConventionFault("musical endomorphism routes disagree")
    return route_one


def _raise_last(t: Tensor, omega: SymplecticForm) -> Tensor:
    return raise_index(t, t.rank - 1, omega)


def trace_power(endo: Tensor, k: int) -> Scalar:
    """Trace of the k-fold composition."""
    if k < 1:
        raise ShapeError("trace powers take k >= 1")
    return endo_trace(endo_power(endo, k))


def nilpotency_index(endo: Tensor) -> int | None:
    """Least k with endo^k = 0, or None when endo^dim is still nonzero."""
    _require_endo(endo)
    power = endo
    for k in range(1, endo.dim + 1):
        if power.is_zero():
            return k
        power = compose(power, endo)
    return None


def null_filtration(endo: Tensor) -> tuple[list[Subspace], list[Subspace]]:
    """Kernel and image chains of powers endo^k, k = 1 .. nilpotency bound.

    The bound is the nilpotency index when the endomorphism is nilpotent
    and the ambient dimension otherwise.
    """
    _require_endo(endo)
    dim = endo.dim
    bound = nilpotency_index(endo) or dim
    kernels: list[Subspace] = []
    images: list[Subspace] = []
    power = endo
    for _ in range(bound):
        mat = _endo_matrix(power)
        transposed = [[mat[i][k] for i in range(dim)] for k in range(dim)]
        kernel_rows = linalg.nullspace(transposed, dim)
        kernels.append(Subspace.from_vectors(dim, kernel_rows))
        images.append(Subspace.from_vectors(dim, mat))
        power = compose(power, endo)
    return kernels, images


def top_image(endo: Tensor) -> Subspace:
    """Image of the last nonzero power of a nilpotent endomorphism.

    For the zero endomorphism this is the zero subspace; for a
    non-nilpotent endomorphism it is the stabilized image of endo^dim.
    """
    _require_endo(endo)
    if endo.is_zero():
        return Subspace.zero(endo.dim)
    nil = nilpotency_index(endo)
    k = (nil - 1) if nil is not None else endo.dim
    mat = _endo_matrix(endo_power(endo, k))
    return Subspace.from_vectors(endo.dim, mat)


# -- infinitesimal holonomy ----------------------------------------------------


def infinitesimal_holonomy(
    alg: FrameAlgebra, conn: Connection, max_order: int | None = None
) -> list[Tensor]:
    """Canonical basis of the smallest bracket-closed span of curvature
    endomorphisms and their iterated covariant derivatives.

    Worklist closure: whenever an endomorphism enlarges the span, its frame
    derivatives and its brackets with the other contributors are queued.
    Derivatives of span-dependent candidates are redundant because the
    covariant derivative is linear over the (constant) scalars, so this
    visits the same span as slicing the iterated derivative tensors.
    Raises StabilizationError when a candidate of derivative order above
    ``max_order`` (default dim squared) still enlarges the span.
    """
    pair = first_torsion_violation(alg, conn)
    if pair is not None:
        raise PreconditionError(f"torsion nonzero at {pair}")
    riem = curvature(alg, conn)
    if riem.is_zero():
        return []
    dim = alg.dim
    if max_order is None:
        max_order = dim * dim

    span = linalg.Echelon(dim * dim)
    contributors: list[tuple[int, Tensor]] = []
    pending: deque[tuple[int, Tensor]] = deque(
        (0, _endo_slice(riem, (i, j)))
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
    )
    while pending:
        order, endo = pending.popleft()
        if not span.insert([x for r in _endo_matrix(endo) for x in r]):
            continue
        if order > max_order:
            raise StabilizationError(
                f"holonomy span still growing at derivative order {order} (cap {max_order})"
            )
        for other_order, other in contributors:
            pending.append((max(order, other_order), commutator(endo, other)))
        grad = covariant_derivative(alg, conn, endo)
        for a in range(1, dim + 1):
            pending.append((order + 1, _endo_slice(grad, (a,))))
        contributors.append((order, endo))
    return [Tensor(dim, (DOWN, UP), tuple(Scalar.rational(c) for c in row)) for row in span.basis()]


def _endo_slice(t: Tensor, prefix: tuple[int, ...]) -> Tensor:
    """Freeze leading indices of a (..., down, up) tensor to an endomorphism."""
    dim = t.dim
    return Tensor.from_function(dim, (DOWN, UP), lambda q, k: t[prefix + (q, k)])


def commutes_with_holonomy(endo: Tensor, generators: list[Tensor]) -> bool:
    return all(commutator(endo, g).is_zero() for g in generators)


def parallel_endomorphisms(alg: FrameAlgebra, conn: Connection) -> list[Tensor]:
    """Canonical basis of {A : nabla A = 0} (contains the identity)."""
    dim = alg.dim
    g = conn.gamma
    unknown = lambda i, j: (i - 1) * dim + (j - 1)
    rows = []
    try:
        for a in range(1, dim + 1):
            for i in range(1, dim + 1):
                for k in range(1, dim + 1):
                    row: dict[int, Fraction] = {}
                    for p in range(1, dim + 1):
                        down = g[(a, i, p)]
                        if down:
                            col = unknown(p, k)
                            row[col] = row.get(col, _F0) - down.as_fraction()
                        up = g[(a, p, k)]
                        if up:
                            col = unknown(i, p)
                            row[col] = row.get(col, _F0) + up.as_fraction()
                    if row:
                        rows.append(row)
    except ParameterError as exc:
        raise ParameterError(
            "parallel endomorphism solving needs a rational connection; "
            "substitute the parameter first"
        ) from exc
    basis = linalg.nullspace(rows, dim * dim)
    return [
        Tensor(dim, (DOWN, UP), tuple(Scalar.rational(c) for c in row)) for row in basis
    ]


# -- the aggregated report -------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismReport:
    """Verdict chain for one (connection, vector field) pair.

    Fields after ``wedge_identity_holds`` are None unless the field is an
    affine automorphism (the chain is gated on L_X nabla = 0).
    """

    dim: int
    is_affine_automorphism: bool
    is_symplectic: bool
    d_flat: Tensor
    divergence: Scalar
    d_flat_parallel: bool
    wedge_identity_holds: bool
    endomorphism: Tensor | None
    trace_powers: tuple[Scalar, ...] | None
    nilpotency_index: int | None
    kernel_chain: tuple[Subspace, ...] | None
    image_chain: tuple[Subspace, ...] | None
    image_isotropic: bool | None
    image_lagrangian: bool | None
    holonomy_commutes: bool | None


def verify_automorphism(
    alg: FrameAlgebra,
    omega: SymplecticForm,
    conn: Connection,
    x: Tensor,
    beta=None,
    holonomy=None,
) -> AutomorphismReport:
    """Run the full verdict chain.

    Preconditions (torsion-free, form-preserving) raise PreconditionError
    naming the failing identity.  When ``beta`` is given, the connection
    and field are specialized at that rational value first; otherwise a
    parameter-dependent filtration or holonomy step raises ParameterError.
    ``holonomy``, when given, is a callable returning the infinitesimal
    holonomy of the (specialized) connection; it is called only when the
    chain reaches the holonomy step, so callers verifying several fields of
    one connection can pass one memoized callable and close the span once.
    """
    if beta is not None:
        conn = conn.substitute(beta)
        x = x.substitute(beta)
    require_symplectic(alg, conn, omega)

    lx = lie_derivative_connection(alg, conn, x)
    is_aut = lx.is_zero()

    x_flat = musical_flat(x, omega)
    d_flat = ce_differential(alg, x_flat)
    is_symp = d_flat.is_zero()
    div = divergence(alg, conn, x)
    parallel = covariant_derivative(alg, conn, d_flat).is_zero()
    n = alg.dim // 2
    wedge_ok = wedge(d_flat, omega_power(omega, n - 1)) == omega_power(omega, n).scale(div)

    endo = traces = nil = kernels = images = None
    isotropic = lagrangian = commutes = None
    if is_aut:
        endo = musical_endomorphism(alg, omega, conn, x)
        traces = tuple(trace_power(endo, k) for k in range(1, alg.dim + 1))
        nil = nilpotency_index(endo)
        kernels, images = null_filtration(endo)
        kernels, images = tuple(kernels), tuple(images)
        top = top_image(endo)
        isotropic = is_isotropic(omega, top)
        lagrangian = is_lagrangian(omega, top)
        generators = holonomy() if holonomy is not None else infinitesimal_holonomy(alg, conn)
        commutes = commutes_with_holonomy(endo, generators)

    return AutomorphismReport(
        dim=alg.dim,
        is_affine_automorphism=is_aut,
        is_symplectic=is_symp,
        d_flat=d_flat,
        divergence=div,
        d_flat_parallel=parallel,
        wedge_identity_holds=wedge_ok,
        endomorphism=endo,
        trace_powers=traces,
        nilpotency_index=nil,
        kernel_chain=kernels,
        image_chain=images,
        image_isotropic=isotropic,
        image_lagrangian=lagrangian,
        holonomy_commutes=commutes,
    )
