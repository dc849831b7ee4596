"""The automorphism verdict chain: musical endomorphism, nilpotency,
null-space filtration, isotropy, infinitesimal holonomy, and the
aggregated report.

Rank and echelon computations need rational matrices: over the polynomial
ring the rank depends on the parameter locus, so parameter-dependent
inputs are refused with an instruction to substitute a value first.

The chain asks the same questions of one model many times: is the
connection torsion-free, does it preserve the form, what are its
curvature, the powers Omega_{n-1} and Omega_n and its infinitesimal
holonomy.  A :class:`Geometry` holds one (algebra, form, connection) and
answers each of these on first use, once; it lives for one CLI command or
one library call and is then dropped, so nothing is cached across calls.
The chain's functions take it as an optional ``geometry`` argument and
build a fresh one when none is given.  Every ``ConventionFault``
cross-check still runs, once per vector field.

The form powers are kept as increasing-tuple components (see
:mod:`framecalc.frames`), and the wedge identity
d(X-flat) ^ Omega_{n-1} = div(X) Omega_n is checked by one helper,
``_wedge_identity_holds``, which compares the nonzero components of both
sides; no dense top-degree form is built.  Each endomorphism of a report
builds its list of powers endo, endo^2, .. once (up to endo^dim or the
first zero power), and the trace powers, the nilpotency index, the
null-space filtration and the top image all read from it.

The holonomy closure stops early when the span fills sp(omega).  For a
connection with nabla omega = 0, every curvature endomorphism R(X, Y) is
omega-skew; covariant derivatives of omega-skew endomorphisms and brackets
of them are omega-skew again.  So the whole span lies in sp(omega), of
dimension n(2n+1) for dim = 2n, and once it reaches that dimension no
candidate can enlarge it (Ambrose & Singer 1953, *A theorem on holonomy*).
The stop is taken only after the geometry has established nabla omega = 0;
otherwise the only bound is dim^2, the whole endomorphism space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import linalg
from .connections import (
    Connection,
    _require_no_torsion,
    _require_parallel_form,
    covariant_derivative,
    curvature,
    divergence,
    first_torsion_violation,
    lie_derivative_connection,
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
    raise_index,
    _top_omega_powers,
    _wedge_components,
)
from .scalars import Scalar
from .tensors import (
    DOWN,
    UP,
    Tensor,
    antisymmetric_components,
    basis_vector,
    identity_endomorphism,
    _from_offsets,
    _matrix_rows,
    _slot_apply,
)

_ZERO = Scalar.zero()
_F0 = Fraction(0)
_DERIVATIVE = object()  # holonomy work item: the frame slices of nabla endo


# -- the per-model context -----------------------------------------------------


class Geometry:
    """What the verdict chain knows about one (algebra, form, connection).

    Each cached property is computed on first use through the package's
    public functions and kept for the life of this object: one CLI command
    or one library call.  ``omega`` may be None for the questions that do
    not involve the form.
    """

    def __init__(self, alg: FrameAlgebra, omega: SymplecticForm | None, conn: Connection):
        self.alg = alg
        self.omega = omega
        self.conn = conn

    def for_model(self, alg: FrameAlgebra, conn: Connection, omega=None) -> "Geometry":
        """This context, after checking that it describes the given model."""
        if (self.alg, self.conn) != (alg, conn) or (omega is not None and self.omega != omega):
            raise ShapeError("the geometry context describes a different model")
        return self

    @cached_property
    def torsion_violation(self):
        """First (i, j) pair carrying torsion, or None."""
        return first_torsion_violation(self.alg, self.conn)

    def require_torsion_free(self) -> None:
        _require_no_torsion(self.torsion_violation)

    @cached_property
    def nabla_omega(self) -> Tensor:
        return covariant_derivative(self.alg, self.conn, self.omega.lower)

    @property
    def preserves_form(self) -> bool:
        return self.nabla_omega.is_zero()

    def require_symplectic(self) -> None:
        """Raise PreconditionError naming the failing identity, if any."""
        self.require_torsion_free()
        _require_parallel_form(self.nabla_omega)

    @cached_property
    def curvature(self) -> Tensor:
        return curvature(self.alg, self.conn, torsion_free=self.torsion_violation is None)

    @cached_property
    def top_omega_powers(self) -> tuple[dict, dict]:
        """(Omega_{n-1}, Omega_n) for dim = 2n, as increasing-tuple components."""
        return _top_omega_powers(self.omega)

    @cached_property
    def holonomy(self) -> list[Tensor]:
        return infinitesimal_holonomy(self.alg, self.conn, omega=self.omega, geometry=self)


def _geometry_for(alg, conn, omega, geometry) -> Geometry:
    if geometry is None:
        return Geometry(alg, omega, conn)
    return geometry.for_model(alg, conn, omega)


def _wedge_identity_holds(geometry: Geometry, d_flat: Tensor, div: Scalar) -> bool:
    """d(X-flat) ^ Omega_{n-1} == div(X) Omega_n, compared on the nonzero
    increasing-tuple components of both sides."""
    omega_rest, omega_top = geometry.top_omega_powers
    lhs = _wedge_components(antisymmetric_components(d_flat), omega_rest)
    # Omega_n has no zero component and Q[b] has no zero divisors
    return lhs == ({idx: v * div for idx, v in omega_top.items()} if div else {})


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
    return _from_offsets(a.dim, (DOWN, UP), _slot_apply(a, 1, _matrix_rows(b), {}))


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
    return _from_offsets(a.dim, (UP,), _slot_apply(x, 0, _matrix_rows(a), {}))


def commutator(a: Tensor, b: Tensor) -> Tensor:
    return compose(a, b) - compose(b, a)


def _require_endo(a: Tensor):
    if a.valence != (DOWN, UP):
        raise ShapeError(f"endomorphisms have valence (down, up), got {a.valence}")


def _endo_matrix(a: Tensor) -> list[list[Fraction]]:
    dim = a.dim
    try:
        return [[c.as_fraction() for c in a.comps[i : i + dim]] for i in range(0, dim * dim, dim)]
    except ParameterError as exc:
        raise ParameterError(
            "endomorphism analysis needs rational components; substitute the parameter first"
        ) from exc


# -- the musical endomorphism --------------------------------------------------


def musical_endomorphism(
    alg: FrameAlgebra, omega: SymplecticForm, conn: Connection, x: Tensor, geometry=None
) -> Tensor:
    """A[i,j] with A = d(X-flat) seen as an endomorphism through the form.

    Computed two ways: raising the last slot of d(X-flat) built from
    antisymmetrized covariant derivatives, and as
    nabla_i X^j - Omega^{jp} nabla_p X_i.  The two must agree for a
    torsion-free form-preserving connection.
    """
    geo = _geometry_for(alg, conn, omega, geometry)
    geo.require_torsion_free()
    if not geo.preserves_form:
        raise PreconditionError("connection does not preserve the form")
    x_flat = musical_flat(x, omega)
    grad_flat = covariant_derivative(alg, conn, x_flat)
    d_flat = grad_flat - grad_flat.swap_slots(0, 1)
    route_one = _raise_last(d_flat, omega)

    grad_x = covariant_derivative(alg, conn, x)
    # second[j, i] = Omega^{jp} nabla_p X_i: the first slot of grad_flat raised
    raised = _matrix_rows(omega.upper, transpose=True)
    second = _from_offsets(alg.dim, (UP, DOWN), _slot_apply(grad_flat, 0, raised, {}))
    route_two = grad_x - second.swap_slots(0, 1)
    if route_one != route_two:
        raise ConventionFault("musical endomorphism routes disagree")
    return route_one


def _raise_last(t: Tensor, omega: SymplecticForm) -> Tensor:
    return raise_index(t, t.rank - 1, omega)


def _power_list(endo: Tensor) -> list[Tensor]:
    """[endo, endo^2, ..]: up to endo^dim, or up to the first zero power."""
    powers = [endo]
    while len(powers) < endo.dim and not powers[-1].is_zero():
        powers.append(compose(powers[-1], endo))
    return powers


def trace_power(endo: Tensor, k: int, powers: list[Tensor] | None = None) -> Scalar:
    """Trace of the k-fold composition.

    ``powers``, when given, is the list ``[endo, endo^2, ..]`` of one
    endomorphism (up to endo^dim or its first zero power) to read from.
    """
    if k < 1:
        raise ShapeError("trace powers take k >= 1")
    if powers is not None:
        if k <= len(powers):
            return endo_trace(powers[k - 1])
        if powers[-1].is_zero():
            return _ZERO
    return endo_trace(endo_power(endo, k))


def nilpotency_index(endo: Tensor, powers: list[Tensor] | None = None) -> int | None:
    """Least k with endo^k = 0, or None when endo^dim is still nonzero.

    ``powers`` is an optional list of powers, as for :func:`trace_power`.
    """
    _require_endo(endo)
    if powers is None:
        powers = _power_list(endo)
    return len(powers) if powers[-1].is_zero() else None


def null_filtration(
    endo: Tensor, powers: list[Tensor] | None = None
) -> tuple[list[Subspace], list[Subspace]]:
    """Kernel and image chains of powers endo^k, k = 1 .. nilpotency bound.

    The bound is the nilpotency index when the endomorphism is nilpotent
    and the ambient dimension otherwise.  ``powers`` is an optional list of
    powers, as for :func:`trace_power`.
    """
    _require_endo(endo)
    if powers is None:
        powers = _power_list(endo)
    dim = endo.dim
    kernels: list[Subspace] = []
    images: list[Subspace] = []
    for power in powers:
        mat = _endo_matrix(power)
        transposed = [[mat[i][k] for i in range(dim)] for k in range(dim)]
        kernel_rows = linalg.nullspace(transposed, dim)
        kernels.append(Subspace.from_vectors(dim, kernel_rows))
        images.append(Subspace.from_vectors(dim, mat))
    return kernels, images


def top_image(endo: Tensor, powers: list[Tensor] | None = None) -> Subspace:
    """Image of the last nonzero power of a nilpotent endomorphism.

    For the zero endomorphism this is the zero subspace; for a
    non-nilpotent endomorphism it is the stabilized image of endo^dim.
    ``powers`` is an optional list of powers, as for :func:`trace_power`.
    """
    _require_endo(endo)
    if endo.is_zero():
        return Subspace.zero(endo.dim)
    if powers is None:
        powers = _power_list(endo)
    last = powers[-2] if powers[-1].is_zero() else powers[-1]
    return Subspace.from_vectors(endo.dim, _endo_matrix(last))


# -- infinitesimal holonomy ----------------------------------------------------


def infinitesimal_holonomy(
    alg: FrameAlgebra,
    conn: Connection,
    max_order: int | None = None,
    omega: SymplecticForm | None = None,
    geometry: Geometry | None = None,
) -> list[Tensor]:
    """Canonical basis of the smallest bracket-closed span of curvature
    endomorphisms and their iterated covariant derivatives.

    Worklist closure: whenever an endomorphism enlarges the span, the
    brackets with the earlier contributors and then its frame derivatives
    are queued, as (endo, endo) pairs and a derivative marker; each is
    computed only when popped, and the derivative's dim slices take the
    marker's place in the queue.  Derivatives of span-dependent candidates
    are redundant because the covariant derivative is linear over the
    (constant) scalars, so this visits the same span as slicing the
    iterated derivative tensors.  The closure stops once the span has
    dimension dim^2, or n(2n+1) when ``omega`` is given and nabla omega = 0
    (see the module docstring).  Raises StabilizationError when a
    candidate of derivative order above ``max_order`` (default dim
    squared) still enlarges the span.
    """
    geo = _geometry_for(alg, conn, omega, geometry)
    geo.require_torsion_free()
    riem = geo.curvature
    if riem.is_zero():
        return []
    dim = alg.dim
    if max_order is None:
        max_order = dim * dim
    sp_dim = dim * (dim + 1) // 2 if geo.omega is not None else None

    span = linalg.Echelon(dim * dim)
    contributors: list[tuple[int, Tensor]] = []
    # (order, endo, None) is a candidate, (order, endo, other) the bracket
    # [endo, other], (order, endo, _DERIVATIVE) the slices of nabla endo.
    pending: deque[tuple[int, Tensor, object]] = deque(
        (0, _endo_slice(riem, (i, j)), None)
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
    )
    while pending:
        order, endo, tag = pending.popleft()
        if tag is _DERIVATIVE:
            grad = covariant_derivative(alg, conn, endo)
            pending.extendleft((order, _endo_slice(grad, (a,)), None) for a in range(dim, 0, -1))
            continue
        if tag is not None:
            endo = commutator(endo, tag)
        if not span.insert([x for r in _endo_matrix(endo) for x in r]):
            continue
        if order > max_order:
            raise StabilizationError(
                f"holonomy span still growing at derivative order {order} (cap {max_order})"
            )
        if len(span) == dim * dim or (len(span) == sp_dim and geo.preserves_form):
            break
        for other_order, other in contributors:
            pending.append((max(order, other_order), endo, other))
        pending.append((order + 1, endo, _DERIVATIVE))
        contributors.append((order, endo))
    return [Tensor(dim, (DOWN, UP), tuple(Scalar.rational(c) for c in row)) for row in span.basis()]


def _endo_slice(t: Tensor, prefix: tuple[int, ...]) -> Tensor:
    """Freeze leading indices of a (..., down, up) tensor to an endomorphism."""
    dim = t.dim
    start = 0
    for i in prefix:
        start = start * dim + i - 1
    start *= dim * dim
    return Tensor(dim, (DOWN, UP), t.comps[start : start + dim * dim])


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
    geometry: Geometry | None = None,
) -> AutomorphismReport:
    """Run the full verdict chain.

    Preconditions (torsion-free, form-preserving) raise PreconditionError
    naming the failing identity.  When ``beta`` is given, the connection
    and field are specialized at that rational value first; otherwise a
    parameter-dependent filtration or holonomy step raises ParameterError.
    ``geometry``, when given, is the :class:`Geometry` of the (specialized)
    model; callers verifying several fields of one connection pass one, so
    its preconditions, curvature, form powers and holonomy are computed once.
    """
    if beta is not None:
        conn = conn.substitute(beta)
        x = x.substitute(beta)
    geo = _geometry_for(alg, conn, omega, geometry)
    geo.require_symplectic()

    lx = lie_derivative_connection(alg, conn, x, geometry=geo)
    is_aut = lx.is_zero()

    x_flat = musical_flat(x, omega)
    d_flat = ce_differential(alg, x_flat)
    is_symp = d_flat.is_zero()
    div = divergence(alg, conn, x)
    parallel = covariant_derivative(alg, conn, d_flat).is_zero()
    wedge_ok = _wedge_identity_holds(geo, d_flat, div)

    endo = traces = nil = kernels = images = None
    isotropic = lagrangian = commutes = None
    if is_aut:
        endo = musical_endomorphism(alg, omega, conn, x, geometry=geo)
        powers = _power_list(endo)
        traces = tuple(trace_power(endo, k, powers) for k in range(1, alg.dim + 1))
        nil = nilpotency_index(endo, powers)
        kernels, images = null_filtration(endo, powers)
        kernels, images = tuple(kernels), tuple(images)
        top = top_image(endo, powers)
        isotropic = is_isotropic(omega, top)
        lagrangian = is_lagrangian(omega, top)
        commutes = commutes_with_holonomy(endo, geo.holonomy)

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
