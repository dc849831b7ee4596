"""Invariant affine connections: torsion, curvature, covariant and Lie derivatives.

A connection is a Christoffel table gamma[i, j, k] with
nabla_{E_i} E_j = sum_k gamma[i, j, k] E_k.  Components of invariant
tensors are constant, so covariant derivatives reduce to Christoffel
contractions and every operation below is exact.

Sign conventions:

* torsion   T[i,j,k] = gamma[i,j,k] - gamma[j,i,k] - c[i,j,k];
* curvature R[i,j,q,k] = sum_p (gamma[i,p,k] gamma[j,q,p]
  - gamma[j,p,k] gamma[i,q,p] - c[i,j,p] gamma[p,q,k]), which agrees with
  twice the antisymmetrized second covariant derivative on vectors for
  torsion-free connections;
* the Lie derivative of a torsion-free connection along X is
  (L_X nabla)[i,j,k] = (nabla nabla X)[i,j,k] + X^p R[p,i,j,k].
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .errors import ConventionFault, PreconditionError, ShapeError
from .frames import FrameAlgebra, SymplecticForm, lower_index
from .scalars import Scalar
from .tensors import DOWN, UP, Tensor, basis_vector, _offset

_ZERO = Scalar.zero()


@dataclass(frozen=True)
class Connection:
    """Christoffel table as a (down, down, up) tensor."""

    gamma: Tensor

    def __post_init__(self):
        if self.gamma.valence != (DOWN, DOWN, UP):
            raise ShapeError(
                f"connection needs valence (down, down, up), got {self.gamma.valence}"
            )

    @property
    def dim(self) -> int:
        return self.gamma.dim

    def substitute(self, value) -> "Connection":
        return Connection(self.gamma.substitute(value))

    def is_rational(self) -> bool:
        return self.gamma.is_rational()


def connection_from_entries(dim: int, entries: dict) -> Connection:
    """Sparse {(i, j, k): value} Christoffel table."""
    return Connection(Tensor.from_entries(dim, (DOWN, DOWN, UP), entries))


def zero_connection(dim: int) -> Connection:
    return Connection(Tensor.zeros(dim, (DOWN, DOWN, UP)))


def covariant_derivative_vector(conn: Connection, x: Tensor, y: Tensor) -> Tensor:
    """(nabla_X Y)^k = X^i Y^j gamma[i,j,k] for invariant fields."""
    dim = conn.dim
    if x.valence != (UP,) or y.valence != (UP,) or x.dim != dim or y.dim != dim:
        raise ShapeError("covariant_derivative_vector takes two vectors of the connection's dim")
    comps = []
    g = conn.gamma
    for k in range(1, dim + 1):
        total = _ZERO
        for i in range(1, dim + 1):
            xi = x[(i,)]
            if not xi:
                continue
            for j in range(1, dim + 1):
                yj = y[(j,)]
                if not yj:
                    continue
                gk = g[(i, j, k)]
                if gk:
                    total = total + xi * yj * gk
        comps.append(total)
    return Tensor(dim, (UP,), tuple(comps))


def covariant_derivative(alg: FrameAlgebra, conn: Connection, t: Tensor) -> Tensor:
    """nabla T with one extra leading down slot.

    (nabla T)_{i ...} = - sum over down slots gamma[i, j_s, p] T[.. p ..]
                        + sum over up slots gamma[i, p, k_s] T[.. p ..].
    """
    if alg.dim != conn.dim or t.dim != conn.dim:
        raise ShapeError("algebra, connection, and tensor dimensions must agree")
    dim = conn.dim
    g = conn.gamma
    rank = t.rank
    comps = []
    src = [0] * rank
    for idx in itertools.product(range(1, dim + 1), repeat=rank + 1):
        a = idx[0]
        rest = idx[1:]
        total = _ZERO
        for s in range(rank):
            src[:] = rest
            if t.valence[s] == DOWN:
                for p in range(1, dim + 1):
                    gp = g[(a, rest[s], p)]
                    if gp:
                        src[s] = p
                        term = t.comps[_offset(dim, src)]
                        if term:
                            total = total - gp * term
            else:
                for p in range(1, dim + 1):
                    gp = g[(a, p, rest[s])]
                    if gp:
                        src[s] = p
                        term = t.comps[_offset(dim, src)]
                        if term:
                            total = total + gp * term
        comps.append(total)
    return Tensor(dim, (DOWN,) + t.valence, tuple(comps))


def torsion(alg: FrameAlgebra, conn: Connection) -> Tensor:
    """T[i,j,k] = gamma[i,j,k] - gamma[j,i,k] - c[i,j,k]."""
    if alg.dim != conn.dim:
        raise ShapeError("algebra and connection dimensions must agree")
    dim = alg.dim
    g = conn.gamma
    return Tensor.from_function(
        dim,
        (DOWN, DOWN, UP),
        lambda i, j, k: g[(i, j, k)] - g[(j, i, k)] - alg.c[(i, j, k)],
    )


def is_torsion_free(alg: FrameAlgebra, conn: Connection) -> bool:
    return torsion(alg, conn).is_zero()


def first_torsion_violation(alg: FrameAlgebra, conn: Connection):
    """First (i, j) pair with i < j carrying nonzero torsion, or None."""
    t = torsion(alg, conn)
    for i in range(1, alg.dim + 1):
        for j in range(i + 1, alg.dim + 1):
            for k in range(1, alg.dim + 1):
                if t[(i, j, k)]:
                    return (i, j)
    return None


def preserves_form(alg: FrameAlgebra, conn: Connection, omega: SymplecticForm) -> bool:
    return covariant_derivative(alg, conn, omega.lower).is_zero()


def require_symplectic(alg: FrameAlgebra, conn: Connection, omega: SymplecticForm):
    """Raise PreconditionError naming the failing identity, if any."""
    _require_no_torsion(first_torsion_violation(alg, conn))
    _require_parallel_form(covariant_derivative(alg, conn, omega.lower))


def _require_no_torsion(pair) -> None:
    """Raise for a torsion verdict from :func:`first_torsion_violation`."""
    if pair is not None:
        raise PreconditionError(f"torsion nonzero at {pair}")


def _require_parallel_form(grad_omega: Tensor) -> None:
    """Raise at the first nonzero component of nabla omega."""
    for idx, value in zip(grad_omega.indices(), grad_omega.comps):
        if value:
            raise PreconditionError(
                f"connection does not preserve the form: nabla-omega nonzero at {idx}"
            )


def curvature(alg: FrameAlgebra, conn: Connection, *, torsion_free: bool | None = None) -> Tensor:
    """Curvature R[i,j,q,k], antisymmetric in (i, j).

    Intended for torsion-free connections; a torsionful input still gets the
    frame-bracket formula but is flagged with a warning.  A caller that
    already knows the torsion verdict passes it as ``torsion_free`` so the
    torsion is not computed again.
    """
    if alg.dim != conn.dim:
        raise ShapeError("algebra and connection dimensions must agree")
    if torsion_free is None:
        torsion_free = is_torsion_free(alg, conn)
    if not torsion_free:
        warnings.warn(
            "curvature of a torsionful connection: the frame formula no longer "
            "matches the antisymmetrized second covariant derivative",
            RuntimeWarning,
            stacklevel=2,
        )
    dim = alg.dim
    g = conn.gamma
    comps = []
    for i, j, q, k in itertools.product(range(1, dim + 1), repeat=4):
        if i == j:
            comps.append(_ZERO)
            continue
        if i > j:
            comps.append(-comps[_offset(dim, (j, i, q, k))])
            continue
        total = _ZERO
        for p in range(1, dim + 1):
            gjq = g[(j, q, p)]
            if gjq:
                gip = g[(i, p, k)]
                if gip:
                    total = total + gip * gjq
            giq = g[(i, q, p)]
            if giq:
                gjp = g[(j, p, k)]
                if gjp:
                    total = total - gjp * giq
            cij = alg.c[(i, j, p)]
            if cij:
                gpq = g[(p, q, k)]
                if gpq:
                    total = total - cij * gpq
        comps.append(total)
    return Tensor(dim, (DOWN, DOWN, DOWN, UP), tuple(comps))


def lie_derivative_connection(
    alg: FrameAlgebra, conn: Connection, x: Tensor, geometry=None
) -> Tensor:
    """(L_X nabla)[i,j,k], computed by two independent routes.

    Route (a) is the index formula (nabla nabla X) + X . R; route (b) works
    frame pair by frame pair.  The two must agree and the result must be
    symmetric in (i, j); a mismatch raises ConventionFault.

    Torsionful connections are refused: the formulas assume torsion-free.
    ``geometry``, a :class:`framecalc.analysis.Geometry` of this algebra
    and connection, supplies the torsion verdict and the curvature.
    """
    if geometry is None:
        _require_no_torsion(first_torsion_violation(alg, conn))
        riem = curvature(alg, conn, torsion_free=True)
    else:
        geometry.for_model(alg, conn).require_torsion_free()
        riem = geometry.curvature
    a = _lie_derivative_given_curvature(alg, conn, x, riem)

    dim = alg.dim
    frames = [basis_vector(dim, i) for i in range(1, dim + 1)]
    for i in range(1, dim + 1):
        ei = frames[i - 1]
        for j in range(1, dim + 1):
            ej = frames[j - 1]
            t1 = covariant_derivative_vector(conn, ei, covariant_derivative_vector(conn, ej, x))
            t2 = covariant_derivative_vector(conn, covariant_derivative_vector(conn, ei, ej), x)
            for k in range(1, dim + 1):
                rx = _ZERO
                for p in range(1, dim + 1):
                    xp = x[(p,)]
                    if xp:
                        rk = riem[(p, i, j, k)]
                        if rk:
                            rx = rx + xp * rk
                b_val = t1[(k,)] - t2[(k,)] + rx
                if b_val != a[(i, j, k)]:
                    raise ConventionFault(
                        f"Lie derivative routes disagree at ({i},{j},{k}): "
                        f"{a[(i, j, k)]} vs {b_val}"
                    )
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(1, dim + 1):
                if a[(i, j, k)] != a[(j, i, k)]:
                    raise ConventionFault(
                        f"Lie derivative of a torsion-free connection must be "
                        f"symmetric; broken at ({i},{j},{k})"
                    )
    return a


def _lie_derivative_given_curvature(
    alg: FrameAlgebra, conn: Connection, x: Tensor, riem: Tensor
) -> Tensor:
    """Index-formula route, reusing a precomputed curvature tensor."""
    ddx = covariant_derivative(alg, conn, covariant_derivative(alg, conn, x))
    dim = alg.dim
    comps = []
    for i, j, k in itertools.product(range(1, dim + 1), repeat=3):
        total = ddx[(i, j, k)]
        for p in range(1, dim + 1):
            xp = x[(p,)]
            if xp:
                rk = riem[(p, i, j, k)]
                if rk:
                    total = total + xp * rk
        comps.append(total)
    return Tensor(dim, (DOWN, DOWN, UP), tuple(comps))


def lower_lie_derivative(lxnabla: Tensor, omega: SymplecticForm) -> Tensor:
    """Lower the final up slot with the form, preserving slot position."""
    if lxnabla.valence != (DOWN, DOWN, UP):
        raise ShapeError("expected a (down, down, up) tensor")
    return lower_index(lxnabla, 2, omega)


def divergence(alg: FrameAlgebra, conn: Connection, x: Tensor) -> Scalar:
    """nabla_p X^p = sum_{p,q} gamma[p,q,p] X^q."""
    if alg.dim != conn.dim or x.dim != conn.dim:
        raise ShapeError("algebra, connection, and vector dimensions must agree")
    total = _ZERO
    g = conn.gamma
    for q in range(1, conn.dim + 1):
        xq = x[(q,)]
        if not xq:
            continue
        for p in range(1, conn.dim + 1):
            gp = g[(p, q, p)]
            if gp:
                total = total + gp * xq
    return total
