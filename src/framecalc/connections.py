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
* the Lie derivative of a connection along X is
  (L_X nabla)(E_i, E_j) = [X, nabla_i E_j] - nabla_[X,E_i] E_j - nabla_i [X, E_j],
  which for a torsion-free connection equals
  (L_X nabla)[i,j,k] = (nabla nabla X)[i,j,k] + X^p R[p,i,j,k]
  (Kobayashi-Nomizu, *Foundations* I, ch. VI).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

from .errors import ConventionFault, PreconditionError, ShapeError
from .frames import FrameAlgebra, SymplecticForm, lower_index
from .scalars import Scalar
from .tensors import (
    DOWN,
    UP,
    Tensor,
    _from_offsets,
    _kernel_rows,
    _slot_apply,
    _slot_pair,
)

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

    @cached_property
    def _christoffel_rows(self):
        """Kernel rows of nabla_{E_a} on one slot, for each frame a (0-based)
        with a nonzero symbol: ``(down, up)``, each a list of ``(a, rows)``.

        On an up slot ``rows[p]`` lists ``(k, gamma[a,p,k])``; on a down slot
        it lists ``(j, -gamma[a,j,p])``.  Built once from the nonzero entries
        of the (immutable) table, each paired with its integer form
        (:func:`framecalc.tensors._kernel_rows`).
        """
        dim = self.dim
        down: dict[int, list] = {}
        up: dict[int, list] = {}
        for off, value in self.gamma._entries():
            a, rest = divmod(off, dim * dim)
            p, k = divmod(rest, dim)
            if a not in up:
                up[a] = [[] for _ in range(dim)]
                down[a] = [[] for _ in range(dim)]
            up[a][p].append((k, value))
            down[a][k].append((p, -value))
        return (
            [(a, _kernel_rows(rows)) for a, rows in sorted(down.items())],
            [(a, _kernel_rows(rows)) for a, rows in sorted(up.items())],
        )


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
    # nabla_{E_a} Y for the frames a that X involves, then paired with X
    along: dict = {}
    for a, rows in conn._christoffel_rows[1]:
        if x.comps[a]:
            _slot_apply(y, 0, rows, along, a * dim)
    grad_y = _from_offsets(dim, (DOWN, UP), along)
    return _from_offsets(dim, (UP,), _slot_pair(grad_y, 0, x.comps, {}))


def covariant_derivative(alg: FrameAlgebra, conn: Connection, t: Tensor) -> Tensor:
    """nabla T with one extra leading down slot.

    (nabla T)_{i ...} = - sum over down slots gamma[i, j_s, p] T[.. p ..]
                        + sum over up slots gamma[i, p, k_s] T[.. p ..].

    Each slot of T goes through the connection's per-frame kernel rows.
    """
    if alg.dim != conn.dim or t.dim != conn.dim:
        raise ShapeError("algebra, connection, and tensor dimensions must agree")
    down, up = conn._christoffel_rows
    size = conn.dim**t.rank
    acc: dict = {}
    for s, variance in enumerate(t.valence):
        for a, rows in down if variance == DOWN else up:
            _slot_apply(t, s, rows, acc, a * size)
    return _from_offsets(conn.dim, (DOWN,) + t.valence, acc)


def torsion(alg: FrameAlgebra, conn: Connection) -> Tensor:
    """T[i,j,k] = gamma[i,j,k] - gamma[j,i,k] - c[i,j,k]."""
    if alg.dim != conn.dim:
        raise ShapeError("algebra and connection dimensions must agree")
    return conn.gamma - conn.gamma.swap_slots(0, 1) - alg.c


def is_torsion_free(alg: FrameAlgebra, conn: Connection) -> bool:
    return torsion(alg, conn).is_zero()


def first_torsion_violation(alg: FrameAlgebra, conn: Connection):
    """First (i, j) pair with i < j carrying nonzero torsion, or None."""
    dim = alg.dim
    for off, _ in torsion(alg, conn)._entries():  # storage order is (i, j, k) order
        i, j = divmod(off // dim, dim)
        if i < j:
            return (i + 1, j + 1)
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
    square, cube = dim * dim, dim**3
    # prod[i, j, q, k] = sum_p gamma[i,p,k] gamma[j,q,p]
    prod: dict = {}
    for i, rows in conn._christoffel_rows[1]:
        _slot_apply(g, 2, rows, prod, i * cube)
    # upper[i, j, q, k] for i < j: prod[i,j,q,k] - prod[j,i,q,k] - c[i,j,p] gamma[p,q,k]
    upper: dict = {}
    for off, value in prod.items():
        i, rest = divmod(off, cube)
        j = rest // square
        if i == j:
            continue
        if i > j:
            off, value = (j * dim + i) * square + rest % square, -value
        prev = upper.get(off)
        upper[off] = value if prev is None else prev + value
    c = alg.c.comps
    for i in range(dim):
        for j in range(i + 1, dim):
            start = (i * dim + j) * dim
            minus_c = [-v for v in c[start : start + dim]]
            if any(minus_c):
                _slot_pair(g, 0, minus_c, upper, start * dim)
    comps = [_ZERO] * dim**4
    for off, value in upper.items():
        i, rest = divmod(off, cube)
        j, qk = divmod(rest, square)
        comps[off] = value
        comps[(j * dim + i) * square + qk] = -value
    return Tensor(dim, (DOWN, DOWN, DOWN, UP), tuple(comps))


def lie_derivative_connection(
    alg: FrameAlgebra, conn: Connection, x: Tensor, geometry=None
) -> Tensor:
    """(L_X nabla)[i,j,k], computed by two independent routes.

    Route (a) is the index formula (nabla nabla X) + X . R, which uses the
    curvature; route (b) is the bracket formula
    (L_X nabla)(E_i, E_j) = [X, nabla_i E_j] - nabla_[X,E_i] E_j - nabla_i [X, E_j],
    which uses only the brackets and the Christoffel symbols.  The two agree
    exactly when the connection is torsion-free and the curvature follows the
    module's sign and slot conventions.  A mismatch, or a result that is not
    symmetric in (i, j), raises ConventionFault.

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
    b = _lie_derivative_brackets(alg, conn, x)
    if b != a:
        off, (i, j, k) = _first_mismatch(a, b)
        raise ConventionFault(
            f"Lie derivative routes disagree at ({i},{j},{k}): {a.comps[off]} vs {b.comps[off]}"
        )
    swapped = a.swap_slots(0, 1)
    if swapped != a:
        # the first mismatch in storage order has i < j
        _, (i, j, k) = _first_mismatch(a, swapped)
        raise ConventionFault(
            f"Lie derivative of a torsion-free connection must be "
            f"symmetric; broken at ({i},{j},{k})"
        )
    return a


def _first_mismatch(a: Tensor, b: Tensor) -> tuple[int, tuple[int, int, int]]:
    """Offset and 1-based (i, j, k) of the first component, in storage order,
    where two different rank-3 tensors disagree."""
    dim = a.dim
    off = next(o for o, (u, v) in enumerate(zip(a.comps, b.comps)) if u != v)
    i, rest = divmod(off, dim * dim)
    j, k = divmod(rest, dim)
    return off, (i + 1, j + 1, k + 1)


def _lie_derivative_brackets(alg: FrameAlgebra, conn: Connection, x: Tensor) -> Tensor:
    """Bracket route: with ad_X E_m = [X, E_m] = sum_r M[m][r] E_r, where
    M[m][r] = X^p c[p,m,r],

        (L_X nabla)[i,j,k] = sum_m gamma[i,j,m] M[m][k]
                             - sum_m M[i][m] gamma[m,j,k]
                             - sum_m M[j][m] gamma[i,m,k],

    one pass of the slot kernel over gamma per term; no curvature."""
    if alg.dim != conn.dim or x.dim != conn.dim:
        raise ShapeError("algebra, connection, and tensor dimensions must agree")
    dim = conn.dim
    ad: list[list] = [[] for _ in range(dim)]
    minus_ad_t: list[list] = [[] for _ in range(dim)]
    for off, value in _slot_pair(alg.c, 0, x.comps, {}).items():
        m, r = divmod(off, dim)
        ad[m].append((r, value))
        minus_ad_t[r].append((m, -value))
    ad, minus_ad_t = _kernel_rows(ad), _kernel_rows(minus_ad_t)
    acc: dict = {}
    _slot_apply(conn.gamma, 2, ad, acc)
    _slot_apply(conn.gamma, 0, minus_ad_t, acc)
    _slot_apply(conn.gamma, 1, minus_ad_t, acc)
    return _from_offsets(dim, (DOWN, DOWN, UP), acc)


def _curvature_along(riem: Tensor, x: Tensor) -> Tensor:
    """(X . R)[i,j,k] = X^p R[p,i,j,k], the curvature term of L_X nabla."""
    if x.dim != riem.dim:
        raise ShapeError("algebra, connection, and tensor dimensions must agree")
    return _from_offsets(x.dim, (DOWN, DOWN, UP), _slot_pair(riem, 0, x.comps, {}))


def _lie_derivative_given_curvature(
    alg: FrameAlgebra, conn: Connection, x: Tensor, riem: Tensor
) -> Tensor:
    """Index-formula route (a), reusing a precomputed curvature tensor."""
    ddx = covariant_derivative(alg, conn, covariant_derivative(alg, conn, x))
    return ddx + _curvature_along(riem, x)


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
    dim = conn.dim
    for off, value in _slot_pair(conn.gamma, 1, x.comps, {}).items():
        p, k = divmod(off, dim)
        if p == k:
            total = total + value
    return total
