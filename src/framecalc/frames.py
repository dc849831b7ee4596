"""Lie algebras by structure constants and exterior calculus on invariant forms.

The manifold model is a frame E_1 .. E_dim with brackets
[E_i, E_j] = sum_k c[i,j,k] E_k.  All tensor fields are invariant: their
frame components are constant, so directional derivatives of components
vanish and every identity below is a finite exact computation.

Index conventions:

* the symplectic form lowers and raises indices preserving horizontal
  position, with X_i = X^p Omega_{pi} and X^i = Omega^{ip} X_p, so that
  Omega^{ip} Omega_{pj} = -delta_j^i;
* the exterior derivative of an invariant k-form is the structure-constant
  alternating sum (d alpha)_{i0..ik} = sum_{p<q} (-1)^(p+q)
  alpha([E_ip, E_iq], ..remaining..);
* the wedge product is normalized so that
  (alpha ^ beta)_{ij} = alpha_i beta_j - alpha_j beta_i in degree (1, 1).

A k-form is determined by its components on increasing index tuples
i_1 < .. < i_k, C(dim, k) of them, while the dense tensor stores dim**k.
The exterior algebra works on that basis: ``_wedge_components`` multiplies
``{increasing tuple: Scalar}`` dicts, and ``_omega_powers`` builds
Omega_0 .. Omega_k from it without a dense top-degree tensor (Omega_n has
one independent component and dim**dim dense ones).  The two top powers
that the wedge identity needs come from Pfaffians of restrictions of the
form instead (``_top_omega_powers``).  The public
:func:`wedge` and :func:`omega_power` validate their inputs and expand the
result to a dense tensor.  Index raising, lowering and the interior
product go through the sparse slot kernel of :mod:`framecalc.tensors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import AlgebraError, FormError, ParameterError, ShapeError
from .scalars import Scalar
from .tensors import (
    DOWN,
    UP,
    Tensor,
    antisymmetric_components,
    antisymmetric_from_components,
    increasing_tuples,
    is_antisymmetric,
    permutation_sign,
    _bilinear,
    _from_offsets,
    _matrix_rows,
    _slot_apply,
    _slot_pair,
)

_ZERO = Scalar.zero()
_ONE = Scalar.one()


@dataclass(frozen=True)
class FrameAlgebra:
    """A Lie algebra presented by validated structure constants.

    ``c`` has valence (down, down, up): c[i, j, k] is the E_k coefficient
    of [E_i, E_j].
    """

    dim: int
    c: Tensor

    def bracket_coefficient(self, i: int, j: int, k: int) -> Scalar:
        return self.c[(i, j, k)]


def structure_constants(dim: int, entries: dict) -> Tensor:
    """Sparse {(i, j, k): value} table, antisymmetrized completion included.

    Only i < j entries are required; the (j, i, k) partner is filled in.
    Explicit entries with i > j are accepted and must not conflict.
    """
    c = {}
    for (i, j, k), v in entries.items():
        s = v if isinstance(v, Scalar) else Scalar.rational(v)
        for key, val in (((i, j, k), s), ((j, i, k), -s)):
            if key in c and c[key] != val:
                raise ShapeError(f"conflicting structure constant at {key}")
            c[key] = val
    return Tensor.from_entries(dim, (DOWN, DOWN, UP), c)


def algebra_violations(c: Tensor) -> list:
    """All antisymmetry and Jacobi violations of a raw constant table.

    Antisymmetry residuals c[i,j,k] + c[j,i,k] are checked for i <= j, and
    the Jacobi sums
    sum_p c[i,j,p] c[p,k,l] + c[j,k,p] c[p,i,l] + c[k,i,p] c[p,j,l] for
    i < j < k; both are built from the nonzero constants only and listed
    in index order.
    """
    entries = c.nonzero()
    antisym = {(min(i, j), max(i, j), k) for (i, j, k), _ in entries}
    bad = []
    for i, j, k in sorted(antisym):
        residual = c[(i, j, k)] + c[(j, i, k)]
        if residual:
            bad.append(("antisymmetry", (i, j, k), residual))
    by_first: dict[int, list] = {}
    for (p, k, l), v in entries:
        by_first.setdefault(p, []).append((k, l, v))
    # product[a, b, k, l] = sum_p c[a,b,p] c[p,k,l]; the Jacobi sum of
    # i < j < k collects it over the cyclic orders (a, b, k) of (i, j, k)
    totals: dict[tuple[int, ...], Scalar] = {}
    for (a, b, p), u in entries:
        for k, l, v in by_first.get(p, ()):
            if len({a, b, k}) < 3 or permutation_sign((a, b, k)) < 0:
                continue
            key = (*sorted((a, b, k)), l)
            prev = totals.get(key)
            totals[key] = u * v if prev is None else prev + u * v
    bad += [("jacobi", key, total) for key, total in sorted(totals.items()) if total]
    return bad


def validate_algebra(c: Tensor) -> FrameAlgebra:
    """Admit a structure-constant table, or raise with the full violation list."""
    if c.valence != (DOWN, DOWN, UP):
        raise ShapeError(f"structure constants need valence (down, down, up), got {c.valence}")
    violations = algebra_violations(c)
    if violations:
        raise AlgebraError(violations)
    return FrameAlgebra(c.dim, c)


def abelian_algebra(dim: int) -> FrameAlgebra:
    return FrameAlgebra(dim, Tensor.zeros(dim, (DOWN, DOWN, UP)))


def bracket(alg: FrameAlgebra, x: Tensor, y: Tensor) -> Tensor:
    """[X, Y]^k = X^i Y^j c[i,j,k]."""
    _require_vector(alg, x)
    _require_vector(alg, y)
    return _bilinear(alg.c, x, y)


def _require_vector(alg: FrameAlgebra, x: Tensor):
    if x.dim != alg.dim or x.valence != (UP,):
        raise ShapeError(f"expected a dim-{alg.dim} vector (valence (up,))")


# -- symplectic form ---------------------------------------------------------


class SymplecticForm:
    """A nondegenerate antisymmetric 2-form with rational components.

    ``lower`` holds Omega_{ij}; ``upper`` holds the dual bivector
    Omega^{ij}, constructed so that Omega^{ip} Omega_{pj} = -delta_j^i.
    """

    __slots__ = ("dim", "lower", "upper", "pfaffian")

    def __init__(self, lower: Tensor):
        if lower.valence != (DOWN, DOWN):
            raise FormError(f"symplectic form needs valence (down, down), got {lower.valence}")
        if lower.dim % 2:
            raise FormError(f"symplectic form needs even dimension, got {lower.dim}")
        if not is_antisymmetric(lower):
            raise FormError("symplectic form must be antisymmetric")
        if not lower.is_rational():
            raise ParameterError("symplectic form components must be rational")
        dim = lower.dim
        mat = [[lower[(i, j)].as_fraction() for j in range(1, dim + 1)] for i in range(1, dim + 1)]
        pf = linalg.pfaffian(mat)
        if not pf:
            raise FormError("symplectic form is degenerate (zero Pfaffian)")
        inv = linalg.invert(mat)
        upper = Tensor.from_function(
            dim, (UP, UP), lambda i, j: Scalar.rational(-inv[i - 1][j - 1])
        )
        self.dim = dim
        self.lower = lower
        self.upper = upper
        self.pfaffian = pf
        self._check_convention()

    def _check_convention(self):
        for i in range(1, self.dim + 1):
            for j in range(1, self.dim + 1):
                total = _ZERO
                for p in range(1, self.dim + 1):
                    total = total + self.upper[(i, p)] * self.lower[(p, j)]
                expected = Scalar.rational(-1) if i == j else _ZERO
                if total != expected:
                    raise FormError(f"dual bivector convention broken at ({i},{j})")

    def pairing(self, x: Tensor, y: Tensor) -> Scalar:
        """Omega(X, Y) = X^i Y^j Omega_{ij}."""
        if x.dim != self.dim or y.dim != self.dim:
            raise ShapeError(f"the form pairs dim-{self.dim} vectors")
        return _bilinear(self.lower, x, y).comps[0]

    def __eq__(self, other):
        if not isinstance(other, SymplecticForm):
            return NotImplemented
        return self.lower == other.lower

    def __repr__(self):
        return f"SymplecticForm(dim={self.dim}, {self.lower.nonzero()!r})"


def symplectic_form(dim: int, entries: dict) -> SymplecticForm:
    """Build from sparse {(i, j): value} with i < j; partners filled in."""
    table = {}
    for (i, j), v in entries.items():
        s = v if isinstance(v, Scalar) else Scalar.rational(v)
        table[(i, j)] = s
        table[(j, i)] = -s
    return SymplecticForm(Tensor.from_entries(dim, (DOWN, DOWN), table))


def lower_index(t: Tensor, slot: int, omega: SymplecticForm) -> Tensor:
    """Lower one up slot: X_i = X^p Omega_{pi}, slot position preserved."""
    _check_slot(t, slot, UP, omega)
    valence = t.valence[:slot] + (DOWN,) + t.valence[slot + 1 :]
    return _from_offsets(t.dim, valence, _slot_apply(t, slot, _matrix_rows(omega.lower), {}))


def raise_index(t: Tensor, slot: int, omega: SymplecticForm) -> Tensor:
    """Raise one down slot: X^i = Omega^{ip} X_p, slot position preserved."""
    _check_slot(t, slot, DOWN, omega)
    valence = t.valence[:slot] + (UP,) + t.valence[slot + 1 :]
    rows = _matrix_rows(omega.upper, transpose=True)
    return _from_offsets(t.dim, valence, _slot_apply(t, slot, rows, {}))


def _check_slot(t: Tensor, slot: int, variance: str, omega: SymplecticForm):
    if t.dim != omega.dim:
        raise ShapeError(f"tensor dimension {t.dim} does not match the form's {omega.dim}")
    if not 0 <= slot < t.rank:
        raise ShapeError(f"slot {slot} out of range for rank {t.rank}")
    if t.valence[slot] != variance:
        raise ShapeError(f"slot {slot} has variance {t.valence[slot]}, expected {variance}")


def musical_flat(x: Tensor, omega: SymplecticForm) -> Tensor:
    """X-flat = Omega(X, .), the symplectically dual one-form."""
    return lower_index(x, 0, omega)


# -- invariant exterior calculus ----------------------------------------------


def _require_form(t: Tensor, minimum_degree: int = 0):
    if any(v != DOWN for v in t.valence):
        raise ShapeError("forms must have all slots down")
    if t.rank < minimum_degree:
        raise ShapeError(f"form degree {t.rank} below required {minimum_degree}")
    if not is_antisymmetric(t):
        raise ShapeError("form is not antisymmetric")


def ce_differential(alg: FrameAlgebra, alpha: Tensor) -> Tensor:
    """Exterior derivative of an invariant form via structure constants.

    Degree 1: (d alpha)_{ij} = -alpha_p c[i,j,p].  Higher degrees follow the
    alternating bracket sum; the result is fully antisymmetric.
    """
    _require_form(alpha)
    if alpha.dim != alg.dim:
        raise ShapeError("form dimension does not match algebra")
    k = alpha.rank
    dim = alg.dim
    if k == 0:
        return Tensor.zeros(dim, (DOWN,))
    if k + 1 > dim:
        return Tensor.zeros(dim, (DOWN,) * (k + 1))
    parts = {}
    for inc in increasing_tuples(dim, k + 1):
        total = _ZERO
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                rest = inc[:p] + inc[p + 1 : q] + inc[q + 1 :]
                inner = _ZERO
                for m in range(1, dim + 1):
                    cm = alg.c[(inc[p], inc[q], m)]
                    if cm:
                        am = alpha[(m,) + rest]
                        if am:
                            inner = inner + cm * am
                if inner:
                    total = total + (-inner if (p + q) % 2 else inner)
        if total:
            parts[inc] = total
    return antisymmetric_from_components(dim, k + 1, (DOWN,) * (k + 1), parts)


def _wedge_components(alpha: dict, beta: dict) -> dict:
    """Wedge of two forms given by their nonzero increasing-tuple components.

    Returns the nonzero components of the product, keyed the same way.
    Performs no validation; :func:`wedge` is the checked dense entry point.
    """
    parts: dict[tuple[int, ...], Scalar] = {}
    for ja, va in alpha.items():
        sa = set(ja)
        for jb, vb in beta.items():
            if sa.intersection(jb):
                continue
            merged = tuple(sorted(ja + jb))
            # parity of merging two increasing runs
            inversions = sum(1 for a in ja for b in jb if b < a)
            term = va * vb
            if inversions % 2:
                term = -term
            prev = parts.get(merged)
            parts[merged] = term if prev is None else prev + term
    return {k: v for k, v in parts.items() if v}


def wedge(alpha: Tensor, beta: Tensor) -> Tensor:
    """Graded-commutative wedge, determinant normalization.

    Rejects products of degree above the frame dimension.
    """
    _require_form(alpha)
    _require_form(beta)
    if alpha.dim != beta.dim:
        raise ShapeError("wedge requires matching dimension")
    dim = alpha.dim
    p, q = alpha.rank, beta.rank
    if p + q > dim:
        raise ShapeError(f"wedge degree {p}+{q} exceeds dimension {dim}")
    if p == 0:
        return beta.scale(alpha[()])
    if q == 0:
        return alpha.scale(beta[()])
    parts = _wedge_components(antisymmetric_components(alpha), antisymmetric_components(beta))
    return antisymmetric_from_components(dim, p + q, (DOWN,) * (p + q), parts)


def _omega_powers(omega: SymplecticForm, k: int) -> list[dict]:
    """[Omega_0, .., Omega_k] as increasing-tuple components, with
    Omega_j = (Omega_{j-1} ^ Omega) / j = Omega^j / j!."""
    form = antisymmetric_components(omega.lower)
    powers = [{(): _ONE}]
    for j in range(1, k + 1):
        inv = Scalar.rational(Fraction(1, j))
        powers.append({idx: v * inv for idx, v in _wedge_components(powers[-1], form).items()})
    return powers


def _top_omega_powers(omega: SymplecticForm) -> tuple[dict, dict]:
    """(Omega_{n-1}, Omega_n) for dim = 2n, as nonzero increasing-tuple
    components, from Pfaffians instead of repeated wedges:
    Omega_k[I] = Pf(omega restricted to I) for |I| = 2k, so Omega_n is
    ``omega.pfaffian`` and Omega_{n-1} takes one Pfaffian for each of the
    C(dim, 2) index sets that leave out a pair."""
    dim = omega.dim
    comps = omega.lower.comps
    mat = [[comps[i * dim + j].as_fraction() for j in range(dim)] for i in range(dim)]
    rest = {}
    for inc in increasing_tuples(dim, dim - 2):
        pf = linalg.pfaffian([[mat[i - 1][j - 1] for j in inc] for i in inc])
        if pf:
            rest[inc] = Scalar.rational(pf)
    return rest, {tuple(range(1, dim + 1)): Scalar.rational(omega.pfaffian)}


def omega_power(omega: SymplecticForm, k: int) -> Tensor:
    """The normalized power Omega_k = Omega^k / k! (Omega_0 is the unit 0-form)."""
    if k < 0 or 2 * k > omega.dim:
        raise ShapeError(f"omega power {k} out of range for dimension {omega.dim}")
    return antisymmetric_from_components(
        omega.dim, 2 * k, (DOWN,) * (2 * k), _omega_powers(omega, k)[k]
    )


def interior_product(x: Tensor, alpha: Tensor) -> Tensor:
    """(iota_X alpha)_{j..} = X^p alpha_{p j..}; degree drops by one."""
    if x.valence != (UP,):
        raise ShapeError("interior product takes a vector in the first argument")
    _require_form(alpha, minimum_degree=1)
    if x.dim != alpha.dim:
        raise ShapeError("interior product requires matching dimension")
    k = alpha.rank
    return _from_offsets(alpha.dim, (DOWN,) * (k - 1), _slot_pair(alpha, 0, x.comps, {}))


def lie_derivative_form(alg: FrameAlgebra, x: Tensor, alpha: Tensor) -> Tensor:
    """Cartan formula on invariant forms: L_X alpha = i_X(d alpha) + d(i_X alpha)."""
    _require_form(alpha)
    _require_vector(alg, x)
    d_alpha = ce_differential(alg, alpha)
    first = interior_product(x, d_alpha)
    if alpha.rank == 0:
        return first
    second = ce_differential(alg, interior_product(x, alpha))
    return first + second
