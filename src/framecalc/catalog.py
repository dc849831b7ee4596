"""Built-in validated models: the Kodaira-Thurston family and flat Darboux
reference models, plus the worked-example identity pipeline the CLI exposes.

The Kodaira-Thurston nilmanifold enters only through its invariant frame:
one nontrivial bracket [E_2, E_4] = -E_1, the form e^1^e^2 + e^3^e^4, and a
one-parameter family of connections that is torsion-free, form-preserving,
and flat for every parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    Geometry,
    apply_endo,
    is_lagrangian,
    musical_endomorphism,
    nilpotency_index,
    top_image,
    trace_power,
    verify_automorphism,
    _wedge_identity_holds,
)
from .connections import (
    Connection,
    connection_from_entries,
    covariant_derivative_vector,
    divergence,
    lie_derivative_connection,
    require_symplectic,
    torsion,
    zero_connection,
)
from .errors import ShapeError
from .frames import (
    FrameAlgebra,
    SymplecticForm,
    abelian_algebra,
    ce_differential,
    lie_derivative_form,
    structure_constants,
    symplectic_form,
    validate_algebra,
    wedge,
)
from .scalars import Scalar
from .tensors import Tensor, basis_vector

KT_PARAMETER = "b"


@dataclass(frozen=True)
class NamedModel:
    """A validated (algebra, form, optional connection) bundle."""

    name: str
    algebra: FrameAlgebra
    omega: SymplecticForm
    connection: Connection | None
    provenance: str

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _validated(model: NamedModel) -> NamedModel:
    validate_algebra(model.algebra.c)
    if model.connection is not None:
        require_symplectic(model.algebra, model.connection, model.omega)
    return model


def kodaira_thurston(beta=None) -> NamedModel:
    """The four-dimensional nilmanifold model with its connection family.

    ``beta`` may be a rational value or None for the formal parameter.
    The Christoffel table is gamma[4,2,1] = -beta + 2/3,
    gamma[2,4,1] = gamma[2,2,3] = -beta - 1/3, all other entries zero.
    """
    if beta is None:
        b = Scalar.parameter(KT_PARAMETER)
        tag = "symbolic"
    else:
        b = Scalar.rational(Fraction(beta))
        tag = str(Fraction(beta))
    two_thirds = Scalar.rational(Fraction(2, 3))
    third = Scalar.rational(Fraction(1, 3))
    algebra = validate_algebra(structure_constants(4, {(2, 4, 1): -1}))
    omega = symplectic_form(4, {(1, 2): 1, (3, 4): 1})
    conn = connection_from_entries(
        4,
        {
            (4, 2, 1): -b + two_thirds,
            (2, 4, 1): -b - third,
            (2, 2, 3): -b - third,
        },
    )
    return _validated(
        NamedModel(
            name="kodaira_thurston",
            algebra=algebra,
            omega=omega,
            connection=conn,
            provenance=(
                "Kodaira-Thurston nilmanifold, invariant-frame presentation "
                f"(connection parameter {tag}); cf. Tralle & Oprea, Symplectic "
                "Manifolds with no Kaehler Structure, ch. 2"
            ),
        )
    )


def darboux_flat(n: int) -> NamedModel:
    """Flat model: abelian algebra of dimension 2n, pairwise Darboux form,
    zero connection."""
    if n < 1:
        raise ShapeError("darboux_flat takes n >= 1")
    dim = 2 * n
    algebra = abelian_algebra(dim)
    omega = symplectic_form(dim, {(2 * k - 1, 2 * k): 1 for k in range(1, n + 1)})
    return _validated(
        NamedModel(
            name=f"darboux{n}",
            algebra=algebra,
            omega=omega,
            connection=zero_connection(dim),
            provenance=f"flat Darboux model on affine 2*{n}-space, invariant frame",
        )
    )


# -- the worked-example pipeline --------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def example_identity_checks(beta=None) -> list[CheckResult]:
    """Verify every identity of the built-in Kodaira-Thurston family.

    With ``beta=None`` everything runs symbolically and each residual is a
    polynomial in the parameter; otherwise the family is specialized first.
    One :class:`Geometry` of the family serves every check.
    """
    model = kodaira_thurston(beta)
    alg, omega, conn = model.algebra, model.omega, model.connection
    geo = Geometry(alg, omega, conn)
    checks: list[CheckResult] = []

    def record(name: str, ok: bool, detail: str):
        checks.append(CheckResult(name, bool(ok), detail))

    e = [basis_vector(4, i) for i in range(1, 5)]

    from .frames import bracket

    expected_bracket = {(2, 4): -e[0], (4, 2): e[0]}
    ok = True
    for i in range(1, 5):
        for j in range(1, 5):
            got = bracket(alg, e[i - 1], e[j - 1])
            want = expected_bracket.get((i, j), Tensor.zeros(4, ("up",)))
            if got != want:
                ok = False
    record("bracket-table", ok, "[E2,E4] = -E1, all other brackets vanish")

    b = Scalar.parameter(KT_PARAMETER) if beta is None else Scalar.rational(Fraction(beta))
    want = {
        (4, 2): (1, -b + Fraction(2, 3)),
        (2, 4): (1, -b - Fraction(1, 3)),
        (2, 2): (3, -b - Fraction(1, 3)),
    }
    ok = True
    for i in range(1, 5):
        for j in range(1, 5):
            got = covariant_derivative_vector(conn, e[i - 1], e[j - 1])
            if (i, j) in want:
                k, coeff = want[(i, j)]
                if got != basis_vector(4, k).scale(coeff):
                    ok = False
            elif not got.is_zero():
                ok = False
    record("covariant-table", ok, "the three displayed derivatives, all others null")

    t = torsion(alg, conn)
    record("torsion-free", t.is_zero(), f"residual {_first_residual(t)}")

    grad_omega = geo.nabla_omega
    record("preserves-omega", grad_omega.is_zero(), f"residual {_first_residual(grad_omega)}")

    riem = geo.curvature
    record("flat", riem.is_zero(), f"residual {_first_residual(riem)}")

    for i in range(1, 5):
        lx = lie_derivative_connection(alg, conn, e[i - 1], geometry=geo)
        record(
            f"automorphism-E{i}",
            lx.is_zero(),
            f"L_E{i} nabla residual {_first_residual(lx)}",
        )

    d_omega = ce_differential(alg, omega.lower)
    record("omega-closed", d_omega.is_zero(), f"d omega residual {_first_residual(d_omega)}")

    e2_wedge_e4 = wedge(
        Tensor.from_entries(4, ("down",), {(2,): 1}),
        Tensor.from_entries(4, ("down",), {(4,): 1}),
    )
    for i in range(1, 5):
        lo = lie_derivative_form(alg, e[i - 1], omega.lower)
        wanted = -e2_wedge_e4 if i == 2 else Tensor.zeros(4, ("down", "down"))
        record(
            f"lie-omega-E{i}",
            lo == wanted,
            "L_E2 omega = -e2^e4" if i == 2 else f"L_E{i} omega = 0",
        )

    endo = musical_endomorphism(alg, omega, conn, e[1], geometry=geo)
    action_ok = (
        apply_endo(endo, e[1]) == -e[2]
        and apply_endo(endo, e[3]) == e[0]
        and apply_endo(endo, e[0]).is_zero()
        and apply_endo(endo, e[2]).is_zero()
    )
    record("endomorphism-action", action_ok, "A: E2 -> -E3, E4 -> E1, E1,E3 -> 0")

    record("nilpotency-index", nilpotency_index(endo) == 2, "A^2 = 0, A != 0")
    record(
        "trace-powers",
        all(not trace_power(endo, k) for k in range(1, 5)),
        "tr A^k = 0 for k = 1..4",
    )
    top = top_image(endo)
    record(
        "image-lagrangian",
        is_lagrangian(omega, top)
        and top.contains(e[0])
        and top.contains(e[2])
        and top.dim == 2,
        "im A = span{E1, E3}, Lagrangian",
    )

    generators = geo.holonomy
    record("holonomy-trivial", generators == [], f"{len(generators)} generators")

    report = verify_automorphism(alg, omega, conn, e[1], geometry=geo)
    record(
        "E2-not-symplectic",
        report.is_affine_automorphism and not report.is_symplectic,
        "E2 is an affine automorphism with d(E2-flat) != 0",
    )
    report1 = verify_automorphism(alg, omega, conn, e[0], geometry=geo)
    record(
        "E1-symplectic",
        report1.is_affine_automorphism and report1.is_symplectic,
        "E1 is a symplectic affine automorphism",
    )

    div = divergence(alg, conn, e[1])
    record("divergence-E2", not div, f"nabla_p E2^p = {div}")

    record(
        "wedge-identity-E2",
        _wedge_identity_holds(geo, report.d_flat, div),
        "d(E2-flat) ^ Omega_1 = (div E2) Omega_2",
    )

    return checks


def _first_residual(t: Tensor) -> str:
    for s in t.comps:
        if s:
            return str(s)
    return "0"
