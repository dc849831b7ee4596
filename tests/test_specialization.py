"""Specialization commutes with the geometry.

For a Q[b] family, computing a quantity over Q[b] and then substituting
b = beta must give what substituting first and computing over Q gives.
Over Q[b] every contraction runs the ``Scalar`` loop of the slot kernel;
over Q it runs the integer loop, so the two sides share no arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from framecalc import (
    Connection,
    automorphism_space,
    kodaira_thurston,
    symplectic_connection_space,
    verify_automorphism,
)
from framecalc.analysis import (
    Geometry,
    commutes_with_holonomy,
    is_isotropic,
    is_lagrangian,
    musical_endomorphism,
    nilpotency_index,
    null_filtration,
    top_image,
    trace_power,
)
from framecalc.connections import (
    covariant_derivative,
    curvature,
    divergence,
    lie_derivative_connection,
)
from framecalc.frames import ce_differential, musical_flat, omega_power, wedge
from framecalc.scalars import Scalar
from framecalc.tensors import basis_vector, vector

from helpers import random_symplectic_model

# 2/3 zeroes one Christoffel symbol of the Kodaira-Thurston family
BETAS = (Fraction(0), Fraction(2, 3), Fraction(-5, 7), Fraction(3))


def qb_family(rng: random.Random, space) -> Connection:
    """particular + b*B1 + b^2*B2 + 1/2*B3 over seeded basis directions."""
    b = Scalar.parameter("b")
    gamma = space.particular.gamma
    for factor in (b, b * b, Scalar.rational(Fraction(1, 2))):
        for pos in rng.sample(range(space.dimension), 2):
            gamma = gamma + space.homogeneous_basis[pos].gamma.scale(factor * rng.choice((-1, 1)))
    return Connection(gamma)


def families():
    kt = kodaira_thurston()
    out = [(kt.algebra, kt.omega, kt.connection)]
    for seed in (61, 62):
        rng = random.Random(seed)
        alg, omega = random_symplectic_model(rng, 4)
        out.append((alg, omega, qb_family(rng, symplectic_connection_space(alg, omega))))
    return out


def test_specialization_commutes_with_the_verdict_chain():
    verdicts = set()
    for alg, omega, conn in families():
        assert not conn.is_rational()
        dim = alg.dim
        n = dim // 2
        riem = curvature(alg, conn, torsion_free=True)
        grad_omega = covariant_derivative(alg, conn, omega.lower)
        rest, top = omega_power(omega, n - 1), omega_power(omega, n)
        at_first = conn.substitute(BETAS[1])
        vectors = [basis_vector(dim, 1), vector(dim, [1, -2, 0, 3])]
        vectors += automorphism_space(alg, at_first).basis
        for x in vectors:
            grad_x = covariant_derivative(alg, conn, x)
            lie = lie_derivative_connection(alg, conn, x)
            d_flat = ce_differential(alg, musical_flat(x, omega))
            div = divergence(alg, conn, x)
            grad_d_flat = covariant_derivative(alg, conn, d_flat)
            wedge_residual = wedge(d_flat, rest) - top.scale(div)
            endo = musical_endomorphism(alg, omega, conn, x)
            for beta in BETAS:
                at = conn.substitute(beta)
                geo = Geometry(alg, omega, at)
                assert curvature(alg, at, torsion_free=True) == riem.substitute(beta)
                assert covariant_derivative(alg, at, omega.lower) == grad_omega.substitute(beta)
                assert covariant_derivative(alg, at, x) == grad_x.substitute(beta)
                assert lie_derivative_connection(alg, at, x) == lie.substitute(beta)

                rep = verify_automorphism(alg, omega, conn, x, beta=beta, geometry=geo)
                verdicts.add(rep.is_affine_automorphism)
                assert rep.is_affine_automorphism == lie.substitute(beta).is_zero()
                assert rep.d_flat == d_flat
                assert rep.is_symplectic == d_flat.is_zero()
                assert rep.divergence == div.substitute(beta)
                assert rep.d_flat_parallel == grad_d_flat.substitute(beta).is_zero()
                assert rep.wedge_identity_holds == wedge_residual.substitute(beta).is_zero()
                if not rep.is_affine_automorphism:
                    assert rep.endomorphism is None and rep.holonomy_commutes is None
                    continue
                endo_at = endo.substitute(beta)
                assert rep.endomorphism == endo_at
                assert rep.trace_powers == tuple(
                    trace_power(endo, k).substitute(beta) for k in range(1, dim + 1)
                )
                assert rep.nilpotency_index == nilpotency_index(endo_at)
                kernels, images = null_filtration(endo_at)
                assert rep.kernel_chain == tuple(kernels) and rep.image_chain == tuple(images)
                top_at = top_image(endo_at)
                assert rep.image_isotropic == is_isotropic(omega, top_at)
                assert rep.image_lagrangian == is_lagrangian(omega, top_at)
                assert rep.holonomy_commutes == commutes_with_holonomy(endo_at, geo.holonomy)
    assert verdicts == {True, False}
