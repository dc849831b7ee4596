import random
from fractions import Fraction

import pytest

import framecalc.cli
import framecalc.connections
from framecalc import (
    abelian_algebra,
    ce_differential,
    connection_from_entries,
    covariant_derivative,
    covariant_derivative_vector,
    curvature,
    darboux_flat,
    divergence,
    kodaira_thurston,
    lie_derivative_connection,
    lower_lie_derivative,
    lower_index,
    musical_flat,
    raise_index,
    structure_constants,
    torsion,
    validate_algebra,
    zero_connection,
)
from framecalc.analysis import Geometry, verify_automorphism
from framecalc.connections import (
    Connection,
    _lie_derivative_brackets,
    _lie_derivative_given_curvature,
    is_torsion_free,
    preserves_form,
)
from framecalc.errors import ConventionFault, PreconditionError
from framecalc.moduli import symplectic_connection_space
from framecalc.scalars import Scalar, parse_scalar
from framecalc.specfile import document_from_model, serialize_spec
from framecalc.tensors import DOWN, UP, Tensor, basis_covector, basis_vector
from helpers import (
    aff_r_squared,
    random_torsion_free_connection,
    random_vector,
    sample_connection,
)

F = Fraction

KT = kodaira_thurston()
E = [basis_vector(4, i) for i in range(1, 5)]

AXB = validate_algebra(structure_constants(2, {(1, 2, 1): 1}))
AXB_CONN = connection_from_entries(2, {(1, 2, 1): 1})


def test_covariant_derivative_vector_table():
    assert covariant_derivative_vector(KT.connection, E[3], E[1]) == E[0].scale(
        parse_scalar("-b+2/3")
    )
    assert covariant_derivative_vector(KT.connection, E[1], E[1]) == E[2].scale(
        parse_scalar("-b-1/3")
    )
    for j in range(4):
        assert covariant_derivative_vector(KT.connection, E[0], E[j]).is_zero()
        assert covariant_derivative_vector(KT.connection, E[2], E[j]).is_zero()
        assert covariant_derivative_vector(KT.connection, E[j], E[0]).is_zero()
        assert covariant_derivative_vector(KT.connection, E[j], E[2]).is_zero()


def test_torsion_examples():
    assert torsion(KT.algebra, KT.connection).is_zero()
    assert torsion(abelian_algebra(4), zero_connection(4)).is_zero()
    t = torsion(KT.algebra, zero_connection(4))
    assert t[(2, 4, 1)] == Scalar.one()
    assert t[(4, 2, 1)] == Scalar.rational(-1)


def test_covariant_derivative_examples():
    assert covariant_derivative(KT.algebra, KT.connection, KT.omega.lower).is_zero()
    rng = random.Random(1)
    any_tensor = random_vector(rng, 4).tensor_product(random_vector(rng, 4))
    assert covariant_derivative(abelian_algebra(4), zero_connection(4), any_tensor).is_zero()
    assert covariant_derivative(KT.algebra, KT.connection, basis_covector(4, 2)).is_zero()


def test_covariant_derivative_of_covector_sign():
    # (nabla_i e^k)_j = -gamma[i, j, k]
    grad = covariant_derivative(KT.algebra, KT.connection, basis_covector(4, 1))
    assert grad[(4, 2)] == -parse_scalar("-b+2/3")
    assert grad[(2, 4)] == -parse_scalar("-b-1/3")


def test_curvature_examples():
    assert curvature(KT.algebra, KT.connection).is_zero()
    assert curvature(abelian_algebra(4), zero_connection(4)).is_zero()
    conn = connection_from_entries(4, {(2, 2, 4): 1, (4, 4, 2): 1})
    riem = curvature(abelian_algebra(4), conn)
    assert riem[(4, 2, 2, 2)] == Scalar.one()
    assert riem[(2, 4, 2, 2)] == Scalar.rational(-1)
    assert not riem.is_zero()


def test_curvature_warns_on_torsion():
    with pytest.warns(RuntimeWarning):
        curvature(KT.algebra, zero_connection(4))


def test_curvature_matches_antisymmetrized_second_derivative():
    rng = random.Random(13)
    from helpers import pool_algebras

    for alg in pool_algebras():
        if alg.dim > 4:
            continue
        for _ in range(6):
            conn = random_torsion_free_connection(rng, alg)
            riem = curvature(alg, conn)
            for q in range(1, alg.dim + 1):
                ddq = covariant_derivative(
                    alg, conn, covariant_derivative(alg, conn, basis_vector(alg.dim, q))
                )
                twice_skew = ddq - ddq.swap_slots(0, 1)
                for i in range(1, alg.dim + 1):
                    for j in range(1, alg.dim + 1):
                        for k in range(1, alg.dim + 1):
                            assert twice_skew[(i, j, k)] == riem[(i, j, q, k)]


def test_lie_derivative_connection_kt_family_symbolic():
    rng = random.Random(17)
    for _ in range(5):
        x = random_vector(rng, 4, poly=True)
        assert lie_derivative_connection(KT.algebra, KT.connection, x).is_zero()


def test_lie_derivative_connection_abelian_always_zero():
    rng = random.Random(19)
    alg = abelian_algebra(4)
    for _ in range(5):
        conn = random_torsion_free_connection(rng, alg)
        x = random_vector(rng, 4)
        assert lie_derivative_connection(alg, conn, x).is_zero()


def test_lie_derivative_connection_dim2_frozen_oracle():
    # oracle: both displayed routes and the direct bracket definition give
    # L_{E2} nabla = 0 and (L_{E1} nabla)[2,2,1] = -1 on this model
    F2 = [basis_vector(2, 1), basis_vector(2, 2)]
    assert lie_derivative_connection(AXB, AXB_CONN, F2[1]).is_zero()
    l1 = lie_derivative_connection(AXB, AXB_CONN, F2[0])
    assert l1[(2, 2, 1)] == Scalar.rational(-1)
    assert len(l1.nonzero()) == 1


def test_lie_derivative_connection_refuses_torsion():
    with pytest.raises(PreconditionError) as err:
        lie_derivative_connection(KT.algebra, zero_connection(4), E[0])
    assert "torsion nonzero at (2, 4)" in str(err.value)


def test_lie_derivative_connection_symmetric_in_lower_pair():
    rng = random.Random(23)
    from helpers import pool_algebras

    for alg in pool_algebras():
        if alg.dim > 4:
            continue
        conn = random_torsion_free_connection(rng, alg)
        x = random_vector(rng, alg.dim)
        lx = lie_derivative_connection(alg, conn, x)
        assert lx == lx.swap_slots(0, 1)


def test_lower_lie_derivative_examples():
    rng = random.Random(29)
    x = random_vector(rng, 4, poly=True)
    lowered = lower_lie_derivative(
        lie_derivative_connection(KT.algebra, KT.connection, x), KT.omega
    )
    assert lowered.is_zero()


def test_lower_then_raise_round_trip():
    rng = random.Random(31)
    alg = abelian_algebra(4)
    om = darboux_flat(2).omega
    conn = random_torsion_free_connection(rng, alg)
    x = random_vector(rng, 4)
    lx = lie_derivative_connection(alg, conn, x)
    lowered = lower_lie_derivative(lx, om)
    assert raise_index(lowered, 2, om) == lx


def test_skew_part_is_half_gradient_of_d_flat():
    # on form-preserving torsion-free connections, for any invariant X:
    # (L_X nabla)[i,j,k] - (L_X nabla)[i,k,j] (lowered) = (nabla d(X-flat))[i,j,k]
    rng = random.Random(37)
    model = darboux_flat(2)
    space = symplectic_connection_space(model.algebra, model.omega)
    for _ in range(6):
        conn = sample_connection(rng, space)
        x = random_vector(rng, 4)
        lowered = lower_lie_derivative(
            lie_derivative_connection(model.algebra, conn, x), model.omega
        )
        skew_doubled = lowered - lowered.swap_slots(1, 2)
        d_flat = ce_differential(model.algebra, musical_flat(x, model.omega))
        assert skew_doubled == covariant_derivative(model.algebra, conn, d_flat)


def test_divergence_examples():
    assert divergence(KT.algebra, KT.connection, E[1]) == Scalar.zero()
    rng = random.Random(41)
    assert divergence(abelian_algebra(4), zero_connection(4), random_vector(rng, 4)) == Scalar.zero()
    assert divergence(AXB, AXB_CONN, basis_vector(2, 2)) == Scalar.one()


def test_ricci_identity_on_symplectic_connections():
    # R[i,j,k,l] lowered is symmetric in its last pair when nabla preserves omega
    rng = random.Random(43)
    for model in (darboux_flat(1), darboux_flat(2), KT):
        space = symplectic_connection_space(model.algebra, model.omega)
        for _ in range(4):
            conn = sample_connection(rng, space)
            lowered = lower_index(curvature(model.algebra, conn), 3, model.omega)
            assert lowered == lowered.swap_slots(2, 3)


def test_first_bianchi_identity():
    rng = random.Random(47)
    from helpers import pool_algebras

    for alg in pool_algebras():
        if alg.dim > 4:
            continue
        for _ in range(4):
            conn = random_torsion_free_connection(rng, alg)
            riem = curvature(alg, conn)
            for i in range(1, alg.dim + 1):
                for j in range(1, alg.dim + 1):
                    for q in range(1, alg.dim + 1):
                        for k in range(1, alg.dim + 1):
                            cyc = (
                                riem[(i, j, q, k)]
                                + riem[(j, q, i, k)]
                                + riem[(q, i, j, k)]
                            )
                            assert not cyc


def test_preserves_form_and_torsion_free_predicates():
    assert is_torsion_free(KT.algebra, KT.connection)
    assert preserves_form(KT.algebra, KT.connection, KT.omega)
    assert not is_torsion_free(KT.algebra, zero_connection(4))


# -- the two routes of L_X nabla are live ---------------------------------------------------


def bracket_terms(alg, conn: Connection, x: Tensor) -> list[Tensor]:
    """The three terms of the bracket route as dense index sums, with
    M[m][r] = X^p c[p,m,r]: gamma[i,j,m] M[m][k], -M[i][m] gamma[m,j,k] and
    -M[j][m] gamma[i,m,k]."""
    dim = alg.dim
    zero = Scalar.zero()
    span = range(1, dim + 1)
    m = [[sum((x[(p,)] * alg.c[(p, a, r)] for p in span), zero) for r in span] for a in span]
    g = conn.gamma

    def term(fn):
        return Tensor.from_function(dim, (DOWN, DOWN, UP), lambda i, j, k: sum(fn(i, j, k), zero))

    return [
        term(lambda i, j, k: (g[(i, j, p)] * m[p - 1][k - 1] for p in span)),
        term(lambda i, j, k: (-m[i - 1][p - 1] * g[(p, j, k)] for p in span)),
        term(lambda i, j, k: (-m[j - 1][p - 1] * g[(i, p, k)] for p in span)),
    ]


def nonflat_model():
    """A seeded torsion-free, non-flat connection on aff(R) x aff(R) and a vector."""
    rng = random.Random(73)
    alg, _ = aff_r_squared()
    conn = random_torsion_free_connection(rng, alg)
    assert not curvature(alg, conn).is_zero()
    return alg, conn, random_vector(rng, 4)


def test_bracket_route_is_the_sum_of_its_terms():
    alg, conn, x = nonflat_model()
    terms = bracket_terms(alg, conn, x)
    assert all(not t.is_zero() for t in terms)
    assert _lie_derivative_brackets(alg, conn, x) == terms[0] + terms[1] + terms[2]
    assert lie_derivative_connection(alg, conn, x) == terms[0] + terms[1] + terms[2]


def test_bracket_route_makes_no_frame_pair_calls(monkeypatch):
    def refuse(*args):
        raise AssertionError("covariant_derivative_vector called")

    monkeypatch.setattr(framecalc.connections, "covariant_derivative_vector", refuse)
    alg, conn, x = nonflat_model()
    assert not lie_derivative_connection(alg, conn, x).is_zero()


def negated(original, alg, conn, **kwargs):
    return -original(alg, conn, **kwargs)


def slots_swapped(original, alg, conn, **kwargs):
    return original(alg, Connection(conn.gamma.swap_slots(0, 1)), **kwargs)


@pytest.mark.parametrize("mutant", [negated, slots_swapped])
def test_route_check_catches_curvature_convention_faults(monkeypatch, mutant):
    alg, conn, x = nonflat_model()
    original = framecalc.connections.curvature
    monkeypatch.setattr(
        framecalc.connections, "curvature", lambda alg, conn, **kw: mutant(original, alg, conn, **kw)
    )
    with pytest.raises(ConventionFault, match="routes disagree at"):
        lie_derivative_connection(alg, conn, x)


@pytest.mark.parametrize("dropped", range(3))
def test_route_check_catches_a_dropped_bracket_term(monkeypatch, dropped):
    alg, conn, x = nonflat_model()
    kept = [t for pos, t in enumerate(bracket_terms(alg, conn, x)) if pos != dropped]
    monkeypatch.setattr(
        framecalc.connections, "_lie_derivative_brackets", lambda alg, conn, x: kept[0] + kept[1]
    )
    with pytest.raises(ConventionFault, match="routes disagree at"):
        lie_derivative_connection(alg, conn, x)


def test_symmetry_check_catches_routes_that_agree_on_a_skew_result(monkeypatch):
    alg, conn, x = nonflat_model()
    skew = Tensor.from_entries(4, (DOWN, DOWN, UP), {(1, 2, 3): Scalar.one()})
    for name in ("_lie_derivative_brackets", "_lie_derivative_given_curvature"):
        monkeypatch.setattr(framecalc.connections, name, lambda *args: skew)
    with pytest.raises(ConventionFault, match=r"symmetric; broken at \(1,2,3\)"):
        lie_derivative_connection(alg, conn, x)


# -- a non-unimodular algebra: aff(R) x aff(R) ----------------------------------------------


def test_aff_r_squared_moduli_dimension():
    alg, omega = aff_r_squared()
    assert symplectic_connection_space(alg, omega).dimension == 20


def test_aff_r_squared_routes_divergence_and_wedge_identity():
    alg, omega = aff_r_squared()
    space = symplectic_connection_space(alg, omega)
    rng = random.Random(79)
    nonzero_divergence = 0
    for _ in range(20):
        conn = sample_connection(rng, space)
        geo = Geometry(alg, omega, conn)
        for a in range(1, 5):
            x = basis_vector(4, a)
            lx = _lie_derivative_brackets(alg, conn, x)
            assert lx == _lie_derivative_given_curvature(alg, conn, x, geo.curvature)
            report = verify_automorphism(alg, omega, conn, x, geometry=geo)
            assert report.is_affine_automorphism == lx.is_zero()
            assert report.wedge_identity_holds
            nonzero_divergence += bool(report.divergence)
    assert nonzero_divergence


def test_aff_r_squared_verify_all_invariant(tmp_path, capsys):
    alg, omega = aff_r_squared()
    conn = symplectic_connection_space(alg, omega).particular
    spec = tmp_path / "aff2.spec"
    spec.write_text(serialize_spec(document_from_model(4, None, alg, omega, conn, {})))
    assert framecalc.cli.main(["verify", str(spec), "--all-invariant"]) == 0
    out = capsys.readouterr().out
    # two non-symplectic automorphisms, each with divergence -1
    assert out.count("affine-automorphism: yes") == 2
    assert out.count("symplectic: no") == 2
    assert out.count("divergence: -1") == 2
    assert out.count("wedge-identity: yes") == 2
