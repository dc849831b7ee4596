import random
import time
from fractions import Fraction

import pytest

from framecalc import (
    AffineSolutionSpace,
    abelian_algebra,
    automorphism_space,
    ce_differential,
    connection_from_entries,
    darboux_flat,
    find_non_symplectic_automorphisms,
    is_flat_family,
    kodaira_thurston,
    lie_derivative_connection,
    structure_constants,
    symplectic_connection_space,
    symplectic_field_space,
    symplectic_form,
    torsion,
    validate_algebra,
    zero_connection,
)
from framecalc.connections import preserves_form
from framecalc.errors import FormError, InconsistencyError, ParameterError
from framecalc.scalars import Scalar
from framecalc.tensors import basis_vector
from helpers import (
    aff_r_squared,
    dense_symplectic_model,
    kt_type_model,
    ref_symplectic_connection_space,
    sample_connection,
)

F = Fraction

KT0 = kodaira_thurston(0)


def test_darboux_dimensions():
    d1 = darboux_flat(1)
    space = symplectic_connection_space(d1.algebra, d1.omega)
    assert space.dimension == 4
    d2 = darboux_flat(2)
    assert symplectic_connection_space(d2.algebra, d2.omega).dimension == 20


def test_kt_space_contains_family_line():
    space = symplectic_connection_space(KT0.algebra, KT0.omega)
    assert space.dimension == 20
    assert space.contains(kodaira_thurston(0).connection)
    assert space.contains(kodaira_thurston(F(1, 6)).connection)
    assert space.contains(kodaira_thurston(-3).connection)
    direction = connection_from_entries(4, {(4, 2, 1): -1, (2, 4, 1): -1, (2, 2, 3): -1})
    homogeneous = AffineSolutionSpace(zero_connection(4), space.homogeneous_basis)
    assert homogeneous.contains(direction)


def test_sampled_points_satisfy_both_systems():
    rng = random.Random(101)
    for model in (darboux_flat(1), darboux_flat(2), KT0):
        space = symplectic_connection_space(model.algebra, model.omega)
        for _ in range(10):
            conn = sample_connection(rng, space)
            assert torsion(model.algebra, conn).is_zero()
            assert preserves_form(model.algebra, conn, model.omega)


def test_solver_deterministic():
    a = symplectic_connection_space(KT0.algebra, KT0.omega)
    b = symplectic_connection_space(kodaira_thurston(0).algebra, kodaira_thurston(0).omega)
    assert a.particular.gamma == b.particular.gamma
    assert [c.gamma for c in a.homogeneous_basis] == [c.gamma for c in b.homogeneous_basis]


def test_point_needs_all_coefficients():
    space = symplectic_connection_space(KT0.algebra, KT0.omega)
    with pytest.raises(Exception):
        space.point([F(1)])


def test_non_closed_form_is_inconsistent():
    heis = validate_algebra(structure_constants(4, {(1, 2, 3): 1}))
    omega = symplectic_form(4, {(1, 2): 1, (3, 4): 1})  # not closed on this algebra
    with pytest.raises(InconsistencyError):
        symplectic_connection_space(heis, omega)


def scaled_brackets(alg, factor):
    """The algebra with every structure constant multiplied by ``factor``;
    on a two-step nilpotent algebra both Jacobi and d omega = 0 survive."""
    entries = {(i, j, k): v * factor for (i, j, k), v in alg.c.nonzero() if i < j}
    return validate_algebra(structure_constants(alg.dim, entries))


def closed_form_models():
    b = Scalar.parameter("b")
    kt = kodaira_thurston()
    alg4, omega4 = dense_symplectic_model(random.Random(31), 4)
    models = [
        ("dense2", *dense_symplectic_model(random.Random(29), 2)),
        ("dense4", alg4, omega4),
        ("dense6", *dense_symplectic_model(random.Random(37), 6)),
        ("kt_type8", *kt_type_model(random.Random(41), 4)),
        ("aff_r_squared", *aff_r_squared()),
        ("kodaira_thurston", kt.algebra, kt.omega),
        ("dense4_qb", scaled_brackets(alg4, b + 1), omega4),
    ]
    return [pytest.param(*model, id=model[0]) for model in models]


@pytest.mark.parametrize("name, alg, omega", closed_form_models())
def test_closed_form_equals_reference_elimination(name, alg, omega):
    space = symplectic_connection_space(alg, omega)
    expected = ref_symplectic_connection_space(alg, omega)
    dim = alg.dim
    assert space.dimension == dim * (dim + 1) * (dim + 2) // 6
    assert space.particular.gamma == expected.particular.gamma
    assert [c.gamma for c in space.homogeneous_basis] == [
        c.gamma for c in expected.homogeneous_basis
    ]
    assert torsion(alg, space.particular).is_zero()
    assert preserves_form(alg, space.particular, omega)
    if name == "dense4_qb":
        assert not space.particular.is_rational()


def test_closed_form_refuses_non_closed_dense_form():
    rng = random.Random(43)
    alg, _ = dense_symplectic_model(rng, 6)
    omega = None
    while omega is None or ce_differential(alg, omega.lower).is_zero():
        entries = {(i, j): rng.randint(-2, 2) for i in range(1, 7) for j in range(i + 1, 7)}
        try:
            omega = symplectic_form(6, {p: v for p, v in entries.items() if v})
        except FormError:
            omega = None
    with pytest.raises(InconsistencyError):
        symplectic_connection_space(alg, omega)
    with pytest.raises(InconsistencyError):
        ref_symplectic_connection_space(alg, omega)


def test_dense_dim8_space_is_fast():
    alg, omega = dense_symplectic_model(random.Random(47), 8)
    start = time.perf_counter()
    space = symplectic_connection_space(alg, omega)
    elapsed = time.perf_counter() - start
    assert space.dimension == 120
    assert elapsed < 1.0


def test_flat_family_examples():
    assert is_flat_family(KT0.algebra, kodaira_thurston().connection)
    assert is_flat_family(abelian_algebra(4), zero_connection(4))
    assert not is_flat_family(
        abelian_algebra(4), connection_from_entries(4, {(2, 2, 4): 1, (4, 4, 2): 1})
    )


def test_automorphism_space_kt_is_everything():
    space = automorphism_space(KT0.algebra, KT0.connection)
    assert space.dim == 4


def test_automorphism_space_abelian_is_everything():
    rng = random.Random(103)
    alg = abelian_algebra(4)
    model = darboux_flat(2)
    conn_space = symplectic_connection_space(alg, model.omega)
    for _ in range(5):
        conn = sample_connection(rng, conn_space)
        assert automorphism_space(alg, conn).dim == 4


def test_automorphism_space_dim2_frozen_oracle():
    # oracle (hand evaluation of both Lie-derivative routes): the space is
    # exactly span{E2} for this model
    alg = validate_algebra(structure_constants(2, {(1, 2, 1): 1}))
    conn = connection_from_entries(2, {(1, 2, 1): 1})
    space = automorphism_space(alg, conn)
    assert space.dim == 1
    assert space.contains(basis_vector(2, 2))
    assert not space.contains(basis_vector(2, 1))
    assert not lie_derivative_connection(alg, conn, basis_vector(2, 1)).is_zero()


def test_automorphism_space_rejects_parameter_connection():
    kt = kodaira_thurston()
    with pytest.raises(ParameterError):
        automorphism_space(kt.algebra, kt.connection)


def test_automorphism_space_members_pass_the_gate():
    rng = random.Random(105)
    space = symplectic_connection_space(KT0.algebra, KT0.omega)
    for _ in range(5):
        conn = sample_connection(rng, space)
        aut = automorphism_space(KT0.algebra, conn)
        for x in aut.basis:
            assert lie_derivative_connection(KT0.algebra, conn, x).is_zero()


def test_symplectic_field_space_examples():
    space = symplectic_field_space(KT0.algebra, KT0.omega)
    assert space.dim == 3
    assert space.contains(basis_vector(4, 1))
    assert space.contains(basis_vector(4, 3))
    assert space.contains(basis_vector(4, 4))
    assert not space.contains(basis_vector(4, 2))
    model = darboux_flat(2)
    assert symplectic_field_space(model.algebra, model.omega).dim == 4


def test_symplectic_field_space_rank_nullity():
    from framecalc.linalg import rank
    from framecalc.moduli import _symplectic_field_rows

    rows = _symplectic_field_rows(KT0.algebra, KT0.omega)
    assert symplectic_field_space(KT0.algebra, KT0.omega).dim == 4 - rank(rows)


def test_find_non_symplectic_kt():
    rep = find_non_symplectic_automorphisms(KT0.algebra, KT0.omega, KT0.connection)
    assert rep.automorphism_dim == 4
    assert rep.symplectic_automorphism_dim == 3
    assert rep.witness is not None
    assert rep.witness[(2,)]


def test_find_non_symplectic_darboux_has_no_witness():
    model = darboux_flat(1)
    rep = find_non_symplectic_automorphisms(model.algebra, model.omega, model.connection)
    assert rep.automorphism_dim == rep.symplectic_automorphism_dim == 2
    assert rep.witness is None


def test_find_non_symplectic_abelian_symmetric_connection():
    rng = random.Random(107)
    model = darboux_flat(2)
    space = symplectic_connection_space(model.algebra, model.omega)
    conn = sample_connection(rng, space)
    rep = find_non_symplectic_automorphisms(model.algebra, model.omega, conn)
    assert rep.automorphism_dim == rep.symplectic_automorphism_dim == 4
    assert rep.witness is None
