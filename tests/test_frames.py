import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecalc import (
    FrameAlgebra,
    abelian_algebra,
    bracket,
    ce_differential,
    interior_product,
    kodaira_thurston,
    lie_derivative_form,
    lower_index,
    musical_flat,
    omega_power,
    raise_index,
    structure_constants,
    symplectic_form,
    validate_algebra,
    wedge,
)
from framecalc.errors import AlgebraError, FormError, ParameterError, ShapeError
from framecalc.frames import SymplecticForm, _omega_powers, _top_omega_powers, algebra_violations
from framecalc.scalars import Scalar
from framecalc.tensors import (
    DOWN,
    UP,
    Tensor,
    basis_covector,
    basis_vector,
    identity_endomorphism,
)
from helpers import (
    random_covector,
    random_form,
    random_vector,
    two_step_nilpotent,
)

F = Fraction

KT = kodaira_thurston()
E = [basis_vector(4, i) for i in range(1, 5)]
e = [basis_covector(4, i) for i in range(1, 5)]


# -- algebra validation ---------------------------------------------------------


def test_kodaira_thurston_table_is_valid():
    alg = validate_algebra(structure_constants(4, {(2, 4, 1): -1}))
    assert alg.c[(2, 4, 1)] == Scalar.rational(-1)
    assert alg.c[(4, 2, 1)] == Scalar.rational(1)


def test_abelian_table_is_valid():
    alg = validate_algebra(structure_constants(4, {}))
    assert alg.c.is_zero()


def test_jacobi_violation_reported_with_indices():
    c = structure_constants(3, {(1, 2, 2): 1, (1, 3, 3): 1, (2, 3, 1): 1})
    with pytest.raises(AlgebraError) as err:
        validate_algebra(c)
    kinds = {v[0] for v in err.value.violations}
    assert kinds == {"jacobi"}
    tuples = {v[1] for v in err.value.violations}
    assert (1, 2, 3, 1) in tuples
    residual = next(v[2] for v in err.value.violations if v[1] == (1, 2, 3, 1))
    assert residual == Scalar.rational(2)


def test_antisymmetry_violation_reported():
    raw = Tensor.from_entries(2, (DOWN, DOWN, UP), {(1, 2, 1): 1, (2, 1, 1): 1})
    with pytest.raises(AlgebraError) as err:
        validate_algebra(raw)
    assert ("antisymmetry", (1, 2, 1), Scalar.rational(2)) in err.value.violations


# -- brackets --------------------------------------------------------------------


def test_bracket_kt_table():
    assert bracket(KT.algebra, E[1], E[3]) == -E[0]
    assert bracket(KT.algebra, E[3], E[1]) == E[0]
    for j in range(4):
        assert bracket(KT.algebra, E[0], E[j]).is_zero()


def test_bracket_bilinear():
    rng = random.Random(21)
    alg = KT.algebra
    for _ in range(20):
        a = Scalar.rational(F(rng.randint(-3, 3), rng.randint(1, 3)))
        x = random_vector(rng, 4)
        y = random_vector(rng, 4)
        z = random_vector(rng, 4)
        lhs = bracket(alg, x.scale(a) + y, z)
        rhs = bracket(alg, x, z).scale(a) + bracket(alg, y, z)
        assert lhs == rhs


# -- the symplectic form ----------------------------------------------------------


def test_form_convention_identity():
    om = KT.omega
    prod = om.upper.tensor_product(om.lower).contract(1, 2)
    minus_delta = identity_endomorphism(4).permute_slots([1, 0]).scale(-1)
    assert prod == minus_delta
    assert om.upper[(1, 2)] == Scalar.one()
    assert om.upper[(3, 4)] == Scalar.one()


def test_form_rejects_degenerate():
    with pytest.raises(FormError):
        symplectic_form(4, {(1, 2): 1})  # rank 2 only


def test_form_rejects_odd_dimension():
    with pytest.raises(FormError):
        SymplecticForm(Tensor.zeros(3, (DOWN, DOWN)))


def test_form_rejects_parameter_entries():
    b = Scalar.parameter("b")
    with pytest.raises(ParameterError):
        symplectic_form(2, {(1, 2): b})


def test_form_pfaffian_value():
    assert KT.omega.pfaffian == 1
    shuffled = symplectic_form(4, {(1, 3): 2, (2, 4): 1})
    assert shuffled.pfaffian == -2


# -- musical maps ------------------------------------------------------------------


def test_lower_e2_is_minus_e1():
    low = musical_flat(E[1], KT.omega)
    assert low == Tensor.from_entries(4, (DOWN,), {(1,): -1})
    assert tuple(s.render() for s in low.comps) == ("-1", "0", "0", "0")


def test_raise_lower_round_trips():
    rng = random.Random(31)
    om = KT.omega
    for _ in range(25):
        x = random_vector(rng, 4)
        assert raise_index(lower_index(x, 0, om), 0, om) == x
        a = random_covector(rng, 4)
        assert lower_index(raise_index(a, 0, om), 0, om) == a


def test_raise_lower_higher_rank_slots():
    rng = random.Random(32)
    om = KT.omega
    t = random_form(rng, 4, 2)
    assert lower_index(raise_index(t, 1, om), 1, om) == t
    assert lower_index(raise_index(t, 0, om), 0, om) == t
    with pytest.raises(ShapeError):
        raise_index(t, 2, om)  # slot out of range
    with pytest.raises(ShapeError):
        lower_index(t, 0, om)  # slot already down


# -- exterior calculus ---------------------------------------------------------------


def test_ce_differential_degree_one():
    d_e1 = ce_differential(KT.algebra, e[0])
    assert d_e1 == wedge(e[1], e[3])
    assert ce_differential(KT.algebra, e[1]).is_zero()
    assert ce_differential(KT.algebra, e[2]).is_zero()
    assert ce_differential(KT.algebra, e[3]).is_zero()


def test_omega_is_closed():
    assert ce_differential(KT.algebra, KT.omega.lower).is_zero()


def test_d_squared_zero_on_valid_algebras():
    rng = random.Random(41)
    algebras = [KT.algebra, abelian_algebra(4), two_step_nilpotent(rng, 4), two_step_nilpotent(rng, 6)]
    for alg in algebras:
        for degree in (1, 2):
            for _ in range(5):
                alpha = random_form(rng, alg.dim, degree)
                dd = ce_differential(alg, ce_differential(alg, alpha))
                assert dd.is_zero()


def test_seeded_jacobi_violation_breaks_d_squared():
    c = structure_constants(3, {(1, 2, 2): 1, (1, 3, 3): 1, (2, 3, 1): 1})
    with pytest.raises(AlgebraError):
        validate_algebra(c)
    broken = FrameAlgebra(3, c)  # bypass validation deliberately
    witnesses = [
        m for m in range(1, 4)
        if not ce_differential(broken, ce_differential(broken, basis_covector(3, m))).is_zero()
    ]
    assert witnesses, "a Jacobi violation must break d o d on some basis one-form"
    dd_e1 = ce_differential(broken, ce_differential(broken, basis_covector(3, 1)))
    assert dd_e1[(1, 2, 3)] == Scalar.rational(2)


def test_wedge_normalization_degree_one_one():
    rng = random.Random(51)
    a = random_covector(rng, 4)
    b = random_covector(rng, 4)
    w = wedge(a, b)
    for i in range(1, 5):
        for j in range(1, 5):
            assert w[(i, j)] == a[(i,)] * b[(j,)] - a[(j,)] * b[(i,)]


def test_omega_powers():
    om = KT.omega
    top = omega_power(om, 2)
    expected = wedge(wedge(e[0], e[1]), wedge(e[2], e[3]))
    assert top == expected
    assert top[(1, 2, 3, 4)] == Scalar.one()
    unit = omega_power(om, 0)
    assert unit.rank == 0 and unit[()] == Scalar.one()
    assert omega_power(om, 1) == om.lower


def dense_symplectic_form(rng: random.Random, dim: int) -> SymplecticForm:
    """A form with every i < j entry drawn from [-3, 3]/[1, 3], redrawn until
    nondegenerate."""
    while True:
        entries = {}
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if v:
                    entries[(i, j)] = v
        try:
            return symplectic_form(dim, entries)
        except FormError:
            continue


def test_top_omega_powers_from_pfaffians_match_repeated_wedges():
    rng = random.Random(67)
    for dim in (2, 4, 6, 8, 10):
        darboux = symplectic_form(dim, {(2 * i - 1, 2 * i): 1 for i in range(1, dim // 2 + 1)})
        for om in (dense_symplectic_form(rng, dim), darboux):
            powers = _omega_powers(om, dim // 2)
            assert _top_omega_powers(om) == (powers[-2], powers[-1])
    one = Scalar.one()
    assert _top_omega_powers(KT.omega) == ({(1, 2): one, (3, 4): one}, {(1, 2, 3, 4): one})


def test_top_omega_powers_of_a_dense_dim16_form_are_fast():
    om = dense_symplectic_form(random.Random(71), 16)
    start = time.perf_counter()
    rest, top = _top_omega_powers(om)
    elapsed = time.perf_counter() - start
    assert top == {tuple(range(1, 17)): Scalar.rational(om.pfaffian)}
    # Pfaffian expansion along the first row: Pf = sum_j (-1)^j w_1j Pf(omega without 1, j)
    expansion = Scalar.zero()
    for j in range(2, 17):
        minor = rest.get(tuple(i for i in range(1, 17) if i not in (1, j)), Scalar.zero())
        term = om.lower[(1, j)] * minor
        expansion = expansion + (term if j % 2 == 0 else -term)
    assert expansion == Scalar.rational(om.pfaffian)
    assert len(rest) > 100
    assert elapsed < 1.0, f"the top powers of a dense dim-16 form took {elapsed:.2f} s"


def test_wedge_graded_commutativity():
    rng = random.Random(61)
    for p, q in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 1)):
        a = random_form(rng, 4, p)
        b = random_form(rng, 4, q)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associative():
    rng = random.Random(63)
    for _ in range(10):
        a = random_covector(rng, 4)
        b = random_covector(rng, 4)
        c = random_covector(rng, 4)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_differential_is_a_graded_derivation_of_wedge():
    rng = random.Random(64)
    for alg in (KT.algebra, two_step_nilpotent(rng, 4), two_step_nilpotent(rng, 6)):
        for _ in range(5):
            a = random_covector(rng, alg.dim)
            b = random_covector(rng, alg.dim)
            c = random_form(rng, alg.dim, 2)
            lhs = ce_differential(alg, wedge(a, b))
            rhs = wedge(ce_differential(alg, a), b) - wedge(a, ce_differential(alg, b))
            assert lhs == rhs
            lhs = ce_differential(alg, wedge(a, c))
            rhs = wedge(ce_differential(alg, a), c) - wedge(a, ce_differential(alg, c))
            assert lhs == rhs


def test_wedge_degree_overflow_rejected():
    rng = random.Random(62)
    a = random_form(rng, 4, 3)
    b = random_form(rng, 4, 2)
    with pytest.raises(ShapeError):
        wedge(a, b)


def test_interior_product_examples():
    got = interior_product(E[1], KT.omega.lower)
    assert got == Tensor.from_entries(4, (DOWN,), {(1,): -1})
    with pytest.raises(ShapeError):
        interior_product(E[0], omega_power(KT.omega, 0))


def test_form_operations_reject_non_antisymmetric_input():
    lopsided = Tensor.from_entries(4, (DOWN, DOWN), {(1, 2): 1, (2, 1): 1})
    with pytest.raises(ShapeError):
        ce_differential(KT.algebra, lopsided)
    with pytest.raises(ShapeError):
        wedge(lopsided, e[0])
    with pytest.raises(ShapeError):
        interior_product(E[0], lopsided)
    mixed = Tensor.from_entries(4, (DOWN, UP), {(1, 2): 1})
    with pytest.raises(ShapeError):
        ce_differential(KT.algebra, mixed)


def test_interior_product_squares_to_zero():
    rng = random.Random(71)
    for _ in range(10):
        x = random_vector(rng, 4)
        alpha = random_form(rng, 4, 3)
        assert interior_product(x, interior_product(x, alpha)).is_zero()


def test_interior_product_matches_musical_flat():
    rng = random.Random(72)
    for _ in range(10):
        x = random_vector(rng, 4)
        assert interior_product(x, KT.omega.lower) == musical_flat(x, KT.omega)


def test_lie_derivative_form_examples():
    l2 = lie_derivative_form(KT.algebra, E[1], KT.omega.lower)
    assert l2 == wedge(e[1], e[3]).scale(-1)
    assert lie_derivative_form(KT.algebra, E[0], KT.omega.lower).is_zero()


def test_lie_derivative_commutes_with_d():
    rng = random.Random(81)
    for alg in (KT.algebra, two_step_nilpotent(rng, 4)):
        for _ in range(8):
            x = random_vector(rng, 4)
            alpha = random_form(rng, 4, 1)
            lhs = lie_derivative_form(alg, x, ce_differential(alg, alpha))
            rhs = ce_differential(alg, lie_derivative_form(alg, x, alpha))
            assert lhs == rhs


# -- the sparse Jacobi check against the dense loop --------------------------------------------


def dense_algebra_violations(c: Tensor) -> list:
    """The dense check the package ran before: every index, read through
    ``Tensor.__getitem__``."""
    dim = c.dim
    bad = []
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            for k in range(1, dim + 1):
                residual = c[(i, j, k)] + c[(j, i, k)]
                if residual:
                    bad.append(("antisymmetry", (i, j, k), residual))
    for i, j, k in itertools.combinations(range(1, dim + 1), 3):
        for l in range(1, dim + 1):
            total = Scalar.zero()
            for p in range(1, dim + 1):
                total = total + (
                    c[(i, j, p)] * c[(p, k, l)]
                    + c[(j, k, p)] * c[(p, i, l)]
                    + c[(k, i, p)] * c[(p, j, l)]
                )
            if total:
                bad.append(("jacobi", (i, j, k, l), total))
    return bad


@st.composite
def constant_tables(draw):
    """Antisymmetric tables (valid or breaking Jacobi) and raw ones that break
    antisymmetry too, with rational or Q[b] entries."""
    dim = draw(st.integers(1, 5))
    b = Scalar.parameter("b")
    value = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)).map(Scalar.rational)
    if draw(st.booleans()):
        value = st.one_of(value, value.map(lambda v: v * b))
    cells = list(itertools.product(range(1, dim + 1), repeat=3))
    entries = draw(st.dictionaries(st.sampled_from(cells), value, max_size=12))
    if draw(st.booleans()):
        entries = {(i, j, k): v for (i, j, k), v in entries.items() if i < j}
        return structure_constants(dim, entries)
    return Tensor.from_entries(dim, (DOWN, DOWN, UP), entries)


@settings(max_examples=60, deadline=None)
@given(constant_tables())
def test_sparse_algebra_violations_match_dense_loop(c):
    assert algebra_violations(c) == dense_algebra_violations(c)


def test_algebra_violations_on_a_valid_and_a_broken_table():
    kt = kodaira_thurston().algebra.c
    assert algebra_violations(kt) == dense_algebra_violations(kt) == []
    broken = structure_constants(3, {(1, 2, 3): 1, (1, 3, 1): 1, (2, 3, 2): 1})
    found = algebra_violations(broken)
    assert found == dense_algebra_violations(broken)
    assert found and {kind for kind, _, _ in found} == {"jacobi"}
