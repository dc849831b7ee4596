import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecalc.errors import ShapeError
from framecalc.scalars import Scalar
from framecalc.tensors import (
    DOWN,
    UP,
    Tensor,
    _offset,
    antisymmetric_from_components,
    antisymmetrize,
    basis_covector,
    basis_vector,
    identity_endomorphism,
    increasing_tuples,
    is_antisymmetric,
    permutation_sign,
    vector,
)
from helpers import random_covector, random_form, random_vector

F = Fraction


def test_from_entries_and_getitem_are_one_based():
    t = Tensor.from_entries(3, (DOWN, UP), {(1, 3): 5})
    assert t[(1, 3)] == Scalar.rational(5)
    assert t[(3, 1)] == Scalar.zero()
    with pytest.raises(ShapeError):
        t[(0, 1)]
    with pytest.raises(ShapeError):
        t[(4, 1)]


def test_shape_validation():
    with pytest.raises(ShapeError):
        Tensor(2, (UP,), (Scalar.zero(),))
    with pytest.raises(ShapeError):
        Tensor.from_entries(2, ("sideways",), {})


def test_contract_identity_gives_dimension():
    for dim in (2, 3, 4, 6):
        assert identity_endomorphism(dim).contract(0, 1)[()] == Scalar.rational(dim)


def test_contract_pairing():
    rng = random.Random(2)
    for _ in range(10):
        x = random_vector(rng, 4)
        alpha = random_covector(rng, 4)
        paired = x.tensor_product(alpha).contract(0, 1)[()]
        expected = Scalar.zero()
        for i in range(1, 5):
            expected = expected + x[(i,)] * alpha[(i,)]
        assert paired == expected


def test_contract_requires_opposite_variance():
    t = identity_endomorphism(2).tensor_product(identity_endomorphism(2))
    with pytest.raises(ShapeError):
        t.contract(0, 2)  # both down
    with pytest.raises(ShapeError):
        t.contract(1, 1)


def test_swap_and_permute_slots():
    t = Tensor.from_entries(2, (DOWN, DOWN), {(1, 2): 7})
    s = t.swap_slots(0, 1)
    assert s[(2, 1)] == Scalar.rational(7)
    assert s[(1, 2)] == Scalar.zero()
    assert t.permute_slots([1, 0]) == s


def test_permutation_sign():
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1, 3)) == -1
    assert permutation_sign((3, 1, 2)) == 1


def test_antisymmetrize_is_a_projection():
    rng = random.Random(9)
    for dim, rank in ((2, 2), (3, 2), (4, 3)):
        comps = tuple(
            Scalar.rational(F(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(dim**rank)
        )
        t = Tensor(dim, (DOWN,) * rank, comps)
        once = antisymmetrize(t)
        assert is_antisymmetric(once)
        assert antisymmetrize(once) == once


def test_antisymmetrize_normalization_degree_two():
    t = Tensor.from_entries(2, (DOWN, DOWN), {(1, 2): 1})
    out = antisymmetrize(t)
    assert out[(1, 2)] == Scalar.rational(F(1, 2))
    assert out[(2, 1)] == Scalar.rational(F(-1, 2))


def test_is_antisymmetric_detects_failures():
    rng = random.Random(4)
    good = random_form(rng, 4, 2)
    assert is_antisymmetric(good)
    bad = Tensor.from_entries(4, (DOWN, DOWN), {(1, 2): 1, (2, 1): 1})
    assert not is_antisymmetric(bad)
    diag = Tensor.from_entries(4, (DOWN, DOWN), {(3, 3): 1})
    assert not is_antisymmetric(diag)


def ref_is_antisymmetric(t: Tensor) -> bool:
    """The dense check over all dim**k indices, as the package once ran it."""
    k = t.rank
    if k <= 1:
        return True
    dim = t.dim
    for idx, value in zip(t.indices(), t.comps):
        ordered = tuple(sorted(idx))
        if len(set(idx)) < k:
            if value:
                return False
            continue
        ref = t.comps[_offset(dim, ordered)]
        expected = ref if permutation_sign(idx) == 1 else -ref
        if value != expected:
            return False
    return True


B = Scalar.parameter("b")
component_st = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=2).map(Scalar.rational),
    st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
        st.integers(min_value=-2, max_value=2),
    ).map(lambda p: Scalar.rational(p[0]) + B * p[1]),
)


@st.composite
def nearly_antisymmetric(draw):
    """An antisymmetric tensor, possibly with one entry zeroed, negated,
    moved onto a repeated index or replaced."""
    dim = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=2, max_value=min(4, dim + 1)))
    tuples = list(increasing_tuples(dim, k))
    parts = {}
    if tuples:
        chosen = draw(st.lists(st.sampled_from(tuples), max_size=4, unique=True))
        parts = {inc: draw(component_st) for inc in chosen}
    comps = list(antisymmetric_from_components(dim, k, (DOWN,) * k, parts).comps)
    every = list(itertools.product(range(1, dim + 1), repeat=k))
    mutation = draw(st.sampled_from(["none", "zero", "negate", "repeated", "replace"]))
    nonzero = [idx for idx in every if comps[_offset(dim, idx)]]
    if mutation in ("zero", "negate") and nonzero:
        off = _offset(dim, draw(st.sampled_from(nonzero)))
        comps[off] = Scalar.zero() if mutation == "zero" else -comps[off]
    elif mutation == "repeated":
        repeated = [idx for idx in every if len(set(idx)) < k]
        comps[_offset(dim, draw(st.sampled_from(repeated)))] = draw(component_st)
    elif mutation == "replace":
        comps[_offset(dim, draw(st.sampled_from(every)))] = draw(component_st)
    return Tensor(dim, (DOWN,) * k, tuple(comps))


@given(nearly_antisymmetric())
@settings(max_examples=150, deadline=None)
def test_is_antisymmetric_matches_dense_reference(t):
    assert is_antisymmetric(t) == ref_is_antisymmetric(t)


def test_is_antisymmetric_counts_a_missing_permutation():
    t = antisymmetric_from_components(3, 3, (DOWN,) * 3, {(1, 2, 3): Scalar.one()})
    comps = list(t.comps)
    comps[_offset(3, (3, 2, 1))] = Scalar.zero()
    broken = Tensor(3, (DOWN,) * 3, tuple(comps))
    assert is_antisymmetric(t) and ref_is_antisymmetric(t)
    assert not is_antisymmetric(broken) and not ref_is_antisymmetric(broken)


def test_substitute_maps_components():
    b = Scalar.parameter("b")
    t = Tensor.from_entries(2, (UP,), {(1,): b + 1, (2,): b * b})
    at2 = t.substitute(2)
    assert at2 == vector(2, [3, 4])


def test_vector_and_basis_helpers():
    assert basis_vector(3, 2) == vector(3, [0, 1, 0])
    assert basis_covector(2, 1)[(1,)] == Scalar.one()
    with pytest.raises(ShapeError):
        vector(3, [1, 2])
