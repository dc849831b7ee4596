from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecalc.errors import ParameterError, ScalarParseError
from framecalc.scalars import MAX_DEGREE, Scalar, parse_scalar

F = Fraction

fractions_st = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=5)


@st.composite
def scalars_st(draw):
    table = draw(st.dictionaries(st.integers(min_value=0, max_value=4), fractions_st, max_size=4))
    table = {d: c for d, c in table.items() if c}
    if table and max(table) > 0:
        return Scalar._make(table, "b")
    return Scalar._make(table, None)


def test_parse_rational():
    assert parse_scalar("-1/3").as_fraction() == F(-1, 3)
    assert parse_scalar("0").as_fraction() == 0
    assert parse_scalar("12/8").as_fraction() == F(3, 2)


def test_parse_linear_polynomial():
    s = parse_scalar("-b+2/3")
    assert s.coefficient(1) == -1
    assert s.coefficient(0) == F(2, 3)
    assert s.param == "b"


def test_parse_monomial():
    s = parse_scalar("b^2")
    assert s.coefficient(2) == 1
    assert s.degree == 2


def test_parse_coefficient_monomial():
    s = parse_scalar("5/7*b^3")
    assert s.coefficient(3) == F(5, 7)


def test_parse_cancellation_gives_zero():
    assert not parse_scalar("b-b")
    assert parse_scalar("b-b").param is None


@pytest.mark.parametrize(
    "text, offset",
    [
        ("", 0),
        ("1 + b", 1),
        ("b^", 2),
        ("1//2", 2),
        ("*b", 0),
        ("1+", 2),
        ("-", 1),
        ("b^-2", 2),
        ("B", 0),
        ("1\u00b2", 1),  # superscript two
        ("b^\u00b9", 2),  # superscript one
        ("\u0663", 0),  # Arabic-Indic three
        ("b\u00b2", 1),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, offset",
    [("9" * 5000, 0), ("-" + "9" * 5000, 1), ("1/" + "7" * 5000, 2), ("b^" + "3" * 5000, 2)],
    ids=["numerator", "negative", "denominator", "exponent"],
)
def test_parse_overlong_integer_literal(text, offset):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text)
    assert err.value.offset == offset
    assert "5000 digits" in str(err.value)


@pytest.mark.parametrize(
    "text, offset",
    [(f"b^{MAX_DEGREE + 1}", 2), ("b^100000000", 2), ("1-3*b^100000000", 6), ("-b^1001+1", 3)],
)
def test_parse_exponent_above_max_degree(text, offset):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text)
    assert err.value.offset == offset
    assert f"maximum degree {MAX_DEGREE}" in str(err.value)


def test_parse_exponent_at_max_degree():
    s = parse_scalar(f"b^{MAX_DEGREE}")
    assert s.degree == MAX_DEGREE
    assert parse_scalar(s.render()) == s


@pytest.mark.parametrize(
    "forms", [(0, F(0), False), (1, F(1), True), (-7, F(-7)), (F(3, 4),)], ids=str
)
def test_rational_constructor_agrees_across_input_types(forms):
    scalars = [Scalar.rational(v) for v in forms]
    expected = ((0, F(forms[0])),) if forms[0] else ()
    for s in scalars:
        assert s == scalars[0]
        assert s.coeffs == expected
        assert all(type(c) is F for _, c in s.coeffs)


def test_parse_zero_denominator():
    with pytest.raises(ScalarParseError):
        parse_scalar("1/0")


def test_parse_second_parameter_rejected():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("a+b")
    assert "second parameter" in str(err.value)


def test_render_examples():
    assert parse_scalar("-b+2/3").render() == "-b+2/3"
    assert parse_scalar("2/3+-1*b").render() == "-b+2/3"
    assert parse_scalar("b^2").render() == "b^2"
    assert Scalar.zero().render() == "0"
    assert (Scalar.parameter("b") * F(5, 7)).render() == "5/7*b"


@given(scalars_st())
@settings(max_examples=200)
def test_parse_render_round_trip(s):
    assert parse_scalar(s.render()) == s


@given(scalars_st(), scalars_st(), scalars_st())
@settings(max_examples=150)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Scalar.zero()
    assert a * Scalar.one() == a
    assert a + Scalar.zero() == a


@given(scalars_st(), scalars_st(), scalars_st(), fractions_st)
@settings(max_examples=150)
def test_substitute_is_ring_homomorphism(a, b, c, v):
    lhs = (a * b + c).substitute(v)
    rhs = a.substitute(v) * b.substitute(v) + c.substitute(v)
    assert lhs == rhs


def test_substitute_examples():
    assert parse_scalar("-b+2/3").substitute(F(1, 6)).as_fraction() == F(1, 2)
    assert parse_scalar("5/7").substitute(3).as_fraction() == F(5, 7)
    assert parse_scalar("b^2").substitute(-2).as_fraction() == 4


def test_division_only_by_nonzero_rationals():
    b = Scalar.parameter("b")
    assert (b * 2) / 2 == b
    with pytest.raises(ZeroDivisionError):
        b / Scalar.zero()
    with pytest.raises(ParameterError):
        b / b


def test_mixing_parameters_raises():
    with pytest.raises(ParameterError):
        Scalar.parameter("a") + Scalar.parameter("b")


def test_rational_scalars_have_no_parameter():
    s = Scalar.parameter("b").substitute(2)
    assert s.param is None
    assert s.as_fraction() == 2


def test_as_fraction_requires_rational():
    with pytest.raises(ParameterError):
        Scalar.parameter("b").as_fraction()


# -- the rational fast path ------------------------------------------------------------

wide_fractions_st = st.one_of(
    st.just(F(0)),
    fractions_st,
    st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**70)),
)


def general_path(op: str, a: Scalar, b: Scalar) -> Scalar:
    """What the polynomial path computes: a degree table, then ``Scalar._make``."""
    table: dict[int, Fraction] = {}
    if op == "mul":
        for da, ca in a.coeffs:
            for db, cb in b.coeffs:
                table[da + db] = table.get(da + db, F(0)) + ca * cb
    else:
        table = dict(a.coeffs)
        for d, c in b.coeffs:
            table[d] = table.get(d, F(0)) + (c if op == "add" else -c)
    return Scalar._make(table, a.param or b.param)


def same_scalar(got: Scalar, ref: Scalar) -> bool:
    return (
        got.coeffs == ref.coeffs
        and got.param == ref.param
        and hash(got) == hash(ref)
        and got.render() == ref.render()
    )


@given(wide_fractions_st, wide_fractions_st)
@settings(max_examples=100, deadline=None)
def test_rational_fast_path_matches_general_path(x, y):
    a, b = Scalar.rational(x), Scalar.rational(y)
    # a Fraction or int operand is coerced and takes the general path
    for op, fast, coerced in (
        ("add", a + b, a + y),
        ("sub", a - b, a - y),
        ("mul", a * b, a * y),
    ):
        ref = general_path(op, a, b)
        assert same_scalar(fast, ref)
        assert same_scalar(coerced, ref)
        assert all(type(c) is Fraction for _, c in fast.coeffs)
    assert same_scalar(-a, Scalar._make({d: -c for d, c in a.coeffs}, None))
    assert same_scalar(-a, a * -1)


@given(wide_fractions_st, scalars_st())
@settings(max_examples=60, deadline=None)
def test_rational_with_polynomial_operand_keeps_general_path(x, p):
    a = Scalar.rational(x)
    for lhs, rhs in ((a, p), (p, a)):
        assert same_scalar(lhs + rhs, general_path("add", lhs, rhs))
        assert same_scalar(lhs - rhs, general_path("sub", lhs, rhs))
        assert same_scalar(lhs * rhs, general_path("mul", lhs, rhs))


def test_mixing_parameters_still_raises_next_to_rationals():
    a = Scalar.parameter("a") + Scalar.rational(F(1, 3))
    c = Scalar.parameter("c") * Scalar.rational(F(-2, 5))
    half = Scalar.rational(F(1, 2))
    assert (a + half) * half + half == (a + 1) * F(1, 2) + F(1, 4)  # one parameter is fine
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(ParameterError):
            op(a, c)
        with pytest.raises(ParameterError):
            op(op(a, half), c)
