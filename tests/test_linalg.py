import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecalc.errors import InconsistencyError
from framecalc.linalg import Echelon, invert, nullspace, pfaffian, rank, rref
from framecalc.scalars import Scalar
from helpers import ref_solve_affine_sparse

F = Fraction


def frac_matrix(rows):
    return [[F(x) for x in row] for row in rows]


def det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    sign = F(1)
    for j in range(n):
        if m[0][j]:
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
            total += sign * m[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def matvec(m, v):
    return [sum((r[c] * v[c] for c in range(len(v))), F(0)) for r in m]


def test_rref_known():
    m, pivots = rref(frac_matrix([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert m[0] == [F(1), F(0), F(-1)]
    assert m[1] == [F(0), F(1), F(2)]


def test_rank():
    assert rank(frac_matrix([[1, 2], [2, 4], [1, 0]])) == 2
    assert rank(frac_matrix([[0, 0], [0, 0]])) == 0


def test_nullspace_annihilates_and_has_right_dimension():
    rng = random.Random(11)
    for _ in range(30):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(m, ncols)
        assert len(basis) == ncols - rank(m)
        for v in basis:
            assert all(x == 0 for x in matvec(m, v))


def test_nullspace_of_empty_system_is_identity():
    basis = nullspace([], 3)
    assert basis == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]


def test_nullspace_deterministic():
    m = frac_matrix([[1, 2, 3, 4], [0, 1, 1, 0]])
    assert nullspace(m, 4) == nullspace([list(r) for r in m], 4)


def test_invert_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if det_cofactor(m) == 0:
            with pytest.raises(ValueError):
                invert(m)
            continue
        inv = invert(m)
        prod = [[sum((m[i][p] * inv[p][j] for p in range(n)), F(0)) for j in range(n)] for i in range(n)]
        assert prod == [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]


def test_pfaffian_darboux():
    m = frac_matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert pfaffian(m) == 1


def test_pfaffian_odd_dimension_vanishes():
    m = frac_matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    assert pfaffian(m) == 0


def test_pfaffian_squares_to_determinant():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice([2, 4, 6])
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = F(rng.randint(-3, 3), rng.randint(1, 2))
                m[i][j] = v
                m[j][i] = -v
        assert pfaffian(m) ** 2 == det_cofactor(m)


def pfaffian_cofactor(m):
    """Reference: expansion along the first row, (n-1)!! terms."""

    def rec(idx):
        if not idx:
            return F(1)
        total, sign = F(0), 1
        for j in idx[1:]:
            if m[idx[0]][j]:
                total += sign * m[idx[0]][j] * rec([x for x in idx if x not in (idx[0], j)])
            sign = -sign
        return total

    return rec(list(range(len(m)))) if len(m) % 2 == 0 else F(0)


@st.composite
def skew_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.sampled_from([F(0), F(0), F(1), F(-2), F(1, 3), F(-3, 2)]))
            m[i][j], m[j][i] = v, -v
    return m


@settings(max_examples=150, deadline=None)
@given(skew_matrices())
def test_pfaffian_matches_cofactor_expansion(m):
    assert pfaffian(m) == pfaffian_cofactor(m)


def test_pfaffian_20x20_congruent_darboux_form_is_fast():
    """Pf(M D M^T) = det(M) Pf(D) for a block Darboux form D with seeded
    entries and M a seeded permuted triangular matrix."""
    import time

    rng = random.Random(20)
    n = 20
    blocks = [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in range(n // 2)]
    d = [[F(0)] * n for _ in range(n)]
    for k, a in enumerate(blocks):
        d[2 * k][2 * k + 1], d[2 * k + 1][2 * k] = a, -a
    diag = [F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)) for _ in range(n)]
    tri = [
        [diag[i] if i == j else F(rng.randint(-2, 2)) if j < i else F(0) for j in range(n)]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [tri[perm[i]] for i in range(n)]
    sign = 1
    seen = set()
    for start in range(n):  # parity of the permutation from its cycles
        length = 0
        while start not in seen:
            seen.add(start)
            start = perm[start]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    md = [[sum((mat[i][p] * d[p][q] for p in range(n)), F(0)) for q in range(n)] for i in range(n)]
    a = [[sum((md[i][q] * mat[j][q] for q in range(n)), F(0)) for j in range(n)] for i in range(n)]
    expected = sign
    for x in diag + blocks:
        expected *= x
    start = time.perf_counter()
    assert pfaffian(a) == expected
    assert time.perf_counter() - start < 1.0


def _sparse(rows):
    return [{c: F(v) for c, v in row.items()} for row in rows]


def test_solve_affine_sparse_particular_and_nullspace():
    rng = random.Random(17)
    for _ in range(25):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(1, 7)
        dense = [[F(rng.randint(-2, 2)) for _ in range(ncols)] for _ in range(nrows)]
        x0 = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
        rhs_fracs = matvec(dense, x0)
        rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
        rhs = [Scalar.rational(v) for v in rhs_fracs]
        particular, basis = ref_solve_affine_sparse(rows, rhs, ncols)
        got = matvec(dense, [s.as_fraction() for s in particular])
        assert got == rhs_fracs
        assert len(basis) == ncols - rank(dense)
        for v in basis:
            assert all(x == 0 for x in matvec(dense, v))


def test_solve_affine_sparse_polynomial_rhs():
    b = Scalar.parameter("b")
    # x0 + x1 = b, x0 - x1 = 1
    rows = _sparse([{0: 1, 1: 1}, {0: 1, 1: -1}])
    particular, basis = ref_solve_affine_sparse(rows, [b, Scalar.one()], 2)
    assert basis == []
    assert particular[0] == (b + 1) / 2
    assert particular[1] == (b - 1) / 2


def test_solve_affine_sparse_inconsistent():
    rows = _sparse([{0: 1}, {0: 1}])
    with pytest.raises(InconsistencyError):
        ref_solve_affine_sparse(rows, [Scalar.one(), Scalar.rational(2)], 1)


# -- the echelon engine against a dense reference -------------------------------------


def dense_rref(rows, npivot=None):
    """Reference Gauss-Jordan elimination on dense rows: pivot columns left to
    right (only the first ``npivot`` columns may pivot), first row with a
    nonzero entry; entries may be Fractions or Scalars."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    prow = 0
    for col in range(len(m[0]) if npivot is None else npivot):
        pr = next((r for r in range(prow, len(m)) if m[r][col]), None)
        if pr is None:
            continue
        m[prow], m[pr] = m[pr], m[prow]
        pv = m[prow][col]
        m[prow] = [x / pv for x in m[prow]]
        lead = m[prow]
        for r in range(len(m)):
            if r != prow and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], lead)]
        pivots.append(col)
        prow += 1
        if prow == len(m):
            break
    return m, pivots


def dense_nullspace(rows, ncols):
    """Reference kernel basis: free-column vectors, then a dense re-rref."""
    red, pivots = dense_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return [row for row in dense_rref(basis)[0] if any(row)]


def dense_solve(rows, rhs, n):
    """Reference affine solve on the dense augmented matrix [rows | rhs]."""
    aug = [[row.get(c, F(0)) for c in range(n)] + [value] for row, value in zip(rows, rhs)]
    red, pivots = dense_rref(aug, n)
    if any(row[n] for row in red[len(pivots):]):
        raise InconsistencyError("reference: inconsistent")
    particular = [Scalar.zero()] * n
    for r, p in enumerate(pivots):
        particular[p] = red[r][n]
    return particular, dense_nullspace([row[:n] for row in aug], n)


entries_st = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def matrices_st(draw, max_rows=6, max_cols=6):
    """(ncols, rows) with zero rows, duplicates and combinations mixed in."""
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    row_st = st.lists(entries_st, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row_st, max_size=max_rows))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entries_st)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([F(0)] * ncols)
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


def as_sparse(row):
    return {c: x for c, x in enumerate(row) if x}


@given(matrices_st())
@settings(max_examples=150, deadline=None)
def test_echelon_basis_matches_dense_rref(matrix):
    ncols, rows = matrix
    expected = [row for row in dense_rref(rows)[0] if any(row)]
    assert Echelon(ncols, rows).basis() == expected
    assert Echelon(ncols, [as_sparse(r) for r in reversed(rows)]).basis() == expected
    if rows:
        assert rref(rows) == dense_rref(rows)
        assert rank(rows) == len(expected)


@given(matrices_st(), st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_contains_agrees_with_rank(matrix, data):
    ncols, rows = matrix
    v = data.draw(
        st.one_of(
            st.lists(entries_st, min_size=ncols, max_size=ncols),
            st.sampled_from(rows or [[F(0)] * ncols]),
        )
    )
    expected = rank(rows + [v]) == rank(rows)
    assert expected == (len(dense_rref(rows + [v])[1]) == len(dense_rref(rows)[1]))
    span = Echelon(ncols, rows)
    assert span.contains(v) == expected
    assert (not span.reduce(v)) == expected
    assert span.insert(v) == (not expected)


@given(matrices_st())
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_dense_reference(matrix):
    ncols, rows = matrix
    expected = dense_nullspace(rows, ncols)
    assert nullspace(rows, ncols) == expected
    assert nullspace([as_sparse(r) for r in rows], ncols) == expected


@given(matrices_st(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_affine_sparse_matches_dense_reference(matrix, data):
    ncols, dense = matrix
    b = Scalar.parameter("b")
    row_st = st.lists(entries_st, min_size=ncols, max_size=ncols)
    if data.draw(st.booleans()):  # consistent: rhs = dense @ (x0 + b x1)
        x0, x1 = data.draw(row_st), data.draw(row_st)
        rhs = [Scalar.rational(p) + b * q for p, q in zip(matvec(dense, x0), matvec(dense, x1))]
    else:
        rhs = [Scalar.rational(x) + b * y for x, y in zip(data.draw(row_st), data.draw(row_st))]
        rhs = rhs[: len(dense)] + [Scalar.zero()] * (len(dense) - len(rhs))
    rows = [as_sparse(r) for r in dense]
    try:
        expected = dense_solve(rows, rhs, ncols)
    except InconsistencyError:
        with pytest.raises(InconsistencyError):
            ref_solve_affine_sparse(rows, rhs, ncols)
        return
    assert ref_solve_affine_sparse(rows, rhs, ncols) == expected
