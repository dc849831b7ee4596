"""Exact linear algebra over the rationals.

Every elimination in the package goes through one engine, :class:`Echelon`:
an incrementally maintained, fully reduced row-echelon basis over
:class:`fractions.Fraction`, with sparse ``{column: value}`` rows.  A row
is inserted by clearing its entries in the stored pivot columns; a nonzero
remainder is scaled to a leading 1 and its pivot column is cleared from
the stored rows.  ``rref``, ``rank``, ``nullspace``, ``invert`` and the
sparse affine solver are thin wrappers over it; only the Pfaffian, a
skew-symmetric elimination that must keep the matrix skew, has its own
loop.

Pivoting is fixed: the pivot of a stored row is its leftmost nonzero
column, scaled to 1, and every other stored row is zero there.  These are
the conditions of the reduced row-echelon form, and a subspace has exactly
one basis that meets them.  So the stored basis depends only on the span
of the inserted rows, never on their order or on how the elimination went:
every echelon output is canonical and reproducible, and no size heuristics
are needed because the arithmetic is exact.

The affine solver allows polynomial right-hand sides: it carries them as
one extra, rightmost column of :class:`Scalar` entries (an augmented
matrix), so parametrized inhomogeneous systems solve exactly while every
pivot stays rational.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InconsistencyError
from .scalars import Scalar

_F0 = Fraction(0)
_F1 = Fraction(1)


def _sparse(row) -> dict:
    """A fresh ``{column: value}`` copy of a dense or sparse row, zeros dropped."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if x}


def _subtract(target: dict, f, source: dict) -> None:
    """``target -= f * source`` on sparse rows, dropping cancelled entries."""
    for c, x in source.items():
        if c in target:
            nv = target[c] - f * x
            if nv:
                target[c] = nv
            else:
                del target[c]
        else:
            target[c] = -(f * x)


class Echelon:
    """Reduced row-echelon basis of the span of the rows inserted so far.

    Rows are dense sequences of ``ncols`` values or sparse dicts from column
    to value.  Each stored row is kept as its pivot column and its tail, the
    entries other than the leading 1; tails are zero in every pivot column.
    """

    __slots__ = ("ncols", "_tails")

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self._tails: dict[int, dict[int, Fraction]] = {}
        for row in rows:
            self.insert(row)

    def __len__(self) -> int:
        return len(self._tails)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._tails)

    def reduce(self, row) -> dict[int, Fraction]:
        """Sparse remainder of ``row`` after clearing every pivot column.

        Tails are zero in the other pivot columns, so clearing one pivot
        never changes the entry in another and one pass suffices.
        """
        v = _sparse(row)
        tails = self._tails
        for p in [c for c in v if c in tails]:
            _subtract(v, v.pop(p), tails[p])
        return v

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def insert(self, row) -> bool:
        """Add ``row`` to the span; False when it already lies in it."""
        v = self.reduce(row)
        if not v:
            return False
        self._add(v)
        return True

    def _add(self, v: dict) -> None:
        """Store a nonzero remainder returned by :meth:`reduce`."""
        q = min(v)
        pv = v.pop(q)
        if pv != 1:
            v = {c: x / pv for c, x in v.items()}
        for tail in self._tails.values():
            f = tail.pop(q, None)
            if f is not None:
                _subtract(tail, f, v)
        self._tails[q] = v

    def basis(self) -> list[list[Fraction]]:
        """Dense canonical basis rows, sorted by pivot column."""
        out = []
        for p in sorted(self._tails):
            row = [_F0] * self.ncols
            row[p] = _F1
            for c, x in self._tails[p].items():
                row[c] = x
            out.append(row)
        return out

    def kernel(self, ncols: int | None = None) -> "Echelon":
        """The echelon basis of {x : row . x = 0 for every stored row},
        over the first ``ncols`` columns (default all).

        Each free column f gives the solution with x_f = 1, the other free
        coordinates 0 and x_p = -tail_p[f] on the pivots; inserting these
        sparse vectors canonicalizes them.
        """
        n = self.ncols if ncols is None else ncols
        vectors = {f: {f: _F1} for f in range(n) if f not in self._tails}
        for p, tail in self._tails.items():
            for c, x in tail.items():
                if c < n:
                    vectors[c][p] = -x
        return Echelon(n, vectors.values())


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (matrix, pivot column indices);
    the matrix keeps one row per input row, zero rows last."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    ech = Echelon(ncols, rows)
    red = ech.basis()
    red.extend([_F0] * ncols for _ in range(len(rows) - len(red)))
    return red, ech.pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(Echelon(len(rows[0]) if rows else 0, rows))


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Canonical basis of {x : rows @ x = 0}, as reduced echelon rows.
    Rows may be dense or sparse."""
    return Echelon(ncols, rows).kernel().basis()


def invert(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix.  Raises ValueError if singular."""
    n = len(mat)
    aug = [list(mat[r]) + [_F1 if c == r else _F0 for c in range(n)] for r in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def pfaffian(mat: list[list[Fraction]]) -> Fraction:
    """Pfaffian of an antisymmetric rational matrix (0 for odd size).

    Skew-symmetric elimination in O(n^3) exact steps, after Parlett-Reid
    as in Wimmer 2012 (*Algorithm 923*), but with exact pivots: the first
    nonzero entry of row k is swapped into column k+1 (a simultaneous row
    and column swap negates the Pfaffian), and with a = A[k][k+1] the
    trailing block becomes its skew Schur complement
    A[i][j] + (A[k+1][i] A[k][j] - A[k][i] A[k+1][j]) / a,
    so Pf(A) = a * Pf(complement).
    """
    n = len(mat)
    if n % 2:
        return _F0
    a = [[Fraction(x) for x in row] for row in mat]
    result = _F1
    for k in range(0, n, 2):
        row = a[k]
        p = next((j for j in range(k + 1, n) if row[j]), None)
        if p is None:
            return _F0
        if p != k + 1:
            a[k + 1], a[p] = a[p], a[k + 1]
            for r in a:
                r[k + 1], r[p] = r[p], r[k + 1]
            result = -result
        pivot = row[k + 1]
        result *= pivot
        nxt = a[k + 1]
        for i in range(k + 2, n):
            ui, vi = nxt[i] / pivot, row[i] / pivot
            if not (ui or vi):
                continue
            ai = a[i]
            for j in range(i + 1, n):
                d = ui * row[j] - vi * nxt[j]
                if d:
                    ai[j] += d
                    a[j][i] -= d
    return result


def solve_affine_sparse(
    rows: list[dict[int, Fraction]],
    rhs: list[Scalar],
    nunknowns: int,
) -> tuple[list[Scalar], list[list[Fraction]]]:
    """Solve ``rows @ x = rhs`` exactly.

    Coefficients are rational; right-hand sides may be polynomial scalars.
    Returns (particular solution with free unknowns set to zero, canonical
    rational nullspace basis).  Raises :class:`InconsistencyError` when the
    system has no solution.
    """
    ech = Echelon(nunknowns + 1)
    for r, (row, value) in enumerate(zip(rows, rhs)):
        aug = dict(row)
        if value:
            aug[nunknowns] = value
        rest = ech.reduce(aug)
        if not rest:
            continue
        if min(rest) == nunknowns:
            raise InconsistencyError(
                f"system is inconsistent (row {r}: 0 = {rest[nunknowns]})"
            )
        ech._add(rest)

    particular = [Scalar.zero()] * nunknowns
    for p, tail in ech._tails.items():
        particular[p] = tail.get(nunknowns, Scalar.zero())
    return particular, ech.kernel(nunknowns).basis()
