"""Dense valence-typed tensors over exact scalars, and the sparse slot kernel.

Conventions used throughout the package:

* component indices are 1-based, matching frame fields E_1 .. E_dim;
* slot positions passed to operations are 0-based (Python positional);
* storage is dense row-major, ``comps[offset]`` with the last index
  varying fastest, so slot ``s`` of a rank-``r`` tensor moves the offset
  by ``dim ** (r - 1 - s)`` per unit of its index.

Tensors are immutable value objects; all operations return new tensors.
A tensor keeps the list of its nonzero ``(offset, scalar)`` entries once
it has been asked for it.

Every contraction of the verdict chain (covariant derivatives, curvature,
composition, raising and lowering, interior products) goes through one
private kernel pair that visits only those nonzero entries and
accumulates into a ``{offset: Scalar}`` dict:

* :func:`_slot_apply` maps one slot through a sparse matrix given by rows,
  ``rows[p] = [(j, c), ...]`` with 0-based frame indices: the entry at
  index ``p`` in that slot adds ``c`` times itself at index ``j``;
* :func:`_slot_pair` pairs one slot with a vector and drops the slot.

:func:`_from_offsets` turns an accumulator back into a dense tensor.  The
arithmetic is exact and :class:`Scalar` is canonical, so the order in
which the kernel sums cannot change a value.

Each kernel runs its one loop on one of two number types, chosen only by
whether the inputs are rational.  When the tensor's nonzero entries and
the rows (or the vector) are all rational, it multiplies and adds plain
``int`` numerators: the tensor's entries over one positive common
denominator (:meth:`Tensor._int_entries`, kept once per tensor) and the
rows over theirs (:func:`_kernel_rows`, built with the rows).  It sums
into a local ``{offset: int}`` dict and adds one reduced ``Fraction`` per
output entry to the caller's accumulator.  Any Q[b] input runs the loop
on ``Scalar`` values, straight into the caller's accumulator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator

from .errors import ShapeError
from .scalars import Scalar

UP = "up"
DOWN = "down"

_ZERO = Scalar.zero()
_ONE = Scalar.one()
_UNSET = object()


def _as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.rational(value)
    raise ShapeError(f"cannot use {value!r} as a tensor component")


class Tensor:
    __slots__ = ("dim", "valence", "comps", "_nz", "_int_nz")

    def __init__(self, dim: int, valence: tuple[str, ...], comps: tuple[Scalar, ...]):
        if dim < 1:
            raise ShapeError("tensor dimension must be positive")
        for v in valence:
            if v not in (UP, DOWN):
                raise ShapeError(f"bad variance {v!r}")
        if len(comps) != dim ** len(valence):
            raise ShapeError(
                f"component count {len(comps)} does not match dim {dim} rank {len(valence)}"
            )
        self.dim = dim
        self.valence = tuple(valence)
        self.comps = comps
        self._nz = None
        self._int_nz = _UNSET

    # -- construction --------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, valence: tuple[str, ...]) -> "Tensor":
        return cls(dim, tuple(valence), (_ZERO,) * dim ** len(valence))

    @classmethod
    def from_entries(cls, dim: int, valence: tuple[str, ...], entries: dict) -> "Tensor":
        """Build from a sparse {index tuple (1-based): scalar} mapping."""
        rank = len(valence)
        comps = [_ZERO] * dim**rank
        for idx, value in entries.items():
            if len(idx) != rank:
                raise ShapeError(f"index {idx} has wrong length for rank {rank}")
            comps[_offset(dim, idx)] = _as_scalar(value)
        return cls(dim, tuple(valence), tuple(comps))

    @classmethod
    def from_function(cls, dim: int, valence: tuple[str, ...], fn: Callable) -> "Tensor":
        rank = len(valence)
        comps = [fn(*idx) for idx in itertools.product(range(1, dim + 1), repeat=rank)]
        return cls(dim, tuple(valence), tuple(_as_scalar(c) for c in comps))

    # -- access ---------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.valence)

    def __getitem__(self, idx) -> Scalar:
        if isinstance(idx, int):
            idx = (idx,)
        return self.comps[_offset(self.dim, idx)]

    def indices(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(1, self.dim + 1), repeat=self.rank)

    def _entries(self) -> list[tuple[int, Scalar]]:
        """Nonzero components as (offset, scalar), in storage order; kept once built."""
        if self._nz is None:
            self._nz = [(off, s) for off, s in enumerate(self.comps) if s.coeffs]
        return self._nz

    def _int_entries(self):
        """The nonzero entries over one denominator, ``(den, [(offset, num), ...])``
        in storage order, or None when some entry is not rational; kept once built."""
        if self._int_nz is _UNSET:
            entries = self._entries()
            form = _int_form([s for _, s in entries])
            if form is None:
                self._int_nz = None
            else:
                den, nums = form
                self._int_nz = den, [(off, n) for (off, _), n in zip(entries, nums)]
        return self._int_nz

    def nonzero(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Nonzero components as (1-based index tuple, scalar), in index order."""
        dim, rank = self.dim, self.rank
        out = []
        for off, s in self._entries():  # storage order is index order
            idx = [0] * rank
            for slot in range(rank - 1, -1, -1):
                off, i = divmod(off, dim)
                idx[slot] = i + 1
            out.append((tuple(idx), s))
        return out

    def is_zero(self) -> bool:
        return not any(self.comps)

    def is_rational(self) -> bool:
        return all(s.is_rational for s in self.comps)

    # -- pointwise algebra -----------------------------------------------------

    def _check_same_shape(self, other: "Tensor"):
        if self.dim != other.dim or self.valence != other.valence:
            raise ShapeError(
                f"shape mismatch: dim {self.dim} valence {self.valence} vs "
                f"dim {other.dim} valence {other.valence}"
            )

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.dim, self.valence, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.dim, self.valence, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "Tensor":
        return Tensor(self.dim, self.valence, tuple(-a for a in self.comps))

    def scale(self, factor) -> "Tensor":
        f = _as_scalar(factor)
        if not f:
            return Tensor.zeros(self.dim, self.valence)
        return Tensor(self.dim, self.valence, tuple(a * f for a in self.comps))

    def map_scalars(self, fn: Callable[[Scalar], Scalar]) -> "Tensor":
        return Tensor(self.dim, self.valence, tuple(fn(a) for a in self.comps))

    def substitute(self, value) -> "Tensor":
        """Substitute a rational value for the formal parameter everywhere."""
        return self.map_scalars(lambda s: s.substitute(value))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.dim == other.dim and self.valence == other.valence and self.comps == other.comps
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.valence, self.comps))

    def __repr__(self) -> str:
        nz = self.nonzero()
        shown = ", ".join(f"{idx}: {s}" for idx, s in nz[:6])
        more = "" if len(nz) <= 6 else f", +{len(nz) - 6} more"
        return f"Tensor(dim={self.dim}, valence={self.valence}, {{{shown}{more}}})"

    # -- multilinear operations -------------------------------------------------

    def tensor_product(self, other: "Tensor") -> "Tensor":
        if self.dim != other.dim:
            raise ShapeError("tensor product requires matching dimension")
        comps = tuple(a * b for a in self.comps for b in other.comps)
        return Tensor(self.dim, self.valence + other.valence, comps)

    def contract(self, slot_a: int, slot_b: int) -> "Tensor":
        """Trace pairing over two slots of opposite variance (0-based)."""
        rank = self.rank
        if not (0 <= slot_a < rank and 0 <= slot_b < rank) or slot_a == slot_b:
            raise ShapeError(f"bad contraction slots ({slot_a}, {slot_b}) for rank {rank}")
        if self.valence[slot_a] == self.valence[slot_b]:
            raise ShapeError("contraction slots must have opposite variance")
        dim = self.dim
        keep = [s for s in range(rank) if s not in (slot_a, slot_b)]
        out_valence = tuple(self.valence[s] for s in keep)
        out = []
        idx = [0] * rank
        for out_idx in itertools.product(range(1, dim + 1), repeat=len(keep)):
            for s, i in zip(keep, out_idx):
                idx[s] = i
            total = _ZERO
            for p in range(1, dim + 1):
                idx[slot_a] = p
                idx[slot_b] = p
                total = total + self.comps[_offset(dim, idx)]
            out.append(total)
        return Tensor(dim, out_valence, tuple(out))

    def swap_slots(self, slot_a: int, slot_b: int) -> "Tensor":
        perm = list(range(self.rank))
        perm[slot_a], perm[slot_b] = perm[slot_b], perm[slot_a]
        return self.permute_slots(perm)

    def permute_slots(self, perm: list[int]) -> "Tensor":
        """Reorder slots: output slot s holds input slot perm[s]."""
        if sorted(perm) != list(range(self.rank)):
            raise ShapeError(f"bad slot permutation {perm}")
        dim = self.dim
        valence = tuple(self.valence[p] for p in perm)
        comps = []
        for idx in itertools.product(range(1, dim + 1), repeat=self.rank):
            src = [0] * self.rank
            for s, p in enumerate(perm):
                src[p] = idx[s]
            comps.append(self.comps[_offset(dim, src)])
        return Tensor(dim, valence, tuple(comps))


def _offset(dim: int, idx) -> int:
    off = 0
    for i in idx:
        if not 1 <= i <= dim:
            raise ShapeError(f"index {i} out of range 1..{dim}")
        off = off * dim + (i - 1)
    return off


# -- the sparse slot kernel -----------------------------------------------------


def _int_form(values) -> tuple[int, list[int]] | None:
    """``(den, nums)`` with ``values[i] == nums[i] / den`` and ``den`` the least
    common denominator, or None when some value is not rational."""
    pairs = []
    den = 1
    for s in values:
        if s.param is not None:
            return None
        if s.coeffs:
            n, d = s.coeffs[0][1].as_integer_ratio()
            if den % d:
                den = lcm(den, d)
            pairs.append((n, d))
        else:
            pairs.append((0, 1))
    return den, [n * (den // d) for n, d in pairs]


def _kernel_rows(rows) -> tuple:
    """Pair sparse rows ``rows[p] = [(j, c), ...]`` with their integer form,
    ``(den, [[(j, num), ...], ...])``, or with None when some ``c`` is not
    rational.  :func:`_slot_apply` takes rows in this paired form."""
    form = _int_form([c for row in rows for _, c in row])
    if form is None:
        return rows, None
    den, nums = form
    it = iter(nums)
    return rows, (den, [[(j, next(it)) for j, _ in row] for row in rows])


def _merge_ints(acc: dict, local: dict, den: int) -> dict:
    """Add ``num / den`` into ``acc`` for every ``{offset: num}`` of ``local``."""
    for key, num in local.items():
        if num:
            term = Scalar(((0, Fraction(num, den)),), None)  # the canonical rational form
            prev = acc.get(key)
            acc[key] = term if prev is None else prev + term
    return acc


def _slot_apply(t: Tensor, slot: int, rows, acc: dict, base: int = 0) -> dict:
    """Map one slot of ``t`` through the sparse matrix ``rows``.

    ``rows`` comes from :func:`_kernel_rows`.  For every nonzero
    ``t[.., p, ..]`` (``p`` at ``slot``, 0-based) and every ``(j, c)`` in
    ``rows[p]``, adds ``c * t[.., p, ..]`` to ``acc`` at ``base`` plus the
    offset of the index with ``p`` replaced by ``j``.
    """
    dim = t.dim
    stride = dim ** (t.rank - 1 - slot)
    rows, int_rows = rows
    int_t = None if int_rows is None else t._int_entries()
    if int_t is None:  # the Scalar loop, straight into acc
        entries, local = t._entries(), acc
    else:  # the integer loop, into a local {offset: numerator}
        (den_r, rows), (den_t, entries), local = int_rows, int_t, {}
    for off, value in entries:
        p = off // stride % dim
        row = rows[p]
        if not row:
            continue
        rest = base + off - p * stride
        for j, c in row:
            key = rest + j * stride
            term = c * value
            prev = local.get(key)
            local[key] = term if prev is None else prev + term
    return acc if int_t is None else _merge_ints(acc, local, den_t * den_r)


def _slot_pair(t: Tensor, slot: int, vec, acc: dict, base: int = 0) -> dict:
    """Pair one slot of ``t`` with the components ``vec`` and drop the slot.

    Adds ``vec[p] * t[.., p, ..]`` to ``acc`` at ``base`` plus the offset of
    the remaining indices in a tensor of one rank less.
    """
    dim = t.dim
    stride = dim ** (t.rank - 1 - slot)
    block = stride * dim
    int_vec = _int_form(vec)
    int_t = None if int_vec is None else t._int_entries()
    if int_t is None:  # the Scalar loop, straight into acc
        entries, local = t._entries(), acc
    else:  # the integer loop, into a local {offset: numerator}
        (den_v, vec), (den_t, entries), local = int_vec, int_t, {}
    for off, value in entries:
        x = vec[off // stride % dim]
        if not x:
            continue
        key = base + off // block * stride + off % stride
        term = x * value
        prev = local.get(key)
        local[key] = term if prev is None else prev + term
    return acc if int_t is None else _merge_ints(acc, local, den_t * den_v)


def _from_offsets(dim: int, valence: tuple[str, ...], acc: dict) -> Tensor:
    """Dense tensor from a kernel accumulator; absent offsets are zero."""
    comps = [_ZERO] * dim ** len(valence)
    for off, value in acc.items():
        comps[off] = value
    return Tensor(dim, valence, tuple(comps))


def _matrix_rows(m: Tensor, transpose: bool = False) -> tuple:
    """Kernel rows of a rank-2 tensor: ``rows[p]`` lists ``(j, m[p, j])``,
    or ``(j, m[j, p])`` when ``transpose`` is set (0-based indices); paired
    with their integer form by :func:`_kernel_rows`."""
    dim = m.dim
    rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(dim)]
    for off, value in m._entries():
        p, j = divmod(off, dim)
        if transpose:
            p, j = j, p
        rows[p].append((j, value))
    return _kernel_rows(rows)


def _bilinear(table: Tensor, x: Tensor, y: Tensor) -> Tensor:
    """``X^i Y^j table[i, j, ...]``: both leading slots paired away."""
    dim = table.dim
    first = _from_offsets(dim, table.valence[1:], _slot_pair(table, 0, x.comps, {}))
    return _from_offsets(dim, table.valence[2:], _slot_pair(first, 0, y.comps, {}))


def identity_endomorphism(dim: int) -> Tensor:
    """Kronecker delta as a (down, up) tensor: E_i maps to E_i."""
    return Tensor.from_entries(dim, (DOWN, UP), {(i, i): _ONE for i in range(1, dim + 1)})


def basis_vector(dim: int, i: int) -> Tensor:
    """Frame field E_i as a valence-(up) tensor."""
    return Tensor.from_entries(dim, (UP,), {(i,): _ONE})


def basis_covector(dim: int, i: int) -> Tensor:
    """Coframe field e^i as a valence-(down) tensor."""
    return Tensor.from_entries(dim, (DOWN,), {(i,): _ONE})


def vector(dim: int, components: Iterable) -> Tensor:
    comps = tuple(_as_scalar(c) for c in components)
    if len(comps) != dim:
        raise ShapeError(f"expected {dim} components, got {len(comps)}")
    return Tensor(dim, (UP,), comps)


def permutation_sign(perm: Iterable[int]) -> int:
    """Sign of a permutation given as a sequence of distinct comparables."""
    seq = list(perm)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def increasing_tuples(dim: int, k: int) -> Iterator[tuple[int, ...]]:
    return itertools.combinations(range(1, dim + 1), k)


def antisymmetrize(t: Tensor) -> Tensor:
    """Full antisymmetrization over all slots, with the 1/k! normalization.

    Cost grows as k! * dim**k; intended for low rank.
    """
    k = t.rank
    if k <= 1:
        return t
    dim = t.dim
    norm = Fraction(1, _factorial(k))
    parts: dict[tuple[int, ...], Scalar] = {}
    for inc in increasing_tuples(dim, k):
        total = _ZERO
        for perm in itertools.permutations(inc):
            term = t.comps[_offset(dim, perm)]
            if term:
                total = total + term * permutation_sign(perm)
        if total:
            parts[inc] = total * norm
    return antisymmetric_from_components(dim, k, t.valence, parts)


def antisymmetric_from_components(
    dim: int, k: int, valence: tuple[str, ...], parts: dict[tuple[int, ...], Scalar]
) -> Tensor:
    """Expand {increasing index tuple: value} into a dense antisymmetric tensor."""
    comps = [_ZERO] * dim**k
    for inc, value in parts.items():
        if not value:
            continue
        for perm in itertools.permutations(inc):
            s = permutation_sign(perm)
            comps[_offset(dim, perm)] = value if s == 1 else -value
    return Tensor(dim, valence, tuple(comps))


def is_antisymmetric(t: Tensor) -> bool:
    """Componentwise antisymmetry in all slots (repeated indices vanish).

    Only the nonzero entries are visited.  The tensor is antisymmetric
    exactly when no nonzero entry has a repeated index, every nonzero entry
    is its permutation's sign times the entry on the increasing reordering
    of its index, and there are ``k!`` nonzero entries per nonzero
    increasing one.  The first two conditions put every nonzero entry in
    the ``k!``-element orbit of a nonzero increasing entry with the right
    sign; the count then says that no entry of those orbits is zero.
    """
    k = t.rank
    if k <= 1:
        return True
    dim = t.dim
    entries = t.nonzero()
    increasing = 0
    for idx, value in entries:
        if len(set(idx)) < k:
            return False
        ordered = tuple(sorted(idx))
        if idx == ordered:
            increasing += 1
            continue
        ref = t.comps[_offset(dim, ordered)]
        expected = ref if permutation_sign(idx) == 1 else -ref
        if value != expected:
            return False
    return len(entries) == _factorial(k) * increasing


def antisymmetric_components(t: Tensor) -> dict[tuple[int, ...], Scalar]:
    """Nonzero components of an antisymmetric tensor on increasing tuples."""
    out = {}
    for inc in increasing_tuples(t.dim, t.rank):
        v = t.comps[_offset(t.dim, inc)]
        if v:
            out[inc] = v
    return out


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out
