"""Exact scalar arithmetic: rationals and univariate polynomials.

Every quantity in this package is a :class:`Scalar`: an exact rational
number, or a polynomial in a single formal parameter with rational
coefficients.  Scalars form a commutative ring.  Division is defined only
by nonzero rationals, so linear solvers must pivot on rational entries.

Literal grammar (ASCII, whitespace forbidden)::

    poly     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational ('*' param ('^' uint)?)? | param ('^' uint)?
    rational := ['-'] uint ('/' uint)?
    param    := lowercase identifier

An exponent above :data:`MAX_DEGREE` is a parse error, so a literal can
never ask for a power that takes unbounded time to substitute.

Examples: ``-1/3``, ``-b+2/3``, ``b^2``, ``5/7*b^3``.  Rendering is
canonical (terms by descending degree, coefficients in lowest terms), and
``parse_scalar(render) == identity``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import ParameterError, ScalarParseError

RationalLike = Union[int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)

MAX_DEGREE = 1000
"""Largest exponent a scalar literal may write."""


def _join_params(a: str | None, b: str | None) -> str | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ParameterError(f"cannot mix formal parameters {a!r} and {b!r}")


class Scalar:
    """Immutable exact ring element.

    ``coeffs`` is a tuple of (degree, coefficient) pairs, sorted by degree,
    with no zero coefficients; ``param`` is the parameter name, present
    exactly when some degree >= 1 coefficient exists.
    """

    __slots__ = ("coeffs", "param")

    def __init__(self, coeffs: tuple[tuple[int, Fraction], ...] = (), param: str | None = None):
        self.coeffs = coeffs
        self.param = param

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, table: dict[int, Fraction], param: str | None) -> "Scalar":
        items = tuple(sorted((d, c) for d, c in table.items() if c))
        if not items or items[-1][0] == 0:
            return cls(items, None)
        if param is None:
            raise ParameterError("polynomial scalar needs a parameter name")
        return cls(items, param)

    @classmethod
    def rational(cls, value: RationalLike) -> "Scalar":
        f = value if type(value) is Fraction else Fraction(value)
        return cls(((0, f),) if f else (), None)

    @classmethod
    def zero(cls) -> "Scalar":
        return _ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return _ONE

    @classmethod
    def parameter(cls, name: str) -> "Scalar":
        if not _is_param_name(name):
            raise ParameterError(f"invalid parameter name {name!r}")
        return cls(((1, _F1),), name)

    # -- predicates and views ----------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    @property
    def is_rational(self) -> bool:
        return self.param is None

    def as_fraction(self) -> Fraction:
        if self.param is not None:
            raise ParameterError(
                f"scalar {self} depends on parameter {self.param!r}; substitute a value first"
            )
        return self.coeffs[0][1] if self.coeffs else _F0

    def coefficient(self, degree: int) -> Fraction:
        for d, c in self.coeffs:
            if d == degree:
                return c
        return _F0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations -----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar.rational(value)
        return NotImplemented

    def __add__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        param = _join_params(self.param, other.param)
        table = dict(self.coeffs)
        for d, c in other.coeffs:
            table[d] = table.get(d, _F0) + c
        return Scalar._make(table, param)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(tuple((d, -c) for d, c in self.coeffs), self.param)

    def __sub__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _ZERO
        param = _join_params(self.param, other.param)
        a, b = self.coeffs, other.coeffs
        if len(a) == 1 and a[0][0] == 0:
            f = a[0][1]
            return Scalar(tuple((d, c * f) for d, c in b), other.param)
        if len(b) == 1 and b[0][0] == 0:
            f = b[0][1]
            return Scalar(tuple((d, c * f) for d, c in a), self.param)
        table: dict[int, Fraction] = {}
        for da, ca in a:
            for db, cb in b:
                d = da + db
                table[d] = table.get(d, _F0) + ca * cb
        return Scalar._make(table, param)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = other.as_fraction()
        if not f:
            raise ZeroDivisionError("scalar division by zero")
        return self * Scalar.rational(1 / f)

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("scalar powers take a nonnegative integer exponent")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs and self.param == other.param

    def __hash__(self) -> int:
        return hash((self.coeffs, self.param))

    # -- evaluation ----------------------------------------------------------

    def substitute(self, value: RationalLike) -> "Scalar":
        """Evaluate at a rational parameter value; always returns a rational."""
        v = Fraction(value)
        total = _F0
        for d, c in self.coeffs:
            total += c * v**d
        return Scalar.rational(total)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for d, c in sorted(self.coeffs, reverse=True):
            neg = c < 0
            a = -c if neg else c
            if d == 0:
                body = str(a)
            else:
                mono = self.param if d == 1 else f"{self.param}^{d}"
                body = mono if a == 1 else f"{a}*{mono}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("-" if neg else "+") + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()!r})"


_ZERO = Scalar()
_ONE = Scalar(((0, _F1),), None)


def _is_param_name(name: str) -> bool:
    if not name or not ("a" <= name[0] <= "z"):
        return False
    return all("a" <= ch <= "z" or "0" <= ch <= "9" or ch == "_" for ch in name[1:])


# -- parsing ---------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message: str):
        raise ScalarParseError(message, self.pos)

    def digit(self) -> bool:
        return "0" <= self.peek() <= "9"

    def uint(self) -> int:
        start = self.pos
        while self.digit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected digits")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # beyond the interpreter's integer string conversion limit
            raise ScalarParseError(
                f"integer literal of {self.pos - start} digits is too long", start
            ) from None

    def param(self) -> str:
        start = self.pos
        ch = self.peek()
        if not ("a" <= ch <= "z"):
            self.fail("expected parameter name")
        while True:
            ch = self.peek()
            if "a" <= ch <= "z" or "0" <= ch <= "9" or ch == "_":
                self.pos += 1
            else:
                break
        return self.text[start : self.pos]


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal.  Raises :class:`ScalarParseError` with the
    byte offset of the first fault."""
    if not text:
        raise ScalarParseError("empty scalar literal", 0)
    for i, ch in enumerate(text):
        if ch.isspace():
            raise ScalarParseError("whitespace forbidden in scalar literals", i)
    sc = _Scanner(text)
    table: dict[int, Fraction] = {}
    param: str | None = None

    sign = 1
    if sc.peek() in "+-":
        sign = -1 if sc.peek() == "-" else 1
        sc.pos += 1

    while True:
        deg, coef, pname = _parse_term(sc)
        if pname is not None:
            if param is None:
                param = pname
            elif param != pname:
                raise ScalarParseError(
                    f"second parameter name {pname!r} (already using {param!r})",
                    sc.pos - len(pname),
                )
        table[deg] = table.get(deg, _F0) + sign * coef
        if sc.pos == len(text):
            break
        ch = sc.peek()
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            sc.fail(f"unexpected character {ch!r}")
        sc.pos += 1
        if sc.pos == len(text):
            sc.fail("dangling sign")

    items = {d: c for d, c in table.items() if c}
    if items and max(items) > 0:
        return Scalar._make(items, param)
    return Scalar._make(items, None)


def _parse_term(sc: _Scanner) -> tuple[int, Fraction, str | None]:
    ch = sc.peek()
    if ch == "-" or sc.digit():
        neg = ch == "-"
        if neg:
            sc.pos += 1
            if not sc.digit():
                sc.fail("expected digits after sign")
        num = sc.uint()
        den = 1
        if sc.peek() == "/":
            sc.pos += 1
            slash_at = sc.pos
            den = sc.uint()
            if den == 0:
                raise ScalarParseError("zero denominator", slash_at)
        coef = Fraction(-num if neg else num, den)
        deg = 0
        pname = None
        if sc.peek() == "*":
            sc.pos += 1
            pname = sc.param()
            deg = _parse_exponent(sc)
        return deg, coef, pname
    if "a" <= ch <= "z":
        pname = sc.param()
        deg = _parse_exponent(sc)
        return deg, _F1, pname
    sc.fail(f"unexpected character {ch!r}" if ch else "unexpected end of literal")


def _parse_exponent(sc: _Scanner) -> int:
    if sc.peek() == "^":
        sc.pos += 1
        start = sc.pos
        deg = sc.uint()
        if deg > MAX_DEGREE:
            raise ScalarParseError(f"exponent above the maximum degree {MAX_DEGREE}", start)
        return deg
    return 1


def substitute(scalar: Scalar, value: RationalLike) -> Scalar:
    """Functional form of :meth:`Scalar.substitute`."""
    return scalar.substitute(value)
