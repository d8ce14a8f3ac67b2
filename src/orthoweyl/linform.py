"""Exact affine-linear forms in the symbolic coordinates λ1, ..., λk.

A :class:`LinearForm` is ``constant + sum(c_i * λ_i)`` with all coefficients
stored as :class:`fractions.Fraction`, so arithmetic never rounds.  Forms are
immutable, hashable and kept in canonical shape (no zero coefficients, indices
ascending), which makes structural equality the same thing as mathematical
equality.  :meth:`LinearForm.make` builds that shape from any input;
arithmetic on forms already in it keeps it without going through ``make``.

Rendering contract (used verbatim in CSV/JSON table cells): terms in ascending
variable index, ``λ{i}`` tokens, non-integer coefficients as ``(p/q)``, the
constant last.  Examples: ``λ1+λ2+1``, ``-(2/5)λ1-1``, ``0``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import DimensionError, IndexRangeError

__all__ = ["Rational", "RationalLike", "LinearForm", "parse_rational", "render_form"]

#: Exact rational scalar: arbitrary-precision numerator, positive denominator,
#: always in lowest terms.  ``fractions.Fraction`` guarantees all three.
Rational = Fraction

RationalLike = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+))?\s*$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"not a rational number: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def render_form(constant: int, terms: Iterable[tuple[int, int]], den: int = 1) -> str:
    """The text of ``(constant + Σ x·λ_i) / den`` for ``(i, x)`` in ``terms``, den > 0.

    ``terms`` are in ascending i; zero entries are skipped.  This is the
    rendering contract of the module docstring, read from integers.
    """
    parts = []
    for i, x in terms:
        if x:
            g = math.gcd(x, den)
            p, q = abs(x) // g, den // g
            magnitude = f"({p}/{q})" if q != 1 else "" if p == 1 else str(p)
            parts.append(("-" if x < 0 else "+") + magnitude + f"λ{i}")
    if constant:
        g = math.gcd(constant, den)
        p, q = abs(constant) // g, den // g
        parts.append(("-" if constant < 0 else "+") + (f"{p}/{q}" if q != 1 else str(p)))
    if not parts:
        return "0"
    text = "".join(parts)
    return text[1:] if text[0] == "+" else text


@dataclass(frozen=True)
class LinearForm:
    """Affine-linear form in ``nvars`` symbolic variables.

    ``coeffs`` is a tuple of ``(index, coefficient)`` pairs with 1-based
    indices, ascending, and no zero coefficients.
    """

    nvars: int
    constant: Fraction
    coeffs: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def make(
        nvars: int,
        constant: RationalLike = 0,
        coeffs: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] | None = None,
    ) -> "LinearForm":
        """Build a form in canonical shape from any coefficient mapping."""
        items = dict(coeffs or {}).items()
        cleaned = []
        for i, c in items:
            if not 1 <= i <= nvars:
                raise IndexRangeError(f"variable index {i} outside 1..{nvars}")
            c = Fraction(c)
            if c != 0:
                cleaned.append((i, c))
        cleaned.sort()
        return LinearForm(nvars, Fraction(constant), tuple(cleaned))

    @staticmethod
    def const(value: RationalLike, nvars: int) -> "LinearForm":
        return LinearForm.make(nvars, value)

    @staticmethod
    def zero(nvars: int) -> "LinearForm":
        return LinearForm.make(nvars)

    @staticmethod
    def variable(i: int, nvars: int, coefficient: RationalLike = 1) -> "LinearForm":
        return LinearForm.make(nvars, 0, {i: coefficient})

    def coefficient(self, i: int) -> Fraction:
        for j, c in self.coeffs:
            if j == i:
                return c
        if not 1 <= i <= self.nvars:
            raise IndexRangeError(f"variable index {i} outside 1..{self.nvars}")
        return Fraction(0)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> Fraction:
        if self.coeffs:
            raise DimensionError(f"form {self} is not constant")
        return self.constant

    def _check_same_universe(self, other: "LinearForm") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"variable universes differ: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "LinearForm") -> "LinearForm":
        if not isinstance(other, LinearForm):
            return NotImplemented
        self._check_same_universe(other)
        acc = dict(self.coeffs)
        for i, c in other.coeffs:
            acc[i] = acc[i] + c if i in acc else c
        coeffs = tuple(sorted((i, c) for i, c in acc.items() if c))
        return LinearForm(self.nvars, self.constant + other.constant, coeffs)

    def __neg__(self) -> "LinearForm":
        return self.scale(-1)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: RationalLike) -> "LinearForm":
        f = Fraction(factor)
        if not f:
            return LinearForm(self.nvars, f, ())
        return LinearForm(
            self.nvars, self.constant * f, tuple([(i, c * f) for i, c in self.coeffs])
        )

    def __mul__(self, factor: RationalLike) -> "LinearForm":
        if not isinstance(factor, (int, Fraction)):
            return NotImplemented
        return self.scale(factor)

    __rmul__ = __mul__

    def __truediv__(self, divisor: RationalLike) -> "LinearForm":
        return self.scale(Fraction(1, 1) / Fraction(divisor))

    def evaluate(self, assignment: Sequence[RationalLike]) -> Fraction:
        """Exact value of the form at ``λ_i = assignment[i-1]``."""
        if len(assignment) != self.nvars:
            raise DimensionError(
                f"assignment length {len(assignment)} != nvars {self.nvars}"
            )
        total = self.constant
        for i, c in self.coeffs:
            total += c * Fraction(assignment[i - 1])
        return total

    def render(self) -> str:
        """Canonical text form, e.g. ``λ1+λ2+1`` or ``-(2/5)λ1-1``."""
        den = math.lcm(self.constant.denominator, *(c.denominator for _, c in self.coeffs))
        terms = [(i, int(c * den)) for i, c in self.coeffs]
        return render_form(int(self.constant * den), terms, den)

    def __str__(self) -> str:
        return self.render()

    @staticmethod
    def parse(text: str, nvars: int) -> "LinearForm":
        """Inverse of :meth:`render`."""
        s = text.replace(" ", "")
        if s in ("0", "+0", "-0"):
            return LinearForm.zero(nvars)
        term = re.compile(
            r"(?P<sign>[+-])?"
            r"(?:"
            r"(?:(?P<paren>\(\d+/\d+\))|(?P<num>\d+(?:/\d+)?))?λ(?P<var>\d+)"
            r"|(?P<const>\d+(?:/\d+)?)"
            r")"
        )
        pos = 0
        coeffs: dict[int, Fraction] = {}
        constant = Fraction(0)
        while pos < len(s):
            m = term.match(s, pos)
            if m is None or (pos > 0 and m.group("sign") is None):
                raise ValueError(f"cannot parse linear form: {text!r}")
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("var") is not None:
                raw = m.group("paren") or m.group("num")
                mag = parse_rational(raw.strip("()")) if raw else Fraction(1)
                i = int(m.group("var"))
                coeffs[i] = coeffs.get(i, Fraction(0)) + sign * mag
            else:
                constant += sign * parse_rational(m.group("const"))
            pos = m.end()
        return LinearForm.make(nvars, constant, coeffs)
