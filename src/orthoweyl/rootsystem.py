"""Root data of types B_k and D_k, weights, and the integer simple reflection.

Weights are always written in fundamental-weight (Bourbaki) coordinates:
``w = (c_1(w), ..., c_k(w))`` with ``c_i(w) = <w, α_i^∨>``.  The pairing
matrix convention is fixed once and for all as

    ``cartan[j-1][i-1] = <α_j, α_i^∨>``

so that the reflection rule reads ``c_i(s_j w) = c_i(w) - c_j(w) * <α_j, α_i^∨>``.
Both index orders occur in the literature; everything in this package assumes
this one.

The kinds are B_k and D_k only: the root systems of SO(n,2) for odd and
even n.  In ε-coordinates (the orthonormal functional basis) both groups act
by signed permutations.  The one conversion is :func:`doubled_epsilon`, on
integer vectors; ε is never the internal basis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    DimensionError,
    IndexRangeError,
    NeedsAssignmentError,
    UnsupportedKindError,
    UnsupportedRankError,
)
from .linform import LinearForm, RationalLike

__all__ = [
    "DynkinKind",
    "RootDatum",
    "Weight",
    "make_datum",
    "cartan_matrix",
    "rho",
    "positive_root_vectors",
]


class DynkinKind(enum.Enum):
    B = "B"
    D = "D"


@dataclass(frozen=True)
class RootDatum:
    """Dynkin kind, rank, and the integer pairing matrix ``<α_j, α_i^∨>``."""

    kind: DynkinKind
    rank: int
    cartan: tuple[tuple[int, ...], ...]

    def pairing(self, j: int, i: int) -> int:
        """``<α_j, α_i^∨>`` with 1-based indices."""
        return self.cartan[j - 1][i - 1]

    def __repr__(self) -> str:
        return f"RootDatum({self.kind.value}{self.rank})"

    def __hash__(self) -> int:
        # not the k×k ``cartan``, which every datum-keyed cache would hash; equality compares it
        return hash((self.kind, self.rank))


def cartan_matrix(kind: DynkinKind, rank: int) -> tuple[tuple[int, ...], ...]:
    """Pairing matrix for B_k / D_k in the convention described above."""
    k = rank
    rows = []
    for j in range(1, k + 1):
        row = [0] * k
        row[j - 1] = 2
        rows.append(row)

    def set_edge(j: int, i: int, value: int = -1) -> None:
        rows[j - 1][i - 1] = value

    if kind is DynkinKind.B:
        for j in range(1, k):
            set_edge(j, j + 1)
            set_edge(j + 1, j)
        # α_k is short: <α_{k-1}, α_k^∨> = -2 while <α_k, α_{k-1}^∨> = -1.
        set_edge(k - 1, k, -2)
    elif kind is DynkinKind.D:
        for j in range(1, k - 1):
            set_edge(j, j + 1)
            set_edge(j + 1, j)
        set_edge(k - 2, k)
        set_edge(k, k - 2)
    else:
        raise UnsupportedKindError("cartan_matrix only knows kinds B and D")
    return tuple(tuple(r) for r in rows)


def make_datum(kind: DynkinKind, rank: int) -> RootDatum:
    """Root datum of type B_k (k >= 3) or D_k (k >= 4)."""
    minimum = {DynkinKind.B: 3, DynkinKind.D: 4}
    if kind not in minimum:
        raise UnsupportedKindError(f"root data are of type B or D, got {kind!r}")
    if rank < minimum[kind]:
        raise UnsupportedRankError(
            f"type {kind.value} needs rank >= {minimum[kind]}, got {rank}"
        )
    return RootDatum(kind, rank, cartan_matrix(kind, rank))


@dataclass(frozen=True)
class Weight:
    """Vector of linear forms in fundamental-weight coordinates."""

    coords: tuple[LinearForm, ...]

    @property
    def rank(self) -> int:
        return len(self.coords)

    @staticmethod
    def from_constants(values: Sequence[RationalLike], nvars: int | None = None) -> "Weight":
        n = len(values) if nvars is None else nvars
        return Weight(tuple(LinearForm.const(v, n) for v in values))

    @staticmethod
    def symbolic(k: int) -> "Weight":
        """The generic weight (λ1, ..., λk)."""
        return Weight(tuple(LinearForm.variable(i, k) for i in range(1, k + 1)))

    def _check_rank(self, other: "Weight") -> None:
        if self.rank != other.rank:
            raise DimensionError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        self._check_rank(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        self._check_rank(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, factor: RationalLike) -> "Weight":
        return Weight(tuple(c.scale(factor) for c in self.coords))

    def evaluate(self, assignment: Sequence[RationalLike]) -> "Weight":
        """Substitute numbers for the symbolic variables."""
        vals = [c.evaluate(assignment) for c in self.coords]
        nvars = self.coords[0].nvars if self.coords else 0
        return Weight.from_constants(vals, nvars)

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for c in self.coords)

    def constant_tuple(self) -> tuple[Fraction, ...]:
        if not self.is_constant:
            raise NeedsAssignmentError(f"weight {self} is still symbolic")
        return tuple(c.constant for c in self.coords)

    def render(self) -> str:
        return "(" + ",".join(c.render() for c in self.coords) + ")"

    def __str__(self) -> str:
        return self.render()


def _check_letter(datum: RootDatum, j: int) -> None:
    if not 1 <= j <= datum.rank:
        raise IndexRangeError(f"reflection index {j} outside 1..{datum.rank}")


def reflect_vector(datum: RootDatum, j: int, vec: Sequence[int]) -> tuple[int, ...]:
    """Apply s_j to an integer ϖ-coordinate vector: ``c_i -> c_i - c_j * <α_j, α_i^∨>``."""
    _check_letter(datum, j)
    cj = vec[j - 1]
    if cj == 0:
        return tuple(vec)
    row = datum.cartan[j - 1]
    return tuple(v - cj * row[i] for i, v in enumerate(vec))


def rho(datum: RootDatum) -> Weight:
    """Half-sum of positive roots: (1, ..., 1) in these coordinates."""
    return Weight.from_constants([1] * datum.rank)


def simple_root_vector(datum: RootDatum, j: int) -> tuple[int, ...]:
    """ϖ-coordinates of α_j, i.e. row j of the pairing matrix."""
    _check_letter(datum, j)
    return tuple(datum.cartan[j - 1])


# --- ε-coordinates -----------------------------------------------------------


@lru_cache(maxsize=None)
def _eps_positive_roots(datum: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Positive roots in ε-coordinates, in a fixed deterministic order."""
    k = datum.rank
    roots: list[tuple[int, ...]] = []

    def vec(entries: dict[int, int]) -> tuple[int, ...]:
        return tuple(entries.get(i, 0) for i in range(1, k + 1))

    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            roots.append(vec({i: 1, j: -1}))
            roots.append(vec({i: 1, j: 1}))
    if datum.kind is DynkinKind.B:
        for i in range(1, k + 1):
            roots.append(vec({i: 1}))
    return tuple(roots)


def _eps_to_weight_vector(datum: RootDatum, b: Sequence[int]) -> tuple[int, ...]:
    k = datum.rank
    if datum.kind is DynkinKind.B:
        c = [b[i] - b[i + 1] for i in range(k - 1)] + [2 * b[k - 1]]
    else:
        c = [b[i] - b[i + 1] for i in range(k - 2)]
        c += [b[k - 2] - b[k - 1], b[k - 2] + b[k - 1]]
    return tuple(c)


def doubled_epsilon(datum: RootDatum, vec: Sequence[int]) -> list[int]:
    """2× the ε-coordinates of an integer ϖ-coordinate vector, in integers.

    With ϖ_i = ε_1+...+ε_i below the spin nodes, ϖ_k = (ε_1+...+ε_k)/2 for B_k
    and ϖ_{k-1}, ϖ_k = (ε_1+...+ε_{k-1} ∓ ε_k)/2 for D_k.
    """
    k = datum.rank
    x = [0] * k
    if datum.kind is DynkinKind.B:
        x[k - 1] = vec[k - 1]
        top = k - 1
    else:
        x[k - 2] = vec[k - 2] + vec[k - 1]
        x[k - 1] = vec[k - 1] - vec[k - 2]
        top = k - 2
    for i in range(top - 1, -1, -1):
        x[i] = x[i + 1] + 2 * vec[i]
    return x


@lru_cache(maxsize=None)
def positive_root_vectors(datum: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Positive roots as integer ϖ-coordinate vectors."""
    return tuple(_eps_to_weight_vector(datum, b) for b in _eps_positive_roots(datum))
