"""Data attached to the rank-two rational form of SO(n,2), n >= 5.

For odd n the absolute root system is B_k with 2k = n+1; for even n it is D_k
with 2k = n+2.  The two standard maximal parabolic subgroups correspond to
crossing the first, resp. second node of the Dynkin diagram.  This module
hard-codes the split of the Cartan dual into the one-dimensional central piece
(coefficient of ϖ_{i1}) and the semisimple piece (coordinates relative to
ϖ_{i2}, ..., ϖ_{ik}), together with the Levi lists, cuspidal-class degrees and
vanishing bounds that feed the degree bookkeeping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import RegimeError
from .hasse import ParabolicChoice
from .linform import LinearForm
from .rootsystem import DynkinKind, RootDatum, Weight, make_datum

__all__ = [
    "GroupSpec",
    "MaximalParabolic",
    "RestrictionData",
    "LeviFactor",
    "LeviSubgroup",
    "VanishingBounds",
    "group_spec",
    "crossed_simple_roots",
    "parabolic_choice",
    "restrict",
    "restriction_basis",
    "levi_rho_coefficient",
    "nilradical_dim",
    "levi_subgroups",
    "cuspidal_degrees",
    "vanishing_bounds",
]

HALF = Fraction(1, 2)


class MaximalParabolic(enum.Enum):
    P1 = 1
    P2 = 2


@dataclass(frozen=True)
class GroupSpec:
    """Signature parameter n, rank k, and the ambient root datum."""

    n: int
    k: int
    datum: RootDatum

    @property
    def is_odd(self) -> bool:
        return self.n % 2 == 1


def group_spec(n: int) -> GroupSpec:
    """B_{(n+1)/2} for odd n, D_{(n+2)/2} for even n; only defined for n >= 5."""
    if n < 5:
        raise RegimeError(f"n must be at least 5, got {n}")
    if n % 2 == 1:
        k = (n + 1) // 2
        return GroupSpec(n, k, make_datum(DynkinKind.B, k))
    k = (n + 2) // 2
    return GroupSpec(n, k, make_datum(DynkinKind.D, k))


def crossed_simple_roots(g: GroupSpec, p: MaximalParabolic) -> frozenset[int]:
    """Crossed node: α_1 for the first parabolic, α_2 for the second."""
    return frozenset({1}) if p is MaximalParabolic.P1 else frozenset({2})


def parabolic_choice(g: GroupSpec, p: MaximalParabolic) -> ParabolicChoice:
    return ParabolicChoice(g.datum, crossed_simple_roots(g, p))


@dataclass(frozen=True)
class RestrictionData:
    """A weight split along 𝔥̌ ≅ 𝔞̌_i ⊕ 𝔟̌_i.

    ``a_coefficient`` is the scalar in ``λ|_𝔞 = a·ϖ_{i1}``; ``b_coords`` are
    the k-1 coordinates of ``λ|_𝔟`` relative to ϖ_{i2}, ..., ϖ_{ik}.
    """

    a_coefficient: LinearForm
    b_coords: tuple[LinearForm, ...]


def half_positions(g: GroupSpec, p: MaximalParabolic) -> tuple[int, ...]:
    """Indices i whose coordinate enters the ϖ_{i1}-coefficient with weight 1/2.

    The 𝔞-coefficient of a weight c is ``Σ_i c_i``, with the coordinates at
    these positions halved; every other coordinate counts fully.
    """
    k = g.k
    if p is MaximalParabolic.P1:
        return (k,) if g.is_odd else (k - 1, k)
    return (1, k) if g.is_odd else (1, k - 1, k)


def restrict(g: GroupSpec, p: MaximalParabolic, w: Weight) -> RestrictionData:
    """Split a weight along the parabolic's Levi decomposition."""
    c = w.coords
    b = tuple(c[1:]) if p is MaximalParabolic.P1 else (c[0],) + tuple(c[2:])
    halves = half_positions(g, p)
    a = LinearForm.zero(c[0].nvars)
    for i in range(1, g.k + 1):
        a = a + (c[i - 1].scale(HALF) if i in halves else c[i - 1])
    return RestrictionData(a, b)


def restriction_basis(g: GroupSpec, p: MaximalParabolic) -> tuple[Weight, tuple[Weight, ...]]:
    """The explicit basis (ϖ_{i1}; ϖ_{i2}, ..., ϖ_{ik}) behind :func:`restrict`.

    Kept as literal coordinate tuples so the recombination identity
    ``a·ϖ_{i1} + Σ b_j·ϖ_{i,j+1} = λ`` can be tested against transcription
    mistakes.
    """
    k = g.k

    def w(entries: dict[int, Fraction | int]) -> Weight:
        return Weight.from_constants(
            [entries.get(i, 0) for i in range(1, k + 1)]
        )

    if p is MaximalParabolic.P1:
        head = w({1: 1})
        tail = []
        for j in range(2, k + 1):
            short = (j == k) if g.is_odd else (j >= k - 1)
            tail.append(w({1: -HALF if short else -1, j: 1}))
        return head, tuple(tail)
    head = w({2: 1})
    tail = [w({1: 1, 2: -HALF})]
    for j in range(3, k + 1):
        short = (j == k) if g.is_odd else (j >= k - 1)
        tail.append(w({2: -HALF if short else -1, j: 1}))
    return head, tuple(tail)


def levi_rho_coefficient(g: GroupSpec, p: MaximalParabolic) -> Fraction:
    """ϖ_{i1}-coefficient of ρ|_𝔞: n/2 for P1 and (n-1)/2 for P2."""
    return Fraction(g.n, 2) if p is MaximalParabolic.P1 else Fraction(g.n - 1, 2)


def nilradical_dim(g: GroupSpec, p: MaximalParabolic) -> int:
    """Real dimension of the nilpotent radical: n for P1, 2n-3 for P2."""
    return g.n if p is MaximalParabolic.P1 else 2 * g.n - 3


@dataclass(frozen=True)
class LeviFactor:
    """One simple/abelian factor of a Levi subgroup, e.g. SO(2) or SO(5,1)^+."""

    name: str  # "SO", "SO+", "SL2R"
    params: tuple[int, ...]

    def render(self) -> str:
        if self.name == "SL2R":
            return "SL2(R)"
        body = ",".join(str(x) for x in self.params)
        return f"SO({body})" + ("^+" if self.name == "SO+" else "")


@dataclass(frozen=True)
class LeviSubgroup:
    index: int
    factors: tuple[LeviFactor, ...]

    def render(self) -> str:
        grouped: list[str] = []
        i = 0
        while i < len(self.factors):
            j = i
            while j < len(self.factors) and self.factors[j] == self.factors[i]:
                j += 1
            text = self.factors[i].render()
            grouped.append(text if j - i == 1 else f"{text}^{j - i}")
            i = j
        return "x".join(grouped) if grouped else "1"


def levi_subgroups(g: GroupSpec, p: MaximalParabolic) -> tuple[LeviSubgroup, ...]:
    """Levi subgroups of the θ-stable parabolics that carry cohomology."""
    k = g.k
    so2 = LeviFactor("SO", (2,))
    if p is MaximalParabolic.P2:
        return (
            LeviSubgroup(0, (LeviFactor("SL2R", ()), LeviFactor("SO", (g.n - 2,)))),
            LeviSubgroup(k - 1, (so2,) * (k - 1)),
        )
    out = []
    if g.is_odd:
        for i in range(0, k - 1):
            out.append(
                LeviSubgroup(i, (so2,) * i + (LeviFactor("SO+", (2 * (k - i - 1), 1)),))
            )
        out.append(LeviSubgroup(k - 1, (so2,) * (k - 1)))
    else:
        for i in range(0, k - 1):
            out.append(
                LeviSubgroup(i, (so2,) * i + (LeviFactor("SO+", (2 * k - 2 * i - 3, 1)),))
            )
    return tuple(out)


def cuspidal_degrees(g: GroupSpec, p: MaximalParabolic) -> frozenset[int]:
    """Degrees in which the cuspidal classes on the Levi live."""
    if p is MaximalParabolic.P2:
        return frozenset({1})
    if g.is_odd:
        return frozenset({g.k - 1})
    return frozenset({g.k - 2, g.k - 1})


@dataclass(frozen=True)
class VanishingBounds:
    l0: int
    q0: int
    vcd: int


def vanishing_bounds(g: GroupSpec) -> VanishingBounds:
    """(l0, q0, vcd) = (0, n, 2n-2)."""
    return VanishingBounds(0, g.n, 2 * g.n - 2)
