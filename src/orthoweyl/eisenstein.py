"""Per-representative weight data and degree bookkeeping.

For a minimal coset representative w and a highest weight λ (symbolic by
default) this module computes

  * the restricted weight of the Levi module attached to w by the nilpotent
    cohomology decomposition, ``(w(λ+ρ) - ρ)|_𝔟``;
  * the normalized evaluation coefficient a with ``-w(λ+ρ)|_𝔞 = a·ρ|_𝔞``
    (the raw 𝔞-coefficient is ``a`` times the ρ|_𝔞 scalar);
  * the length criterion ``2·l(w) >= dim N`` guaranteeing holomorphy of the
    associated Eisenstein series at that point;

and assembles, per parabolic, the degree support of the resulting cohomology
classes together with the counts, Levi lists and vanishing bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Sequence

from .errors import (
    DimensionError,
    NotCosetRepresentativeError,
    OrthoweylError,
    RegularityError,
)
from .hasse import HasseDiagram, build_hasse, length_histogram
from .linform import LinearForm, RationalLike
from .orthogroup import (
    GroupSpec,
    LeviSubgroup,
    MaximalParabolic,
    VanishingBounds,
    crossed_simple_roots,
    cuspidal_degrees,
    half_positions,
    levi_rho_coefficient,
    levi_subgroups,
    nilradical_dim,
    parabolic_choice,
    restrict,
    vanishing_bounds,
)
from .rootsystem import (
    DynkinKind,
    RootDatum,
    Weight,
    doubled_epsilon,
    positive_root_vectors,
    rho,
    simple_root_vector,
)
from .weylgroup import (
    Columns,
    WeylWord,
    apply_word,
    identity_matrix,
    mat_vec,
    times_generator,
    word_action_matrix,
    word_length,
)

__all__ = [
    "KostantRecord",
    "GenerationEntry",
    "DegreeSupport",
    "ParabolicReport",
    "Report",
    "kostant_restriction",
    "evaluation_coefficient",
    "holomorphy_guaranteed",
    "degree_support",
    "kostant_record",
    "full_report",
]


def _symbolic_or_given(g: GroupSpec, lam: Weight | None) -> Weight:
    if lam is None:
        return Weight.symbolic(g.k)
    if lam.rank != g.k:
        raise DimensionError(f"highest weight needs {g.k} coordinates, got {lam.rank}")
    return lam


def check_minimal_rep(g: GroupSpec, p: MaximalParabolic, word: WeylWord) -> None:
    """Raise unless w^{-1} sends every uncrossed simple root to a positive root."""
    datum = g.datum
    inv_matrix = word_action_matrix(datum, tuple(reversed(word)))
    posset = set(positive_root_vectors(datum))
    for j in range(1, g.k + 1):
        if j in crossed_simple_roots(g, p):
            continue
        if mat_vec(inv_matrix, simple_root_vector(datum, j)) not in posset:
            raise NotCosetRepresentativeError(
                f"word {word} is not minimal for the parabolic (fails at α_{j})"
            )


def kostant_restriction(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, lam: Weight | None = None
) -> tuple[LinearForm, ...]:
    """Restricted Levi highest weight ``(w(λ+ρ) - ρ)|_𝔟`` as k-1 linear forms."""
    check_minimal_rep(g, p, word)
    lam = _symbolic_or_given(g, lam)
    mu = apply_word(g.datum, word, lam + rho(g.datum)) - rho(g.datum)
    return restrict(g, p, mu).b_coords


def raw_evaluation_coefficient(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, lam: Weight | None = None
) -> LinearForm:
    """The 𝔞-side scalar of ``-w(λ+ρ)``, before normalization."""
    check_minimal_rep(g, p, word)
    lam = _symbolic_or_given(g, lam)
    moved = apply_word(g.datum, word, lam + rho(g.datum))
    return -restrict(g, p, moved).a_coefficient


def evaluation_coefficient(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, lam: Weight | None = None
) -> LinearForm:
    """Normalized coefficient a with evaluation point a·ρ|_𝔞."""
    return raw_evaluation_coefficient(g, p, word, lam) / levi_rho_coefficient(g, p)


def holomorphy_guaranteed(g: GroupSpec, p: MaximalParabolic, word: WeylWord) -> bool:
    """Length criterion ``2·l(w) >= dim N_P`` (maximal parabolic case)."""
    return 2 * word_length(g.datum, word) >= nilradical_dim(g, p)


@dataclass(frozen=True)
class KostantRecord:
    """Everything the tables carry for one minimal coset representative."""

    word: WeylWord
    length: int
    mu_restricted: tuple[LinearForm, ...]
    a_raw: LinearForm
    a_normalized: LinearForm
    holomorphy_guaranteed: bool
    # Even case, first parabolic: contributes only under λ_{k-1} = λ_k ...
    needs_weight_constraint: bool
    # ... and the two representatives of length k-1 never contribute.
    excluded_from_generation: bool


def kostant_record(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, lam: Weight | None = None
) -> KostantRecord:
    """Record of one word, replayed from scratch; checks that it is in W^P."""
    mu = kostant_restriction(g, p, word, lam)
    a_raw = raw_evaluation_coefficient(g, p, word, lam)
    return _record(g, p, word, word_length(g.datum, word), mu, a_raw)


def _record(
    g: GroupSpec,
    p: MaximalParabolic,
    word: WeylWord,
    length: int,
    mu: tuple[LinearForm, ...],
    a_raw: LinearForm,
) -> KostantRecord:
    even_p1 = (not g.is_odd) and p is MaximalParabolic.P1
    excluded = even_p1 and length == g.k - 1
    return KostantRecord(
        word=tuple(word),
        length=length,
        mu_restricted=mu,
        a_raw=a_raw,
        a_normalized=a_raw / levi_rho_coefficient(g, p),
        holomorphy_guaranteed=2 * length >= nilradical_dim(g, p),
        needs_weight_constraint=even_p1 and not excluded,
        excluded_from_generation=excluded,
    )


@dataclass(frozen=True)
class GenerationEntry:
    """One contribution: cuspidal degree d, length l, target degree q = d + l."""

    cuspidal_degree: int
    length: int
    degree: int


@dataclass(frozen=True)
class DegreeSupport:
    parabolic: MaximalParabolic
    q_min: int
    q_max: int
    generation: tuple[GenerationEntry, ...]
    weight_constraint_needed: bool


def degree_support(g: GroupSpec, p: MaximalParabolic) -> DegreeSupport:
    """Interval of degrees in which the summand is generated, with the (d,l) grid."""
    n, k = g.n, g.k
    if p is MaximalParabolic.P2:
        degrees = [1]
        lengths = range(n - 1, 2 * n - 2)
        q_max = 2 * n - 2
        constraint = False
    elif g.is_odd:
        degrees = [k - 1]
        lengths = range(k, n + 1)
        q_max = (3 * n - 1) // 2
        constraint = False
    else:
        degrees = [k - 2, k - 1]
        lengths = range(k, n + 1)
        q_max = 3 * n // 2
        constraint = True
    generation = tuple(
        GenerationEntry(d, l, d + l) for d in degrees for l in lengths
    )
    return DegreeSupport(p, n, q_max, generation, constraint)


@dataclass(frozen=True)
class ParabolicReport:
    parabolic: MaximalParabolic
    coset_count: int
    histogram: tuple[tuple[int, int], ...]
    class_label: str
    cuspidal_degrees: tuple[int, ...]
    levi_subgroups: tuple[LeviSubgroup, ...]
    support: DegreeSupport
    records: tuple[KostantRecord, ...]
    weight_constraint: str | None


@dataclass(frozen=True)
class Report:
    n: int
    k: int
    parity: str
    bounds: VanishingBounds
    lambda_assignment: tuple[Fraction, ...] | None
    parabolics: tuple[ParabolicReport, ...]


def _class_label(g: GroupSpec, p: MaximalParabolic) -> str:
    if p is MaximalParabolic.P1 and not g.is_odd:
        return f"π_{g.k - 2}(μ)"
    return f"π_{g.k - 1}(μ)"


# --- records along the walk ---------------------------------------------------
#
# The action matrix of a node is its parent's times one generator,
# A_{u·s_j} = A_u·S_j (weylgroup.times_generator), which changes column j
# only.  Matrices are kept as column tuples, so a node costs one new column,
# and every record is read off integer rows:
#   w(λ+ρ)_i = Σ_j A[i][j]·(λ_j + 1),   wρ = row sums of A.


def _length_of(datum: RootDatum, w_rho: Sequence[int]) -> int:
    """l(w) = #{β > 0 : (wρ, β) < 0}, from wρ in ϖ-coordinates."""
    x = doubled_epsilon(datum, w_rho)
    count = sum(1 for v in x if v < 0) if datum.kind is DynkinKind.B else 0
    for i, xi in enumerate(x):
        for xj in x[i + 1 :]:
            count += (xi < xj) + (xi + xj < 0)
    return count


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _form(
    nvars: int, constant: int, coeffs: Sequence[int], fraction: Callable[[int], Fraction]
) -> LinearForm:
    """``constant + Σ_j coeffs[j-1]·λ_j`` with each integer read through ``fraction``."""
    terms = tuple((j, fraction(c)) for j, c in enumerate(coeffs, 1) if c)
    return LinearForm(nvars, fraction(constant), terms)


def _walk_records(
    g: GroupSpec,
    p: MaximalParabolic,
    diagram: HasseDiagram,
    values: tuple[Fraction, ...] | None,
    nvars: int,
) -> tuple[KostantRecord, ...]:
    """Records of every node from integer action matrices carried along the walk.

    ``values`` is a numeric λ, or None for the symbolic one; the output forms
    live in ``nvars`` variables.  A node's parent is the node whose word is its
    word minus the last letter: the source of the walk edge that discovered
    it.  Each node is checked to lie in W^P (the ϖ_j-coordinate of wρ is > 0
    for every uncrossed j) and to have length ``node.length``.
    """
    datum = g.datum
    k = g.k
    (crossed,) = crossed_simple_roots(g, p)
    b_rows = [i for i in range(k) if i != crossed - 1]
    # -2 × the weight of each coordinate in the 𝔞-coefficient (cf. restrict),
    # so that a_raw = -a = Σ_i a_weights[i]·w(λ+ρ)_i / 2.
    halves = half_positions(g, p)
    a_weights = [-1 if i in halves else -2 for i in range(1, k + 1)]
    # Few distinct integers occur, so their Fractions are made once each.
    unit = lru_cache(maxsize=None)(Fraction)
    half = lru_cache(maxsize=None)(lambda c: Fraction(c, 2))
    if values is not None:
        # λ + ρ as integers over the common denominator den.
        den = math.lcm(*(v.denominator for v in values))
        shifted = [int((v + 1) * den) for v in values]
    matrices: dict[WeylWord, Columns] = {(): identity_matrix(k)}
    records = []
    for node in diagram.nodes:
        word = node.word
        cols = matrices.get(word)
        if cols is None:
            parent = matrices.get(word[:-1])
            if parent is None:
                raise OrthoweylError(
                    f"word {word} has no parent {word[:-1]} earlier in the diagram"
                )
            cols = matrices[word] = times_generator(datum, parent, word[-1])
        rows = tuple(zip(*cols))
        w_rho = [sum(row) for row in rows]
        for j in range(1, k + 1):
            if j != crossed and w_rho[j - 1] <= 0:
                raise NotCosetRepresentativeError(
                    f"word {word} is not minimal for the parabolic (fails at α_{j})"
                )
        length = _length_of(datum, w_rho)
        if length != node.length:
            raise OrthoweylError(
                f"word {word} has length {length}, but its node says {node.length}"
            )
        if values is None:
            mu = tuple(_form(nvars, w_rho[i] - 1, rows[i], unit) for i in b_rows)
            a_coeffs = [_dot(a_weights, col) for col in cols]
            a_raw = _form(nvars, _dot(a_weights, w_rho), a_coeffs, half)
        else:
            moved = [_dot(row, shifted) for row in rows]
            mu = tuple(LinearForm(nvars, Fraction(moved[i] - den, den), ()) for i in b_rows)
            a_raw = LinearForm(nvars, Fraction(_dot(a_weights, moved), 2 * den), ())
        records.append(_record(g, p, word, length, mu, a_raw))
    return tuple(records)


def parabolic_report(
    g: GroupSpec,
    p: MaximalParabolic,
    lam: Weight | None = None,
    diagram: HasseDiagram | None = None,
) -> ParabolicReport:
    """Counts, supports, Levi data and the records of every node of W^P.

    ``lam`` is None (symbolic λ) or a weight of rank k.  Records of symbolic
    and numeric λ come from the integer walk of :func:`_walk_records`; any
    other weight is replayed word by word through :func:`kostant_record`.
    """
    if diagram is None:
        diagram = build_hasse(parabolic_choice(g, p))
    if lam is None:
        records = _walk_records(g, p, diagram, None, g.k)
    elif _symbolic_or_given(g, lam).is_constant:
        nvars = lam.coords[0].nvars
        records = _walk_records(g, p, diagram, lam.constant_tuple(), nvars)
    else:
        records = tuple(kostant_record(g, p, node.word, lam) for node in diagram.nodes)
    even_p1 = (not g.is_odd) and p is MaximalParabolic.P1
    return ParabolicReport(
        parabolic=p,
        coset_count=len(diagram.nodes),
        histogram=tuple(sorted(length_histogram(diagram).items())),
        class_label=_class_label(g, p),
        cuspidal_degrees=tuple(sorted(cuspidal_degrees(g, p))),
        levi_subgroups=levi_subgroups(g, p),
        support=degree_support(g, p),
        records=records,
        weight_constraint=f"λ{g.k - 1} = λ{g.k}" if even_p1 else None,
    )


def regular_weight(g: GroupSpec, lam_values: Sequence[RationalLike]) -> Weight:
    """The numeric highest weight with these k coordinates, all of them > 0."""
    if len(lam_values) != g.k:
        raise DimensionError(
            f"highest weight needs {g.k} coordinates, got {len(lam_values)}"
        )
    assignment = tuple(Fraction(v) for v in lam_values)
    if not all(v > 0 for v in assignment):
        raise RegularityError(
            f"highest weight must be regular (all coordinates > 0): {assignment}"
        )
    return Weight.from_constants(assignment, g.k)


def full_report(
    g: GroupSpec, lam_values: Sequence[RationalLike] | None = None
) -> Report:
    """One structured report for both maximal parabolics.

    ``lam_values`` of length k makes the report numeric; it must then be a
    regular weight (all coordinates > 0).  Without it everything stays
    symbolic in λ1, ..., λk.
    """
    lam = None if lam_values is None else regular_weight(g, lam_values)
    reports = tuple(
        parabolic_report(g, p, lam)
        for p in (MaximalParabolic.P1, MaximalParabolic.P2)
    )
    return Report(
        n=g.n,
        k=g.k,
        parity="odd" if g.is_odd else "even",
        bounds=vanishing_bounds(g),
        lambda_assignment=None if lam is None else lam.constant_tuple(),
        parabolics=reports,
    )
