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
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from operator import itemgetter, neg
from typing import Callable, Iterator, Mapping, Sequence

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
    vanishing_bounds,
)
from .rootsystem import (
    DynkinKind,
    RootDatum,
    Weight,
    _eps_to_weight_vector,
    doubled_epsilon,
    simple_root_vector,
)
from .weylgroup import (
    WeylWord,
    encoded_inverse,
    left_action,
    sign_positions,
    word_length,
)

__all__ = [
    "KostantRecord",
    "GenerationEntry",
    "DegreeSupport",
    "ParabolicSummary",
    "ParabolicReport",
    "Report",
    "IntegerForm",
    "kostant_restriction",
    "evaluation_coefficient",
    "holomorphy_guaranteed",
    "degree_support",
    "kostant_record",
    "iter_records",
    "parabolic_summary",
    "report_summary",
    "full_report",
]


def _symbolic_or_given(g: GroupSpec, lam: Weight | None) -> Weight:
    if lam is None:
        return Weight.symbolic(g.k)
    if lam.rank != g.k:
        raise DimensionError(f"highest weight needs {g.k} coordinates, got {lam.rank}")
    return lam


def kostant_restriction(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, lam: Weight | None = None
) -> tuple[LinearForm, ...]:
    """Restricted Levi highest weight ``(w(λ+ρ) - ρ)|_𝔟`` as k-1 linear forms."""
    return kostant_record(g, p, word, lam).mu_restricted


def raw_evaluation_coefficient(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, lam: Weight | None = None
) -> LinearForm:
    """The 𝔞-side scalar of ``-w(λ+ρ)``, before normalization."""
    return kostant_record(g, p, word, lam).a_raw


def evaluation_coefficient(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, lam: Weight | None = None
) -> LinearForm:
    """Normalized coefficient a with evaluation point a·ρ|_𝔞."""
    return kostant_record(g, p, word, lam).a_normalized


def holomorphy_guaranteed(g: GroupSpec, p: MaximalParabolic, word: WeylWord) -> bool:
    """Length criterion ``2·l(w) >= dim N_P`` (maximal parabolic case)."""
    return 2 * word_length(g.datum, word) >= nilradical_dim(g, p)


#: ``(constant, ((i, x), ...))``: the numerators of ``constant + Σ x·λ_i`` over a
#: denominator held beside it, the terms in ascending i and none of them zero.
IntegerForm = tuple[int, tuple[tuple[int, int], ...]]


def _linear_form(nvars: int, form: IntegerForm, den: int) -> LinearForm:
    constant, terms = form
    coeffs = tuple((i, Fraction(x, den)) for i, x in terms)
    return LinearForm(nvars, Fraction(constant, den), coeffs)


@dataclass(frozen=True)
class KostantRecord:
    """Everything the tables carry for one minimal coset representative.

    The weights are integer numerators over their denominators: ``mu_rows``
    (one per 𝔟-coordinate) over ``mu_den``, and the one 𝔞-row ``a_row`` over
    ``a_raw_den`` for the raw coefficient and over ``a_den`` for the
    normalized one.  ``mu_restricted``, ``a_raw`` and ``a_normalized`` are
    the same values as :class:`LinearForm` views, built at their first read.
    """

    word: WeylWord
    length: int
    nvars: int
    mu_rows: tuple[IntegerForm, ...]
    mu_den: int
    a_row: IntegerForm
    a_raw_den: int
    a_den: int
    holomorphy_guaranteed: bool
    # Even case, first parabolic: contributes only under λ_{k-1} = λ_k ...
    needs_weight_constraint: bool
    # ... and the two representatives of length k-1 never contribute.
    excluded_from_generation: bool

    @cached_property
    def mu_restricted(self) -> tuple[LinearForm, ...]:
        return tuple(_linear_form(self.nvars, row, self.mu_den) for row in self.mu_rows)

    @cached_property
    def a_raw(self) -> LinearForm:
        return _linear_form(self.nvars, self.a_row, self.a_raw_den)

    @cached_property
    def a_normalized(self) -> LinearForm:
        return _linear_form(self.nvars, self.a_row, self.a_den)


def kostant_record(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, lam: Weight | None = None
) -> KostantRecord:
    """Record of one word, its u = w⁻¹ from :func:`encoded_inverse`; checks that it is in W^P."""
    u = encoded_inverse(*left_action(g.datum), word)
    return _read_record(g, p, word, u, _ShiftedWeight(g, p, _symbolic_or_given(g, lam)))


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
class ParabolicSummary:
    parabolic: MaximalParabolic
    coset_count: int
    histogram: tuple[tuple[int, int], ...]
    class_label: str
    cuspidal_degrees: tuple[int, ...]
    levi_subgroups: tuple[LeviSubgroup, ...]
    support: DegreeSupport
    weight_constraint: str | None


@dataclass(frozen=True)
class ParabolicReport(ParabolicSummary):
    records: tuple[KostantRecord, ...]


@dataclass(frozen=True)
class Report:
    n: int
    k: int
    parity: str
    bounds: VanishingBounds
    lambda_assignment: tuple[Fraction, ...] | None
    # ParabolicReports from full_report, ParabolicSummaries from report_summary
    parabolics: tuple[ParabolicSummary, ...]


def _class_label(g: GroupSpec, p: MaximalParabolic) -> str:
    if p is MaximalParabolic.P1 and not g.is_odd:
        return f"π_{g.k - 2}(μ)"
    return f"π_{g.k - 1}(μ)"


# --- records from w⁻¹ as a signed permutation ------------------------------------
#
# Every record is read off u = w⁻¹, the 2k bytes of weylgroup's signed-permutation
# model, and λ+ρ.  The walk carries u along its edges: a node's u is its parent's
# with one generator applied on the left, s_j∘u = u.translate(tables[j-1]), and
# kostant_record takes u from encoded_inverse of its word instead.  Row r of
# w(λ+ρ) is <λ+ρ, u(α_r^∨)>, and the coroot u(α_r^∨) is ε_x - ε_y for the signed
# indices x, y that two bytes of u name: u(ε_r), u(ε_{r+1}) below the last node,
# and at it u(ε_{k-1}), u(-ε_k) for D_k (ε_x + ε_y) and u(ε_k), u(-ε_k) for B_k
# (2ε_x).  So a row is (E[x] - E[y])/2 with E = 2(λ+ρ) in ε-coordinates, indexed
# by byte, and wρ is the gather of 2ρ by u's first k bytes.


def _length_of(datum: RootDatum, x: Sequence[int]) -> int:
    """l(w) = #{β > 0 : (wρ, β) < 0}, from x = 2wρ in ε-coordinates.

    That counts the pairs i < j with x_i < x_j or x_i + x_j < 0 (and for B_k
    the i with x_i < 0), each j's pairs by bisection in the sorted x_i before it.
    """
    count = sum(1 for v in x if v < 0) if datum.kind is DynkinKind.B else 0
    before: list[int] = []
    for xj in x:
        count += bisect_left(before, xj) + bisect_left(before, -xj)
        insort(before, xj)
    return count


class _ShiftedWeight(dict):
    """λ+ρ for the records of one parabolic, as integers over one denominator ``den``.

    ``const`` is den·(λ+ρ)'s constant column in ϖ-coordinates.  ``eps[b]`` is
    den·2(λ+ρ) at the ε-coordinate of byte b's signed index, as the tuple
    (constant, coefficient of each λ_c in ``variables``), and ``rho[b]`` is 2ρ
    there.  ``positions[r]`` are the two bytes of u that name row r+1.  As a
    dict, it maps each pair of bytes (x, y) to the 𝔟-row den·((E[x] - E[y])/2 - 1)
    of :class:`KostantRecord`, built at its first read and kept until the table
    is emptied.  The Levi split is read once, here: :func:`_levi_split`'s ``crossed``
    and ``rho_a``, and :func:`_gathers`' ``firsts``, ``seconds`` and ``a_terms``.
    """

    def __init__(self, g: GroupSpec, p: MaximalParabolic, lam: Weight):
        super().__init__()
        datum = g.datum
        coords = lam.coords
        self.nvars = coords[0].nvars
        if any(f.nvars != self.nvars for f in coords):
            raise DimensionError("the coordinates of λ have different numbers of variables")
        self.den = den = math.lcm(
            *(f.constant.denominator for f in coords),
            *(c.denominator for f in coords for _, c in f.coeffs),
        )
        columns: dict[int, list[int]] = {}
        for i, f in enumerate(coords):
            for c, s in f.coeffs:
                columns.setdefault(c, [0] * datum.rank)[i] = int(s * den)
        self.variables = tuple(sorted(columns))
        self.const = tuple(int((f.constant + 1) * den) for f in coords)
        vectors = [self.const, *(columns[c] for c in self.variables)]
        # byte m is ε_m's, byte 2k+1-m (that is, of -m) its negative; byte 0 is unused
        eps = list(zip(*(doubled_epsilon(datum, v) for v in vectors)))
        self.eps = [(), *eps, *(tuple(map(neg, e)) for e in reversed(eps))]
        rho = doubled_epsilon(datum, [1] * datum.rank)
        self.rho = [0, *rho, *map(neg, reversed(rho))]
        alphas = (simple_root_vector(datum, r) for r in range(1, datum.rank + 1))
        self.positions = tuple(sign_positions(datum, alpha) for alpha in alphas)
        self.crossed, b_rows, a_weights, self.rho_a = _levi_split(g, p)
        self.firsts, self.seconds, self.a_terms = _gathers(self.positions, b_rows, a_weights)

    def __missing__(self, pair: tuple[int, int]) -> IntegerForm:
        constant, *coeffs = [(x - y) // 2 for x, y in zip(self.eps[pair[0]], self.eps[pair[1]])]
        row = self[pair] = _integer_form(self.variables, constant - self.den, coeffs)
        return row


def _integer_form(
    variables: tuple[int, ...], constant: int, coeffs: Sequence[int]
) -> IntegerForm:
    """``constant`` and the nonzero ``coeffs``, each with its variable (that of coeffs[m] is
    variables[m])."""
    return constant, tuple(zip(compress(variables, coeffs), filter(None, coeffs)))


@lru_cache(maxsize=None)
def _levi_split(
    g: GroupSpec, p: MaximalParabolic
) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """The crossed node, the 0-based 𝔟-rows, the 𝔞-weights and the integer 2·ρ|_𝔞.

    The 𝔞-weights are -2 × the weight of each coordinate in the 𝔞-coefficient
    (cf. restrict), so that with x = Σ_i a_weights[i]·w(λ+ρ)_i the record has
    a_raw = -a = x/2 and a_normalized = a_raw/ρ|_𝔞 = x/(2·ρ|_𝔞).
    """
    (crossed,) = crossed_simple_roots(g, p)
    halves = half_positions(g, p)
    b_rows = tuple(i for i in range(g.k) if i != crossed - 1)
    a_weights = tuple(-1 if i in halves else -2 for i in range(1, g.k + 1))
    return crossed, b_rows, a_weights, int(2 * levi_rho_coefficient(g, p))


def _gathers(
    positions: tuple[tuple[int, int], ...], b_rows: tuple[int, ...], a_weights: tuple[int, ...]
) -> tuple[Callable[[bytes], tuple[int, ...]], Callable[[bytes], tuple[int, ...]], tuple]:
    """What a record reads of u: the first and the second byte of each 𝔟-row, as two
    gathers, and the 𝔞-row Σ_r a_weights[r]·(E[u[x_r]] - E[u[y_r]])/2 collected by byte:
    the ``(position, weight)`` with 2·(𝔞-row) = Σ weight·E[u[position]].  A byte k+i
    holds u(-ε_{i+1}) = -u(ε_{i+1}), so its weight moves to byte i, negated."""
    k = len(positions)
    weights = [0] * k
    for a, pair in zip(a_weights, positions):
        for pos, sign in zip(pair, (a, -a)):
            weights[pos % k] += sign if pos < k else -sign
    firsts, seconds = zip(*(positions[r] for r in b_rows))
    a_terms = tuple((pos, x) for pos, x in enumerate(weights) if x)
    return itemgetter(*firsts), itemgetter(*seconds), a_terms


def _read_record(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, u: bytes, lam: _ShiftedWeight
) -> KostantRecord:
    """The record of w from u = w⁻¹ and λ+ρ.

    Raises unless w ∈ W^P, i.e. the ϖ_j-coordinate of wρ is > 0 for every
    uncrossed j.  The 𝔟-rows come from ``lam``'s table, one per byte pair, and
    the 𝔞-row is ``a_weights`` applied to the rows, gathered by byte.
    """
    crossed = lam.crossed
    x = [lam.rho[b] for b in u[: g.k]]  # 2wρ in ε-coordinates
    w_rho = _eps_to_weight_vector(g.datum, x)
    if min(w_rho[: crossed - 1] + w_rho[crossed:], default=1) <= 0:
        j = next(j for j, c in enumerate(w_rho, 1) if j != crossed and c <= 0)
        raise NotCosetRepresentativeError(
            f"word {word} is not minimal for the parabolic (fails at α_{j})"
        )
    length = _length_of(g.datum, x)
    mu = tuple(map(lam.__getitem__, zip(lam.firsts(u), lam.seconds(u))))
    total = [0] * (len(lam.variables) + 1)
    for pos, weight in lam.a_terms:
        total = [t + weight * e for t, e in zip(total, lam.eps[u[pos]])]
    constant, *coeffs = [t // 2 for t in total]  # den·(𝔞-row) = 2·den·a_raw
    a_row = _integer_form(lam.variables, constant, coeffs)
    even_p1 = (not g.is_odd) and p is MaximalParabolic.P1
    excluded = even_p1 and length == g.k - 1
    return KostantRecord(
        word=tuple(word),
        length=length,
        nvars=lam.nvars,
        mu_rows=mu,
        mu_den=lam.den,
        a_row=a_row,
        a_raw_den=2 * lam.den,
        a_den=lam.den * lam.rho_a,
        holomorphy_guaranteed=2 * length >= nilradical_dim(g, p),
        needs_weight_constraint=even_p1 and not excluded,
        excluded_from_generation=excluded,
    )


def _walk_records(
    g: GroupSpec, p: MaximalParabolic, diagram: HasseDiagram, lam: _ShiftedWeight
) -> Iterator[KostantRecord]:
    """Records of every node from u = w⁻¹ carried along the walk.

    A node's parent is the node whose word is its word minus the last letter:
    the source of the walk edge that discovered it.  The nodes come in order
    of length, as the walk lists them, so only the u of the last two lengths
    are kept, and ``lam``'s rows are emptied at each new length.  Besides the
    W^P check of :func:`_read_record`, each node must have length ``node.length``.
    """
    ident, tables = left_action(g.datum)
    inverses = {(): ident}
    depth = 0
    for node in diagram.nodes:
        word = node.word
        if len(word) > depth:
            depth = len(word)
            inverses = {w: u for w, u in inverses.items() if len(w) >= depth - 1}
            lam.clear()
        u = inverses.get(word)
        if u is None:
            parent = inverses.get(word[:-1])
            if parent is None:
                raise OrthoweylError(
                    f"word {word} has no parent {word[:-1]} earlier in the diagram"
                )
            u = inverses[word] = parent.translate(tables[word[-1] - 1])
        record = _read_record(g, p, word, u, lam)
        if record.length != node.length:
            raise OrthoweylError(
                f"word {word} has length {record.length}, but its node says {node.length}"
            )
        yield record


def iter_records(
    g: GroupSpec,
    p: MaximalParabolic,
    lam: Weight | None = None,
    diagram: HasseDiagram | None = None,
) -> Iterator[KostantRecord]:
    """The record of every node of W^P, in the walk's order, one at a time.

    ``lam`` is None (symbolic λ) or any weight of rank k; it is checked here,
    before the first record.  The records come from the integer walk of
    :func:`_walk_records`, which holds the inverses u = w⁻¹, not the records.
    """
    if diagram is None:
        diagram = build_hasse(parabolic_choice(g, p))
    return _walk_records(g, p, diagram, _ShiftedWeight(g, p, _symbolic_or_given(g, lam)))


def parabolic_summary(
    g: GroupSpec, p: MaximalParabolic, diagram: HasseDiagram | None = None
) -> ParabolicSummary:
    """Counts, histogram, supports and Levi data of W^P: everything but the records."""
    if diagram is None:
        diagram = build_hasse(parabolic_choice(g, p))
    even_p1 = (not g.is_odd) and p is MaximalParabolic.P1
    return ParabolicSummary(
        parabolic=p,
        coset_count=len(diagram.nodes),
        histogram=tuple(sorted(length_histogram(diagram).items())),
        class_label=_class_label(g, p),
        cuspidal_degrees=tuple(sorted(cuspidal_degrees(g, p))),
        levi_subgroups=levi_subgroups(g, p),
        support=degree_support(g, p),
        weight_constraint=f"λ{g.k - 1} = λ{g.k}" if even_p1 else None,
    )


def parabolic_report(
    g: GroupSpec,
    p: MaximalParabolic,
    lam: Weight | None = None,
    diagram: HasseDiagram | None = None,
) -> ParabolicReport:
    """:func:`parabolic_summary` with the records of every node of W^P, collected
    from :func:`iter_records`."""
    if diagram is None:
        diagram = build_hasse(parabolic_choice(g, p))
    records = tuple(iter_records(g, p, lam, diagram))
    return ParabolicReport(**vars(parabolic_summary(g, p, diagram)), records=records)


def regular_weight(g: GroupSpec, lam_values: Sequence[RationalLike]) -> Weight:
    """The numeric highest weight with these k coordinates, all of them > 0."""
    if len(lam_values) != g.k:
        raise DimensionError(
            f"highest weight needs {g.k} coordinates, got {len(lam_values)}"
        )
    assignment = tuple(Fraction(v) for v in lam_values)
    if not all(v > 0 for v in assignment):
        values = ", ".join(map(str, assignment))
        raise RegularityError(f"highest weight must be regular (all coordinates > 0): {values}")
    return Weight.from_constants(assignment, g.k)


def report_summary(
    g: GroupSpec,
    lam_values: Sequence[RationalLike] | None = None,
    diagrams: Mapping[MaximalParabolic, HasseDiagram] | None = None,
) -> Report:
    """:func:`full_report` without the records: its parabolics are the
    :class:`ParabolicSummary` of each, from ``diagrams`` when given."""
    diagrams = diagrams or {}
    return _report(g, lam_values, lambda p, lam: parabolic_summary(g, p, diagrams.get(p)))


def full_report(
    g: GroupSpec, lam_values: Sequence[RationalLike] | None = None
) -> Report:
    """One structured report for both maximal parabolics.

    ``lam_values`` of length k makes the report numeric; it must then be a
    regular weight (all coordinates > 0).  Without it everything stays
    symbolic in λ1, ..., λk.
    """
    return _report(g, lam_values, lambda p, lam: parabolic_report(g, p, lam))


def _report(
    g: GroupSpec,
    lam_values: Sequence[RationalLike] | None,
    parabolic: Callable[[MaximalParabolic, Weight | None], ParabolicSummary],
) -> Report:
    lam = None if lam_values is None else regular_weight(g, lam_values)
    return Report(
        n=g.n,
        k=g.k,
        parity="odd" if g.is_odd else "even",
        bounds=vanishing_bounds(g),
        lambda_assignment=None if lam is None else lam.constant_tuple(),
        parabolics=tuple(parabolic(p, lam) for p in (MaximalParabolic.P1, MaximalParabolic.P2)),
    )
