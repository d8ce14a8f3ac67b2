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
from operator import add, mul, sub
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

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
    doubled_epsilon,
)
from .weylgroup import (
    Columns,
    WeylWord,
    identity_matrix,
    times_generator,
    word_action_matrix,
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
    """Record of one word, its action matrix built from scratch; checks that it is in W^P."""
    cols = tuple(zip(*word_action_matrix(g.datum, word)))
    shifted = _ShiftedWeight(_symbolic_or_given(g, lam))
    return _read_record(g, p, word, _action(cols, shifted, _levi_split(g, p)[2]), shifted)


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


# --- records from integer action matrices --------------------------------------
#
# Every record is read off the ϖ-action matrix A of w and λ+ρ written as
# integer rows over one denominator.  The walk carries A along its edges:
# a node's matrix is its parent's times one generator, A_{u·s_j} = A_u·S_j
# (weylgroup.times_generator), which changes column j only, so matrices are
# kept as column tuples, and the vectors read off A (_Action) move by column
# j's change alone.  kostant_record builds A and them from scratch instead.
#   w(λ+ρ)_i = Σ_j A[i][j]·(λ_j + 1),   wρ = row sums of A.


def _length_of(datum: RootDatum, w_rho: Sequence[int]) -> int:
    """l(w) = #{β > 0 : (wρ, β) < 0}, from wρ in ϖ-coordinates.

    With x the doubled ε-coordinates of wρ that counts the pairs i < j with
    x_i < x_j or x_i + x_j < 0 (and for B_k the i with x_i < 0), each j's
    pairs by bisection in the sorted x_i before it.
    """
    x = doubled_epsilon(datum, w_rho)
    count = sum(1 for v in x if v < 0) if datum.kind is DynkinKind.B else 0
    before: list[int] = []
    for xj in x:
        count += bisect_left(before, xj) + bisect_left(before, -xj)
        insort(before, xj)
    return count


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


class _ShiftedWeight:
    """λ+ρ as integer rows over one denominator.

    ``λ_i + 1 = (const[i] + Σ s·λ_c) / den``, where ``columns`` lists, for each
    variable λ_c that occurs, its nonzero entries ``(i, s)`` (0-based i), and
    ``variables`` those c in the same order.
    """

    def __init__(self, lam: Weight):
        coords = lam.coords
        self.nvars = coords[0].nvars
        if any(f.nvars != self.nvars for f in coords):
            raise DimensionError("the coordinates of λ have different numbers of variables")
        self.den = den = math.lcm(
            *(f.constant.denominator for f in coords),
            *(c.denominator for f in coords for _, c in f.coeffs),
        )
        self.const = tuple(int((f.constant + 1) * den) for f in coords)
        columns: dict[int, list[tuple[int, int]]] = {}
        for i, f in enumerate(coords):
            for c, s in f.coeffs:
                columns.setdefault(c, []).append((i, int(s * den)))
        self.columns = tuple((c, tuple(terms)) for c, terms in sorted(columns.items()))
        self.variables = tuple(c for c, _ in self.columns)


def _combination(cols: Columns, terms: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """``Σ s·cols[i]`` over the ``(i, s)`` in ``terms``."""
    (i, s), *rest = terms
    acc = cols[i] if s == 1 else tuple(s * x for x in cols[i])
    for i, s in rest:
        acc = tuple(x + s * y for x, y in zip(acc, cols[i]))
    return acc


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


class _Action(NamedTuple):
    """An action matrix A, as columns, with the vectors the record reads off it:
    ``w_rho`` = A·1 (that is wρ), ``const`` = A·lam.const (the constant column of
    den·w(λ+ρ)) and ``a`` = a_weights·A (one entry per column of A)."""

    cols: Columns
    w_rho: tuple[int, ...]
    const: tuple[int, ...]
    a: tuple[int, ...]


def _action(cols: Columns, lam: _ShiftedWeight, a_weights: Sequence[int]) -> _Action:
    """The vectors of A from scratch, one dot product per entry."""
    rows = tuple(zip(*cols))
    return _Action(
        cols,
        tuple(map(sum, rows)),
        tuple(_dot(row, lam.const) for row in rows),
        tuple(_dot(a_weights, col) for col in cols),
    )


def _action_step(
    datum: RootDatum, act: _Action, j: int, lam: _ShiftedWeight, a_weights: Sequence[int]
) -> _Action:
    """The vectors of A·S_j from those of A: only column j changes, by ``step``."""
    cols = times_generator(datum, act.cols, j)
    step = tuple(map(sub, cols[j - 1], act.cols[j - 1]))
    scale = lam.const[j - 1]
    return _Action(
        cols,
        tuple(map(add, act.w_rho, step)),
        tuple(map(add, act.const, step if scale == 1 else [scale * x for x in step])),
        act.a[: j - 1] + (_dot(a_weights, cols[j - 1]),) + act.a[j:],
    )


def _read_record(
    g: GroupSpec, p: MaximalParabolic, word: WeylWord, act: _Action, lam: _ShiftedWeight
) -> KostantRecord:
    """The record of w from its action matrix A (with its vectors) and λ+ρ.

    Raises unless w ∈ W^P, i.e. the ϖ_j-coordinate of wρ is > 0 for every
    uncrossed j.  Each λ-column of A·(λ+ρ) is a combination of A's columns,
    and the 𝔞-row is ``act.a`` applied to λ+ρ.
    """
    crossed, b_rows, _, rho_a = _levi_split(g, p)
    w_rho = act.w_rho
    if min(w_rho[: crossed - 1] + w_rho[crossed:], default=1) <= 0:
        j = next(j for j, x in enumerate(w_rho, 1) if j != crossed and x <= 0)
        raise NotCosetRepresentativeError(
            f"word {word} is not minimal for the parabolic (fails at α_{j})"
        )
    length = _length_of(g.datum, w_rho)
    # den·w(λ+ρ) = act.const + Σ_c moved_cols[c]·λ_c; its row i is act.const[i], moved_rows[i]
    den, variables, a = lam.den, lam.variables, act.a
    moved_cols = [_combination(act.cols, terms) for _, terms in lam.columns]
    moved_rows = tuple(zip(*moved_cols)) if moved_cols else ((),) * g.k
    a_coeffs = [sum(s * a[i] for i, s in terms) for _, terms in lam.columns]
    mu = tuple(_integer_form(variables, act.const[r] - den, moved_rows[r]) for r in b_rows)
    a_row = _integer_form(variables, _dot(a, lam.const), a_coeffs)  # 2·den·a_raw
    even_p1 = (not g.is_odd) and p is MaximalParabolic.P1
    excluded = even_p1 and length == g.k - 1
    return KostantRecord(
        word=tuple(word),
        length=length,
        nvars=lam.nvars,
        mu_rows=mu,
        mu_den=den,
        a_row=a_row,
        a_raw_den=2 * den,
        a_den=den * rho_a,
        holomorphy_guaranteed=2 * length >= nilradical_dim(g, p),
        needs_weight_constraint=even_p1 and not excluded,
        excluded_from_generation=excluded,
    )


def _walk_records(
    g: GroupSpec, p: MaximalParabolic, diagram: HasseDiagram, lam: _ShiftedWeight
) -> Iterator[KostantRecord]:
    """Records of every node from integer action matrices carried along the walk.

    A node's parent is the node whose word is its word minus the last letter:
    the source of the walk edge that discovered it.  The nodes come in order
    of length, as the walk lists them, so only the matrices of the last two
    lengths are kept.  Besides the W^P check of :func:`_read_record`, each node
    must have length ``node.length``.
    """
    datum, a_weights = g.datum, _levi_split(g, p)[2]
    actions = {(): _action(identity_matrix(g.k), lam, a_weights)}
    depth = 0
    for node in diagram.nodes:
        word = node.word
        if len(word) > depth:
            depth = len(word)
            actions = {w: act for w, act in actions.items() if len(w) >= depth - 1}
        act = actions.get(word)
        if act is None:
            parent = actions.get(word[:-1])
            if parent is None:
                raise OrthoweylError(
                    f"word {word} has no parent {word[:-1]} earlier in the diagram"
                )
            act = actions[word] = _action_step(datum, parent, word[-1], lam, a_weights)
        record = _read_record(g, p, word, act, lam)
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
    :func:`_walk_records`, which holds the action matrices, not the records.
    """
    if diagram is None:
        diagram = build_hasse(parabolic_choice(g, p))
    return _walk_records(g, p, diagram, _ShiftedWeight(_symbolic_or_given(g, lam)))


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
