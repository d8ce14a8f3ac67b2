"""The independent references that the package's fast paths are checked against.

Each fast path in ``src/`` is compared, for equality, with a slower or
independent way of computing the same thing, over a stated range of n or of
data.  Every reference that lives only in the tests is defined here and
nowhere else; the test modules import it.  The table has one row per fast path.
A row with an empty first cell continues the row above it with another
reference.  A dotted name in the reference column is a reference that stays in
``src/``: the ϖ-matrix code and the factorial oracle (``word_action_matrix``,
``inversion_vectors``, ``enumerate_group``, ``minimal_reps_bruteforce``), which
the unedited acceptance tests import from ``orthoweyl.weylgroup``, and
``orthogroup.restrict``, the Levi split written out on ``LinearForm`` weights.
A test is named as ``module::function`` in ``tests/``.  ``test_reference.py``
checks the table against the code.

| fast path in src/ | reference | compared over | test |
|---|---|---|---|
| weylgroup.length_of | inversion_counter, _inversion_count, weylgroup.inversion_vectors | every element of B3..B6 and D4..D6, from group_layers | test_weylgroup::test_length_of_equals_the_references_on_every_element |
| | hasse.build_hasse | the stored length of every walk node, n = 5..61, both parabolics | test_weylgroup::test_length_of_equals_the_stored_length_on_every_walk_node |
| weylgroup.word_length | weylgroup.inversion_vectors | every word of length ≤ 5 of B3 and D4; every walk node, n = 5..21 | test_weylgroup::test_word_length_counts_the_inversion_set_of_every_short_word, test_weylgroup::test_word_length_counts_the_inversion_set_of_every_walk_node |
| weylgroup.apply_word | reflect_word, simple_reflection | Hypothesis: words of length ≤ 3k in 1..3 variables on B3, B4, D4, D5 | test_weylgroup::test_apply_word_equals_reflection_fold |
| weylgroup.generator_matrix | _reference_generator | every letter of B3, B4, D4, D5 | test_weylgroup::test_generator_matrix_equals_reference |
| | simple_reflection | every letter of B3 and D4, on the unit vectors | test_weylgroup::test_matrix_matches_reflection_on_basis |
| weylgroup.word_action_matrix | _reference_word_matrix | Hypothesis: words of length ≤ 12 on B3, B4, D4, D5; every walk word, n = 5..13 | test_weylgroup::test_word_action_matrix_equals_matrix_product, test_weylgroup::test_word_action_matrix_on_every_walk_word |
| | mat_mul | Hypothesis: pairs of words of length ≤ 6 on B3 | test_weylgroup::test_action_matrix_is_multiplicative, test_weylgroup::test_inverse_is_reversal |
| weylgroup.times_generator | mat_mul | Hypothesis: matrices with entries in -9..9 on B3, B4, D4, D5 | test_weylgroup::test_times_generator_is_right_multiplication |
| weylgroup.generator_permutations | _as_signed_permutation, weylgroup.generator_matrix | B3..B6, D4..D6, B12 and D12 | test_verification::test_generator_permutations_agree_with_generator_matrix |
| weylgroup.encoded_inverse | word_inverse | every walk node, n = 5..21 | test_verification::test_inversion_count_equals_inversion_vectors |
| weylgroup.left_action | _compose | Hypothesis: signed permutations of B3..B8 and D4..D8 | test_verification::test_translate_tables_equal_left_compose |
| weylgroup.right_gathers | right_multipliers, _compose | Hypothesis: signed permutations of B3..B8 and D4..D8 | test_verification::test_right_multipliers_equal_compose |
| weylgroup.sign_positions | _min_rule, _sends_positive | Hypothesis: signed permutations of B3..B8 and D4..D8, every root and its negative | test_verification::test_sends_positive_equals_min_rule |
| weylgroup.group_layers | group_closure | B3..B6 and D4..D6, order and layers | test_verification::test_layers_concatenate_to_the_closure |
| | _compose_closure, signed_permutation_closure | B3..B6 and D4..D6, lengths included | test_verification::test_closure_equals_compose_closure |
| | weylgroup.enumerate_group, _as_signed_permutation | the order of B3..B6 and D4..D6; elements and lengths up to rank 5 | test_verification::test_closure_is_the_enumerated_group |
| | _negative_image_count, _root_terms | B3..B6 and D4..D6 | test_verification::test_closure_length_is_the_inversion_count |
| weylgroup.minimal_inverses | weylgroup.minimal_reps_bruteforce, _as_signed_permutation | n = 5..10, both parabolics, the walk's inverses too | test_verification::test_oracle_set_equals_bruteforce |
| hasse.build_hasse | _inversion_set_walk | n = 5..31, both parabolics | test_hasse::test_walk_equals_inversion_set_walk |
| | weylgroup.minimal_reps_bruteforce | every crossed set of B3, B4 and D4; two of B5 and two of D5 | test_hasse::test_walk_matches_oracle_for_every_crossing, test_hasse::test_walk_matches_oracle_sampled_rank5_crossings |
| hasse.with_bruhat_covers | _coroot_covers, literal_coroot_vectors | n = 5..41, both parabolics; every crossed set of B3..B5, D4 and D5; the error with each node dropped at P2 of B3 and D4 and at {4} of B4 | test_hasse::test_covers_equal_coroot_reference, test_hasse::test_covers_equal_coroot_reference_at_every_crossing, test_hasse::test_orbit_not_closed_names_the_weights_as_the_reference |
| | _matrix_covers, to_epsilon, mat_mul | n = 5..15, both parabolics | test_hasse::test_covers_equal_matrix_method |
| rootsystem.doubled_epsilon | to_epsilon | Hypothesis: vectors in -6..6 on B3, D4, B5, D6 | test_rootsystem::test_doubled_epsilon_is_twice_to_epsilon |
| | literal_doubled_fundamentals | the fundamental weights of B3..B12 and D4..D12 | test_rootsystem::test_coroot_vectors_equal_literal_rows |
| eisenstein.iter_records, eisenstein.kostant_record | reference_record, orthogroup.restrict | every node, n = 5..13, at symbolic, numeric and mixed λ; n = 7, P2, at two more λ; the words the reader refuses at n = 5 | test_eisenstein::test_walk_records_equal_word_replay, test_eisenstein::test_walk_records_other_weights_match_replay, test_eisenstein::test_reference_rejects_what_the_reader_rejects |
| | matrix_record, weylgroup.word_action_matrix | every node at symbolic λ, n = 5..41; at numeric and mixed λ, n = 5, 6, 13, 14, 40, 41 | test_eisenstein::test_records_equal_matrix_reference_symbolic, test_eisenstein::test_records_equal_matrix_reference_numeric_and_mixed |
| verification._recombination | _reference_recombination, orthogroup.restrict | n = 5..13; with a changed basis or split at n = 7 and n = 5..12 | test_verification::test_recombination_equals_linear_form_reference, test_verification::test_recombination_mutation_fails_as_the_reference, test_verification::test_recombination_checks_the_records_split |
| | _randint_recombination | n = 5..13; with a changed basis at n = 5, 6, 7, 10 | test_verification::test_recombination_equals_randint_reference, test_verification::test_recombination_failure_leaves_the_randint_state |
| verification._trial_values | random.Random.randint | Hypothesis: seeds below 2^64, up to 400 draws | test_verification::test_trial_values_equal_randint |
| linform.render_form | reference_render | Hypothesis: 1..8 variables, numerators in ±1000, denominators 1..60 | test_linform::test_integer_renderer_equals_fraction_renderer |
"""

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import gt, itemgetter, mul

import orthoweyl.verification as verification
from orthoweyl.eisenstein import iter_records, kostant_record
from orthoweyl.errors import (
    DimensionError,
    IndexRangeError,
    NotCosetRepresentativeError,
    OrthoweylError,
)
from orthoweyl.hasse import HasseDiagram, HasseNode, ParabolicChoice, build_hasse
from orthoweyl.linform import LinearForm
from orthoweyl.orthogroup import (
    GroupSpec,
    MaximalParabolic,
    crossed_simple_roots,
    group_spec,
    half_positions,
    levi_rho_coefficient,
    nilradical_dim,
    parabolic_choice,
    restrict,
)
from orthoweyl.rootsystem import (
    DynkinKind,
    RootDatum,
    Weight,
    _eps_positive_roots,
    _eps_to_weight_vector,
    doubled_epsilon,
    positive_root_vectors,
    reflect_vector,
    simple_root_vector,
)
from orthoweyl.verification import PARABOLICS
from orthoweyl.weylgroup import (
    Matrix,
    identity_matrix,
    inversion_vectors,
    mat_vec,
    sign_positions,
    times_generator,
    word_action_matrix,
)


# --- ϖ-coordinate matrices and LinearForm reflections -------------------------
#
# The package acts on ϖ-coordinates by integer column updates and reflects no
# LinearForm weight; these are the full products and the letter-by-letter fold.


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Reference matrix product, for checking the column-update action."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _reference_generator(datum, j):
    """S_j entry by entry: δ_{i,jj} - <α_j, α_i^∨>·δ_{jj,j}."""
    k = datum.rank
    row = datum.cartan[j - 1]
    return tuple(
        tuple((1 if i == jj else 0) - (row[i] if jj == j - 1 else 0) for jj in range(k))
        for i in range(k)
    )


def _reference_word_matrix(datum, word):
    """S_{i1}·…·S_{im} as a product of full matrices."""
    mats = [_reference_generator(datum, j) for j in word]
    return reduce(mat_mul, mats, identity_matrix(datum.rank))


def simple_reflection(datum: RootDatum, j: int, w: Weight) -> Weight:
    """Apply s_j: ``c_i -> c_i - c_j * <α_j, α_i^∨>``."""
    if not 1 <= j <= datum.rank:
        raise IndexRangeError(f"reflection index {j} outside 1..{datum.rank}")
    if w.rank != datum.rank:
        raise DimensionError(f"weight rank {w.rank} != datum rank {datum.rank}")
    cj = w.coords[j - 1]
    if cj == LinearForm.zero(cj.nvars):
        return w
    row = datum.cartan[j - 1]
    return Weight(tuple(c - cj.scale(row[i]) if row[i] else c for i, c in enumerate(w.coords)))


def reflect_word(datum: RootDatum, word, w: Weight) -> Weight:
    """The fold of :func:`simple_reflection` over ``word``, rightmost letter first."""
    for j in reversed(word):
        w = simple_reflection(datum, j, w)
    return w


# --- ε-coordinates, written out by hand ---------------------------------------


@dataclass(frozen=True)
class EpsWeight:
    """Vector of linear forms in the ε functional basis."""

    coords: tuple[LinearForm, ...]

    @property
    def rank(self) -> int:
        return len(self.coords)


def to_epsilon(datum: RootDatum, w: Weight) -> EpsWeight:
    """Change of basis from fundamental-weight to ε-coordinates (B and D)."""
    k = datum.rank
    if w.rank != k:
        raise DimensionError(f"weight rank {w.rank} != datum rank {k}")
    c = w.coords
    half = Fraction(1, 2)
    out: list[LinearForm] = []
    if datum.kind is DynkinKind.B:
        # ϖ_i = ε_1+...+ε_i (i<k), ϖ_k = (ε_1+...+ε_k)/2.
        for j in range(1, k + 1):
            acc = c[k - 1].scale(half)
            for i in range(j, k):
                acc = acc + c[i - 1]
            out.append(acc)
    else:
        # ϖ_i = ε_1+...+ε_i (i<=k-2), ϖ_{k-1/k} = (ε_1+...+ε_{k-1} ∓ ε_k)/2.
        for j in range(1, k - 1):
            acc = (c[k - 2] + c[k - 1]).scale(half)
            for i in range(j, k - 1):
                acc = acc + c[i - 1]
            out.append(acc)
        out.append((c[k - 2] + c[k - 1]).scale(half))
        out.append((c[k - 1] - c[k - 2]).scale(half))
    return EpsWeight(tuple(out))


def from_epsilon(datum: RootDatum, ew: EpsWeight) -> Weight:
    """Inverse of :func:`to_epsilon`."""
    k = datum.rank
    b = ew.coords
    out = [b[i - 1] - b[i] for i in range(1, k - 1)]
    if datum.kind is DynkinKind.B:
        out += [b[k - 2] - b[k - 1], b[k - 1].scale(2)]
    else:
        out += [b[k - 2] - b[k - 1], b[k - 2] + b[k - 1]]
    return Weight(tuple(out))


def literal_doubled_fundamentals(datum: RootDatum) -> list[list[int]]:
    """Hand-written rows 2ϖ_i in ε-coordinates, i = 1..k."""
    k = datum.rank
    doubled = [[2 if r <= i else 0 for r in range(k)] for i in range(k)]
    doubled[k - 1] = [1] * k
    if datum.kind is DynkinKind.D:
        doubled[k - 2] = [1] * (k - 1) + [-1]
    return doubled


def literal_coroot_vectors(datum: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Positive coroots β^∨ as integer vectors m with ``<x, β^∨> = Σ_i x_i·m_i`` for x in
    ϖ-coordinates, from :func:`literal_doubled_fundamentals`: ``m_i = 2(ϖ_i, β)/(β, β)``.
    One vector per positive root, in the order of ``positive_root_vectors``."""
    doubled = literal_doubled_fundamentals(datum)
    out = []
    for beta in _eps_positive_roots(datum):
        norm = sum(b * b for b in beta)
        out.append(tuple(sum(w * b for w, b in zip(row, beta)) // norm for row in doubled))
    return tuple(out)


# --- the group as k-tuples of signed indices ----------------------------------
#
# ``weylgroup`` encodes each element as 2k bytes.  These tuple versions compose by
# definition and are the references the encoding is checked against.


def _compose(u, v):
    """u∘v: v acts first."""
    return tuple([u[x - 1] if x > 0 else -u[-x - 1] for x in v])


def word_inverse(gens, word):
    """w^{-1} = s_{im}∘…∘s_{i1} for the word (i1, …, im) of w."""
    u = tuple(range(1, len(gens[0]) + 1))
    for j in word:
        u = _compose(gens[j - 1], u)
    return u


def right_multipliers(gens):
    """For each s in ``gens``, u ↦ u∘s: gather u at |s(i)| - 1, then negate the
    entries where s(i) < 0."""
    out = []
    for s in gens:
        gather = [abs(x) - 1 for x in s]
        flips = {i for i, x in enumerate(s) if x < 0}
        out.append(
            lambda u, gather=gather, flips=flips: tuple(
                -u[m] if i in flips else u[m] for i, m in enumerate(gather)
            )
        )
    return out


def _root_terms(datum, root):
    """The nonzero ε-coordinates of twice a ϖ-coordinate root, as (index, value) pairs."""
    return [(i, c) for i, c in enumerate(doubled_epsilon(datum, root)) if c]


def _sends_positive(u, terms):
    """Whether u maps the root with these one or two ε-terms to a positive root:
    the sign of the image term with the smallest ε-index."""
    if len(terms) == 1:
        ((i, c),) = terms
        return (u[i] > 0) == (c > 0)
    (i, c), (m, d) = terms
    x, y = u[i], u[m]
    return (x > 0) == (c > 0) if abs(x) < abs(y) else (y > 0) == (d > 0)


def _min_rule(u, terms):
    """The sign of the image term with the smallest ε-index, found by ``min``."""
    _, c = min((abs(u[i]), c if u[i] > 0 else -c) for i, c in terms)
    return c > 0


def _inversion_count(u, roots):
    """#{β in ``roots`` : u(β) < 0}."""
    return sum(not _sends_positive(u, terms) for terms in roots)


def _negative_image_count(u, roots):
    """#{β in ``roots`` : u(β) < 0}, building the whole ε-vector of u(β)."""
    count = 0
    for terms in roots:
        image = [0] * len(u)
        for i, c in terms:
            image[abs(u[i]) - 1] += c if u[i] > 0 else -c
        count += next(x for x in image if x) < 0
    return count


def inversion_counter(datum):
    """u ↦ #{β > 0 : u(β) < 0}; for u = w^{-1} that is the inversion set's size, l(w).
    One comparison of two bytes of u per positive root (``sign_positions``)."""
    firsts, seconds = zip(*[sign_positions(datum, beta) for beta in positive_root_vectors(datum)])
    first, second = itemgetter(*firsts), itemgetter(*seconds)
    return lambda u: sum(map(gt, first(u), second(u)))


def _as_signed_permutation(datum, matrix):
    """The signed permutation of ε_1..ε_k that a ϖ-coordinate action matrix is."""
    k = datum.rank
    perm = []
    for i in range(k):
        unit = [int(m == i) for m in range(k)]
        image = doubled_epsilon(datum, mat_vec(matrix, _eps_to_weight_vector(datum, unit)))
        ((m, x),) = [(m, x) for m, x in enumerate(image) if x]
        assert abs(x) == 2
        perm.append(m + 1 if x > 0 else -(m + 1))
    return tuple(perm)


def signed_permutation_closure(gens):
    """The group generated by ``gens`` under right multiplication, each element with
    its breadth-first layer."""
    ident = tuple(range(1, len(gens[0]) + 1))
    times = right_multipliers(gens)
    length = {ident: 0}
    frontier = [ident]
    while frontier:
        fresh = []
        for u in frontier:
            for t in times:
                v = t(u)
                if v not in length:
                    length[v] = length[u] + 1
                    fresh.append(v)
        frontier = fresh
    return length


def _compose_closure(gens):
    """Breadth-first closure by ``_compose`` on the right, each element with its layer."""
    ident = tuple(range(1, len(gens[0]) + 1))
    length = {ident: 0}
    frontier = [ident]
    while frontier:
        fresh = []
        for u in frontier:
            for s in gens:
                v = _compose(u, s)
                if v not in length:
                    length[v] = length[u] + 1
                    fresh.append(v)
        frontier = fresh
    return length


def group_closure(ident, tables):
    """The group the ``tables`` generate, each element with its BFS layer, held whole:
    the closure ``group_layers`` streams."""
    length = {ident: 0}
    frontier = [ident]
    while frontier:
        l = length[frontier[0]] + 1
        fresh = []
        for u in frontier:
            for t in tables:
                v = u.translate(t)
                if v not in length:
                    length[v] = l
                    fresh.append(v)
        frontier = fresh
    return length


# --- the walk and the Bruhat covers -------------------------------------------


def _inversion_set_walk(p: ParabolicChoice) -> HasseDiagram:
    """The walk with an explicit inverse-inversion set per node.

    A letter α is taken when α is not in the node's set ("do not go back") and
    s_α moves the weight ("do not halt"); the child's set is {α} ∪ s_α(Φ).
    """
    datum = p.datum
    k = datum.rank
    delta = tuple(1 if i in p.crossed else 0 for i in range(1, k + 1))
    words, weights, inversions = [()], [delta], [frozenset()]
    index, edges = {delta: 0}, []
    frontier = [0]
    while frontier:
        next_frontier = []
        for node_id in sorted(frontier, key=lambda i: words[i]):
            x, inv = weights[node_id], inversions[node_id]
            for j in range(1, k + 1):
                alpha = simple_root_vector(datum, j)
                if alpha in inv or x[j - 1] == 0:
                    continue
                y = reflect_vector(datum, j, x)
                child = index.get(y)
                if child is None:
                    child = index[y] = len(words)
                    words.append(words[node_id] + (j,))
                    weights.append(y)
                    inversions.append(
                        frozenset({alpha} | {reflect_vector(datum, j, r) for r in inv})
                    )
                    next_frontier.append(child)
                edges.append((node_id, child, j))
        frontier = next_frontier
    nodes = tuple(
        HasseNode(i, words[i], weights[i], len(words[i])) for i in range(len(words))
    )
    return HasseDiagram(p, nodes, tuple(edges))


def _matrix_covers(h: HasseDiagram) -> tuple[tuple[int, int], ...]:
    """Covers as pairs (u, s_β·u) of group elements, compared as ϖ-action matrices."""
    datum = h.parabolic.datum
    k = datum.rank
    eps_fund = [
        [c.constant for c in to_epsilon(datum, Weight.from_constants(row)).coords]
        for row in identity_matrix(k)
    ]
    reflections = []
    for beta_eps, beta_w in zip(_eps_positive_roots(datum), positive_root_vectors(datum)):
        norm = sum(x * x for x in beta_eps)
        rows = []
        for i in range(k):
            row = []
            for j in range(k):
                t = Fraction(2 * sum(a * b for a, b in zip(eps_fund[j], beta_eps))) / norm
                entry = (1 if i == j else 0) - t * beta_w[i]
                assert entry.denominator == 1
                row.append(int(entry))
            rows.append(tuple(row))
        reflections.append(tuple(rows))
    matrices = [word_action_matrix(datum, node.word) for node in h.nodes]
    by_matrix = {m: node.id for m, node in zip(matrices, h.nodes)}
    covers = set()
    for node, m in zip(h.nodes, matrices):
        for refl in reflections:
            target = by_matrix.get(mat_mul(refl, m))
            if target is not None and h.nodes[target].length == node.length + 1:
                covers.add((node.id, target))
    return tuple(sorted(covers))


def _coroot_covers(h: HasseDiagram) -> HasseDiagram:
    """The covers as the package computed them in ϖ-coordinates, with the reference coroots.

    For every node x and positive root β with ``c = <x, β^∨> ≠ 0``, the node
    ``x − c·β`` is a cover when one length higher; the same errors as
    :func:`with_bruhat_covers`.
    """
    datum = h.parabolic.datum
    roots = tuple(zip(positive_root_vectors(datum), literal_coroot_vectors(datum)))
    index = {node.weight: node for node in h.nodes}
    covers = set()
    for node in h.nodes:
        x = node.weight
        for beta, coroot in roots:
            c = sum(a * b for a, b in zip(x, coroot))
            if c == 0:
                continue
            y = tuple(xi - c * bi for xi, bi in zip(x, beta))
            target = index.get(y)
            if target is None:
                raise OrthoweylError(f"orbit not closed: reflecting {x} gives {y}, not a node")
            if target.length == node.length + 1:
                covers.add((node.id, target.id))
    if not {(a, b) for a, b, _ in h.algo_edges} <= covers:
        raise OrthoweylError("walk edge missing from covers")
    return replace(h, cover_edges=tuple(sorted(covers)))


# --- the Kostant records ------------------------------------------------------


@dataclass(frozen=True)
class ReferenceRecord:
    """A record's values as LinearForms: the reader's records must give the same
    values through their views (``mu_restricted``, ``a_raw``, ``a_normalized``)."""

    word: tuple[int, ...]
    length: int
    mu_restricted: tuple[LinearForm, ...]
    a_raw: LinearForm
    a_normalized: LinearForm
    holomorphy_guaranteed: bool
    needs_weight_constraint: bool
    excluded_from_generation: bool


def reference_record(
    g: GroupSpec, p: MaximalParabolic, word, lam: Weight | None = None
) -> ReferenceRecord:
    """The record of ``word`` by the LinearForm path, independent of action matrices.

    w(λ+ρ) by a :func:`simple_reflection` fold, split by ``restrict``; the
    length is the size of the inversion set; w is in W^P iff w^{-1} sends every
    uncrossed simple root into the positive root set.
    """
    datum = g.datum
    positive = set(positive_root_vectors(datum))
    inverse = tuple(reversed(word))
    for j in range(1, g.k + 1):
        if j in crossed_simple_roots(g, p):
            continue
        image = reflect_word(datum, inverse, Weight.from_constants(simple_root_vector(datum, j)))
        if image.constant_tuple() not in positive:
            raise NotCosetRepresentativeError(f"word {word} fails at α_{j}")
    lam = Weight.symbolic(g.k) if lam is None else lam
    nvars = lam.coords[0].nvars
    shift = Weight.from_constants([1] * g.k, nvars)
    moved = reflect_word(datum, word, lam + shift)
    a_raw = -restrict(g, p, moved).a_coefficient
    length = len(inversion_vectors(datum, word))
    even_p1 = not g.is_odd and p is MaximalParabolic.P1
    excluded = even_p1 and length == g.k - 1
    return ReferenceRecord(
        word=tuple(word),
        length=length,
        mu_restricted=restrict(g, p, moved - shift).b_coords,
        a_raw=a_raw,
        a_normalized=a_raw / levi_rho_coefficient(g, p),
        holomorphy_guaranteed=2 * length >= nilradical_dim(g, p),
        needs_weight_constraint=even_p1 and not excluded,
        excluded_from_generation=excluded,
    )


def matrix_record(
    g: GroupSpec, p: MaximalParabolic, word, lam: Weight | None = None, matrix: Matrix | None = None
) -> dict:
    """Every field of the :class:`KostantRecord` of ``word``, integer rows and
    denominators included, from its ϖ-action matrix M: ``word_action_matrix``,
    or ``matrix`` when the caller has it.

    den·w(λ+ρ) is M applied to the integer columns of den·(λ+ρ): the constant
    column and one column per variable.  w is in W^P iff M·(1, …, 1) = wρ is
    positive at every uncrossed node, and l(w) counts the positive roots
    ε_i - ε_j, ε_i + ε_j (i < j) and, for B_k, ε_i on which wρ is negative.  The
    split is written out from ``half_positions``.
    """
    datum, k = g.datum, g.k
    m = word_action_matrix(datum, word) if matrix is None else matrix
    (crossed,) = crossed_simple_roots(g, p)
    w_rho = [sum(row) for row in m]
    bad = [j for j in range(1, k + 1) if j != crossed and w_rho[j - 1] <= 0]
    if bad:
        raise NotCosetRepresentativeError(
            f"word {tuple(word)} is not minimal for the parabolic (fails at α_{bad[0]})"
        )
    x = doubled_epsilon(datum, w_rho)  # 2wρ in ε-coordinates
    length = sum((a < b) + (a + b < 0) for a, b in combinations(x, 2))
    if datum.kind is DynkinKind.B:
        length += sum(1 for a in x if a < 0)
    lam = Weight.symbolic(k) if lam is None else lam
    coords = lam.coords
    den = math.lcm(
        *(f.constant.denominator for f in coords),
        *(c.denominator for f in coords for _, c in f.coeffs),
    )
    variables = sorted({c for f in coords for c, _ in f.coeffs})
    columns = [[int((f.constant + 1) * den) for f in coords], *([0] * k for _ in variables)]
    for i, f in enumerate(coords):
        for v, s in f.coeffs:
            columns[1 + variables.index(v)][i] = int(s * den)
    m_cols = list(zip(*m))

    def times_m(col):  # M·col, summed over the nonzero entries of col
        out = [0] * k
        for i, s in enumerate(col):
            if s:
                out = [o + s * y for o, y in zip(out, m_cols[i])]
        return out

    rows = list(zip(*map(times_m, columns)))  # row r: constant, then each variable

    def form(values):
        return values[0], tuple((v, x) for v, x in zip(variables, values[1:]) if x)

    halves = half_positions(g, p)
    weights = [-1 if i in halves else -2 for i in range(1, k + 1)]
    a_row = [sum(map(mul, weights, column)) for column in zip(*rows)]
    even_p1 = not g.is_odd and p is MaximalParabolic.P1
    excluded = even_p1 and length == k - 1
    return dict(
        word=tuple(word),
        length=length,
        nvars=coords[0].nvars,
        mu_rows=tuple(form([r[0] - den, *r[1:]]) for i, r in enumerate(rows) if i != crossed - 1),
        mu_den=den,
        a_row=form(a_row),
        a_raw_den=2 * den,
        a_den=den * int(2 * levi_rho_coefficient(g, p)),
        holomorphy_guaranteed=2 * length >= nilradical_dim(g, p),
        needs_weight_constraint=even_p1 and not excluded,
        excluded_from_generation=excluded,
    )


def integer_fields(rec):
    return {field.name: getattr(rec, field.name) for field in fields(rec)}


def walk_matrices(datum, nodes):
    """``word_action_matrix`` of each node's word, each from its parent's by one
    column update (``times_generator``): O(k) per node, not a fold per word."""
    cols = {(): identity_matrix(datum.rank)}
    for node in nodes:
        if node.word not in cols:
            cols[node.word] = times_generator(datum, cols[node.word[:-1]], node.word[-1])
        yield tuple(zip(*cols[node.word]))


def assert_records_equal_matrix_reference(n, lam):
    """The records of every node, by ``iter_records`` and ``kostant_record``, equal
    :func:`matrix_record`'s, integer rows and denominators included."""
    g = group_spec(n)
    ref_lam = Weight.symbolic(g.k) if lam is None else lam
    for p in PARABOLICS:
        h = build_hasse(parabolic_choice(g, p))
        nodes = h.nodes
        want = [
            matrix_record(g, p, node.word, ref_lam, m)
            for node, m in zip(nodes, walk_matrices(g.datum, nodes))
        ]
        assert [integer_fields(rec) for rec in iter_records(g, p, lam, h)] == want
        # kostant_record builds each u from its word, the reference each matrix from its
        # word: every node up to n = 13, then a spread
        step = 1 if n <= 13 else max(1, len(nodes) // 20)
        for node, ref in zip(nodes[::step] + nodes[-1:], want[::step] + want[-1:]):
            assert matrix_record(g, p, node.word, lam) == ref, (p, node.word)
            assert integer_fields(kostant_record(g, p, node.word, lam)) == ref, (p, node.word)


# --- recombination on LinearForm weights and on randint draws -----------------


def _random_form(rng, k):
    coeffs = {i: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for i in range(1, k + 1)}
    return LinearForm.make(k, Fraction(rng.randint(-6, 6), rng.randint(1, 4)), coeffs)


def _combine(forms, basis, k):
    """Σ forms[j]·basis[j] for constant-coordinate basis weights."""
    coords = []
    for i in range(k):
        acc = LinearForm.zero(forms[0].nvars)
        for f, b in zip(forms, basis):
            c = b.coords[i].constant
            if c:
                acc = acc + f.scale(c)
        coords.append(acc)
    return Weight(tuple(coords))


def _reference_recombination(g, rng):
    """The check on ``LinearForm`` weights: the first failing trial, or ""."""
    for p in PARABOLICS:
        head, tail = verification.restriction_basis(g, p)
        for trial in range(100):
            w = Weight(tuple(_random_form(rng, g.k) for _ in range(g.k)))
            r = restrict(g, p, w)
            if _combine([r.a_coefficient, *r.b_coords], [head, *tail], g.k) != w:
                return f"{p.name}: trial {trial}"
    return ""


def _times(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _randint_recombination(g, rng):
    """The check with W drawn by ``randint`` and (B·R)·W a full product: the reference
    for the stream that ``_trial_values`` reads."""
    k, randint = g.k, rng.randint
    for p in PARABOLICS:
        r = restrict(g, p, Weight.symbolic(k))
        forms = (r.a_coefficient, *r.b_coords)
        rows = [[*map(f.coefficient, range(1, k + 1)), f.constant] for f in forms]
        rmat, rs = verification._integer_rows(rows)
        head, tail = verification.restriction_basis(g, p)
        basis = list(zip(*(b.constant_tuple() for b in (head, *tail))))
        bmat, bs = verification._integer_rows(basis)
        br = _times(bmat, rmat)
        for trial in range(100):
            w = [[randint(-6, 6) * (12 // randint(1, 4)) for _ in range(k + 1)] for _ in range(k)]
            back = _times(br, [*w, [0] * k + [12]])
            if back != [[rs * bs * x for x in row] for row in w]:
                return f"{p.name}: trial {trial}"
    return ""


# --- rendering ----------------------------------------------------------------


def reference_render(f):
    """``LinearForm.render`` as it was on Fractions: the reference for ``render_form``."""
    parts = []
    for i, c in f.coeffs:
        mag = abs(c)
        if mag == 1:
            body = f"λ{i}"
        elif mag.denominator == 1:
            body = f"{mag}λ{i}"
        else:
            body = f"({mag})λ{i}"
        parts.append(("-" if c < 0 else "+", body))
    if f.constant != 0:
        parts.append(("-" if f.constant < 0 else "+", str(abs(f.constant))))
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += sign + body
    return out
