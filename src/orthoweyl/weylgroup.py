"""Weyl-group words, the group as signed permutations, the matrix action,
inversion sets, and a brute-force enumeration oracle for small ranks.

Composition convention.  A word ``(i1, i2, ..., im)`` denotes the product
``s_{i1} s_{i2} ... s_{im}``, and the rightmost letter acts first:
``apply_word(d, word, x) = s_{i1}(s_{i2}(... s_{im}(x) ...))``.  Equivalently
``word_action_matrix(d, word) = S_{i1} @ S_{i2} @ ... @ S_{im}``.  This matches
reading edge labels of an orbit diagram from left to right along a path.

The one integer generator action is :func:`times_generator`, ``A -> A·S_j``,
which changes column j only; ``word_action_matrix`` is a fold of these column
updates from the identity (O(len(word)·k)), ``generator_matrix`` one update.
``apply_word`` combines a weight's ``LinearForm`` coordinates with the integer
rows of ``word_action_matrix``; no weight is reflected letter by letter.

The inverse of a word is its reversal (each generator is an involution).

The package's group model treats W(B_k) and W(D_k) as signed permutations of
ε_1..ε_k (Björner–Brenti, ch. 8), each u encoded as the 2k bytes f(u(1)), …,
f(u(k)), f(u(-1)), …, f(u(-k)) with f(x) = x mod 2k+1.  The bytes order the
signed indices as 1 < … < k < -k < … < -1, so s∘u is ``u.translate(table_s)``
and a root's sign is one comparison: u(σε_a + τε_b) > 0 iff u[pos(σa)] <
u[pos(-τb)], and u(σε_a) > 0 iff u[pos(σa)] < u[pos(-σa)], with pos(x) the byte
of u(x).  The Kostant records and ``verify``'s group rows run on it, l(w) is
counted one way, by :func:`length_of`, and the ϖ-matrices are the tests' reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, neg
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, IndexRangeError, RankGuardError
from .linform import LinearForm
from .rootsystem import (
    DynkinKind,
    RootDatum,
    Weight,
    doubled_epsilon,
    positive_root_vectors,
    simple_root_vector,
)

__all__ = [
    "WeylWord",
    "Matrix",
    "GroupElement",
    "render_word",
    "apply_word",
    "word_action_matrix",
    "generator_matrix",
    "inversion_vectors",
    "word_length",
    "enumerate_group",
    "minimal_reps_bruteforce",
]

WeylWord = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

#: Full-group enumeration is refused above this rank (factorial growth).
ORACLE_RANK_LIMIT = 7

#: Hard cap on closure size, so a hand-built datum whose pairing matrix is not
#: of finite type fails fast.
_CLOSURE_CAP = 2_000_000


def render_word(word: Sequence[int]) -> str:
    """Middle-dot rendering, identity as ``1``: e.g. ``s2·s1·s3``."""
    return "·".join(f"s{j}" for j in word) if word else "1"


def _check_letters(datum: RootDatum, word: Sequence[int]) -> None:
    for j in word:
        if not 1 <= j <= datum.rank:
            raise IndexRangeError(f"letter {j} outside 1..{datum.rank}")


def apply_word(datum: RootDatum, word: Sequence[int], x: Weight) -> Weight:
    """Apply the group element of ``word`` to a weight, rightmost letter first.

    Coordinate i of the image is ``Σ_j M[i][j]·x_j`` for the integer matrix
    M of :func:`word_action_matrix`.
    """
    matrix = word_action_matrix(datum, word)
    if x.rank != datum.rank:
        raise DimensionError(f"weight rank {x.rank} != datum rank {datum.rank}")
    zero = LinearForm.zero(x.coords[0].nvars)
    return Weight(
        tuple(sum((c.scale(m) for c, m in zip(x.coords, row) if m), zero) for row in matrix)
    )


def identity_matrix(rank: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


Columns = tuple[tuple[int, ...], ...]  # a matrix as the tuple of its columns


def times_generator(datum: RootDatum, cols: Columns, j: int) -> Columns:
    """Columns of ``A·S_j``: column j becomes ``A·(e_j - c_j)``, c_j = pairing row j."""
    terms = [(cols[i], c) for i, c in enumerate(datum.cartan[j - 1]) if c]
    new = tuple(
        x - sum(col[r] * c for col, c in terms) for r, x in enumerate(cols[j - 1])
    )
    return cols[: j - 1] + (new,) + cols[j:]


@lru_cache(maxsize=None)
def generator_matrix(datum: RootDatum, j: int) -> Matrix:
    """Matrix of s_j acting on ϖ-coordinate column vectors."""
    _check_letters(datum, (j,))
    return tuple(zip(*times_generator(datum, identity_matrix(datum.rank), j)))


def mat_vec(m: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def word_action_matrix(datum: RootDatum, word: Sequence[int]) -> Matrix:
    """Matrix M with ``apply_word(d, word, x) = M·x``; identity for the empty word."""
    _check_letters(datum, word)
    cols = identity_matrix(datum.rank)
    for j in word:
        cols = times_generator(datum, cols, j)
    return tuple(zip(*cols))


@dataclass(frozen=True)
class GroupElement:
    """A Weyl-group element: its ϖ-action matrix and one reduced word for it."""

    matrix: Matrix
    word: WeylWord

    @property
    def length(self) -> int:
        return len(self.word)


def inversion_vectors(datum: RootDatum, word: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Inversion set {α > 0 : w^{-1}(α) < 0} as ϖ-coordinate vectors."""
    _check_letters(datum, word)
    pos = positive_root_vectors(datum)
    posset = set(pos)
    inv_matrix = word_action_matrix(datum, tuple(reversed(word)))
    out = []
    for alpha in pos:
        image = mat_vec(inv_matrix, alpha)
        negated = tuple(-x for x in image)
        if negated in posset:
            out.append(alpha)
        else:
            assert image in posset, "w^{-1} must permute the roots"
    return frozenset(out)


def word_length(datum: RootDatum, word: Sequence[int]) -> int:
    """Coxeter length |Φ_w|, by :func:`length_of` from u = w^{-1}; equals len(word) iff reduced."""
    rho, u = doubled_rho_by_byte(datum), encoded_inverse(*left_action(datum), word)
    return length_of(datum, [rho[b] for b in u[: datum.rank]])


def _guard_rank(datum: RootDatum) -> None:
    k = datum.rank
    if k > ORACLE_RANK_LIMIT:
        estimate = (2**k) * math.factorial(k)
        raise RankGuardError(
            f"rank {k} > {ORACLE_RANK_LIMIT}: full enumeration would reach "
            f"roughly {estimate} elements",
            estimate=estimate,
        )


@lru_cache(maxsize=None)
def enumerate_group(datum: RootDatum) -> tuple[GroupElement, ...]:
    """The whole group, by breadth-first closure of the generator matrices.

    Each element carries the word of its first arrival in the Cayley-graph
    BFS (letters tried in ascending order), which is therefore reduced.
    Output is sorted by (length, word).
    """
    _guard_rank(datum)
    k = datum.rank
    gens = [np.array(generator_matrix(datum, j), dtype=np.int64) for j in range(1, k + 1)]
    ident = np.eye(k, dtype=np.int64)
    seen: dict[bytes, int] = {ident.tobytes(): 0}
    mats: list[np.ndarray] = [ident]
    words: list[WeylWord] = [()]
    frontier = [0]
    while frontier:
        block = np.stack([mats[i] for i in frontier])
        next_frontier: list[int] = []
        for j in range(1, k + 1):
            products = block @ gens[j - 1]
            for idx_in_block, parent in enumerate(frontier):
                key = products[idx_in_block].tobytes()
                if key not in seen:
                    seen[key] = len(mats)
                    mats.append(products[idx_in_block])
                    words.append(words[parent] + (j,))
                    next_frontier.append(seen[key])
        if len(mats) > _CLOSURE_CAP:
            raise RankGuardError(
                f"closure exceeded {_CLOSURE_CAP} elements; datum is not of finite type?"
            )
        frontier = next_frontier
    elements = [
        GroupElement(tuple(map(tuple, m.tolist())), w) for m, w in zip(mats, words)
    ]
    elements.sort(key=lambda e: (len(e.word), e.word))
    return tuple(elements)


def minimal_reps_bruteforce(
    datum: RootDatum, crossed: Iterable[int]
) -> tuple[WeylWord, ...]:
    """Minimal coset representatives by exhaustive test over the whole group.

    An element w is kept iff w^{-1} sends every *uncrossed* simple root to a
    positive root.  Words come from the Cayley-graph BFS (reversed, since the
    enumeration walks inverses); output sorted by (length, word).
    """
    crossed_set = frozenset(crossed)
    for j in crossed_set:
        if not 1 <= j <= datum.rank:
            raise IndexRangeError(f"crossed index {j} outside 1..{datum.rank}")
    uncrossed = [j for j in range(1, datum.rank + 1) if j not in crossed_set]
    posset = set(positive_root_vectors(datum))
    alphas = [simple_root_vector(datum, j) for j in uncrossed]
    reps: list[WeylWord] = []
    # Enumerate u = w^{-1}; the condition is u(α_j) > 0 for uncrossed j, and a
    # reduced word for w is then the reversal of the BFS word of u.
    for element in enumerate_group(datum):
        if all(mat_vec(element.matrix, a) in posset for a in alphas):
            reps.append(tuple(reversed(element.word)))
    reps.sort(key=lambda w: (len(w), w))
    return tuple(reps)


# --- the group as byte-encoded signed permutations ----------------------------

#: Entry i is ±m when the element sends ε_{i+1} to ±ε_m.  Details print it decoded.
SignedPermutation = tuple[int, ...]


def generator_permutations(datum: RootDatum) -> tuple[SignedPermutation, ...]:
    """s_1..s_k as signed permutations, each ε_i reflected in α_j (types B and D)."""
    k = datum.rank
    gens = []
    for j in range(1, k + 1):
        a = doubled_epsilon(datum, simple_root_vector(datum, j))  # 2α_j
        norm = sum(x * x for x in a)
        perm = list(range(1, k + 1))  # s_j fixes each ε_i orthogonal to α_j
        for i in [i for i, x in enumerate(a) if x]:
            # s_j(ε_i) = ε_i - (2(ε_i, a)/(a, a))·a, times (a, a): one entry ±(a, a)
            image = [norm * (m == i) - 2 * a[i] * x for m, x in enumerate(a)]
            m = next(m for m, x in enumerate(image) if x)
            perm[i] = m + 1 if image[m] > 0 else -(m + 1)
        gens.append(tuple(perm))
    return tuple(gens)


def encode(u: SignedPermutation) -> bytes:
    """The bytes f(u(1)), …, f(u(k)), f(u(-1)), …, f(u(-k)) with f(x) = x mod 2k+1."""
    return bytes([x % (2 * len(u) + 1) for x in (*u, *(-x for x in u))])


def decode(u: bytes) -> SignedPermutation:
    """The signed permutation that the bytes ``u`` encode: f^{-1} of its first k bytes."""
    return tuple([x if 2 * x <= len(u) else x - len(u) - 1 for x in u[: len(u) // 2]])


def _position(k: int, x: int) -> int:
    """The byte that holds u(x), for a signed index x."""
    return x - 1 if x > 0 else k - x - 1


def left_action(datum: RootDatum) -> tuple[bytes, tuple[bytes, ...]]:
    """The identity's bytes and, per s_j, the table with s_j∘u = u.translate(table)."""
    ident = encode(tuple(range(1, datum.rank + 1)))
    return ident, tuple(bytes.maketrans(ident, encode(s)) for s in generator_permutations(datum))


def right_gathers(datum: RootDatum) -> list[Callable[[bytes], tuple[int, ...]]]:
    """Per s_j, the gather with u∘s_j = bytes(gather(u)): pos(x) takes pos(s_j(x))."""
    k = datum.rank
    gens = generator_permutations(datum)
    return [itemgetter(*[_position(k, x) for x in (*s, *(-x for x in s))]) for s in gens]


def group_layers(ident: bytes, tables: tuple[bytes, ...]) -> Iterator[list[bytes]]:
    """The breadth-first layers of the group the ``tables`` generate, layer l the
    elements of length l in order of discovery.  For involutions u and s∘u lie in
    adjacent layers, so duplicates are found among layers l-1, l and l+1 alone, and
    memory follows the largest layer, not the group."""
    seen, before, layer = {ident}, [], [ident]
    while layer:
        yield layer
        fresh = []
        for u in layer:
            for t in tables:
                v = u.translate(t)
                if v not in seen:
                    seen.add(v)
                    fresh.append(v)
        seen.difference_update(before)
        before, layer = layer, fresh


def encoded_inverse(ident: bytes, tables: tuple[bytes, ...], word: WeylWord) -> bytes:
    """w^{-1} = s_{im}∘…∘s_{i1} for the word (i1, …, im) of w, each letter in 1..k."""
    u = ident
    for j in word:
        if not 0 < j <= len(tables):
            raise IndexRangeError(f"letter {j} outside 1..{len(tables)}")
        u = u.translate(tables[j - 1])
    return u


def sign_positions(datum: RootDatum, root: tuple[int, ...]) -> tuple[int, int]:
    """Bytes (p, q) with u(β) > 0 iff u[p] < u[q], for the ϖ-coordinate root β:
    p = pos(σa), q = pos(-τb) for β = σε_a + τε_b, and q = pos(-σa) for β = σε_a."""
    signed = [i + 1 if c > 0 else -(i + 1) for i, c in enumerate(doubled_epsilon(datum, root)) if c]
    return _position(datum.rank, signed[0]), _position(datum.rank, -signed[-1])


def minimal_inverses(datum: RootDatum, group: Iterable, crossed: frozenset[int]) -> set[bytes]:
    """Every u in ``group`` with u(α_j) > 0 for each uncrossed j."""
    keep = list(group)
    for j in range(1, datum.rank + 1):
        if j not in crossed:
            p, q = sign_positions(datum, simple_root_vector(datum, j))
            keep = [u for u in keep if u[p] < u[q]]
    return set(keep)


def doubled_rho_by_byte(datum: RootDatum) -> tuple[int, ...]:
    """2ρ's ε-coordinate at each byte's signed index: byte m holds ε_m's, byte 2k+1-m (that
    of -m) its negative, and byte 0 is unused.  Gathered by u's first k bytes it is 2wρ."""
    rho = doubled_epsilon(datum, [1] * datum.rank)
    return (0, *rho, *map(neg, reversed(rho)))


def length_of(datum: RootDatum, x: Sequence[int]) -> int:
    """l(w) = #{β > 0 : (wρ, β) < 0}, from x = 2wρ in ε-coordinates: the pairs i < j with
    x_i < x_j or x_i + x_j < 0 (and for B_k the i with x_i < 0), each j's pairs by
    bisection in the sorted x_i before it."""
    count = sum(1 for v in x if v < 0) if datum.kind is DynkinKind.B else 0
    before: list[int] = []
    for xj in x:
        count += bisect_left(before, xj) + bisect_left(before, -xj)
        insort(before, xj)
    return count
