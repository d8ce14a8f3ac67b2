"""Weyl-group words, their matrix action, inversion sets, and a brute-force
enumeration oracle for small ranks.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, IndexRangeError, RankGuardError
from .linform import LinearForm
from .rootsystem import (
    RootDatum,
    Weight,
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
    """Coxeter length of the element, |Φ_w|; equals len(word) iff reduced."""
    return len(inversion_vectors(datum, word))


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
