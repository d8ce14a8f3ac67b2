import functools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# Child interpreters (``python -m orthoweyl``) import the package from this
# checkout too, as the tests themselves do through pytest's ``pythonpath``.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from orthoweyl.errors import (
    DimensionError,
    IndexRangeError,
    NotCosetRepresentativeError,
)
from orthoweyl.hasse import HasseDiagram, build_hasse
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
    doubled_epsilon,
    positive_root_vectors,
    simple_root_vector,
)
from orthoweyl.weylgroup import Matrix, inversion_vectors, word_action_matrix


@functools.lru_cache(maxsize=None)
def diagram(n: int, p: MaximalParabolic) -> HasseDiagram:
    """Shared cache: orbit diagrams are deterministic and immutable."""
    return build_hasse(parabolic_choice(group_spec(n), p))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Reference matrix product, for checking the column-update action."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


# --- LinearForm references ----------------------------------------------------
#
# The package reflects integer vectors only.  These exact LinearForm versions
# are the independent references that the integer paths are checked against.


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


# --- the ϖ-matrix reference for the integer records -----------------------------


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
