import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# Child interpreters (``python -m orthoweyl``) import the package from this
# checkout too, as the tests themselves do through pytest's ``pythonpath``.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from orthoweyl.eisenstein import KostantRecord
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
    levi_rho_coefficient,
    nilradical_dim,
    parabolic_choice,
    restrict,
)
from orthoweyl.rootsystem import (
    DynkinKind,
    RootDatum,
    Weight,
    positive_root_vectors,
    simple_root_vector,
)
from orthoweyl.weylgroup import Matrix, inversion_vectors


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


def reference_record(
    g: GroupSpec, p: MaximalParabolic, word, lam: Weight | None = None
) -> KostantRecord:
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
    return KostantRecord(
        word=tuple(word),
        length=length,
        mu_restricted=restrict(g, p, moved - shift).b_coords,
        a_raw=a_raw,
        a_normalized=a_raw / levi_rho_coefficient(g, p),
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
