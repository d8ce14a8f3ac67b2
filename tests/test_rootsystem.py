from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from orthoweyl.errors import IndexRangeError, UnsupportedKindError, UnsupportedRankError
from orthoweyl.rootsystem import (
    DynkinKind,
    Weight,
    doubled_epsilon,
    make_datum,
    positive_root_vectors,
    reflect_vector,
    rho,
)
from reference import (
    from_epsilon,
    literal_coroot_vectors,
    literal_doubled_fundamentals,
    simple_reflection,
    to_epsilon,
)

B3 = make_datum(DynkinKind.B, 3)
D4 = make_datum(DynkinKind.D, 4)


def const(vec):
    return Weight.from_constants(vec)


def fundamental(datum, i):
    """ϖ_i as a constant weight."""
    return const([int(r == i) for r in range(1, datum.rank + 1)])


def test_cartan_b3():
    assert B3.cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))


def test_cartan_d4():
    assert D4.cartan == ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    assert D4.cartan == tuple(zip(*D4.cartan))  # simply laced: symmetric


def test_rank_minimums():
    with pytest.raises(UnsupportedRankError):
        make_datum(DynkinKind.B, 2)
    with pytest.raises(UnsupportedRankError):
        make_datum(DynkinKind.D, 3)
    with pytest.raises(UnsupportedKindError, match="type B or D"):
        make_datum("A", 3)


def test_reflection_known_orbit_steps():
    # two arrows of the rank-3 orbit diagram
    assert simple_reflection(B3, 2, const([0, 1, 0])) == const([1, -1, 2])
    assert simple_reflection(B3, 3, const([-1, 0, 2])) == const([-1, 2, -2])
    # coordinate zero at j means fixed by s_j
    w = const([3, 0, -1])
    assert simple_reflection(B3, 2, w) == w


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3), st.integers(1, 3))
def test_reflection_involution(vec, j):
    w = const(vec)
    assert simple_reflection(B3, j, simple_reflection(B3, j, w)) == w


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3), st.integers(1, 3))
def test_reflection_fixes_iff_zero_coordinate(vec, j):
    w = const(vec)
    fixed = simple_reflection(B3, j, w) == w
    assert fixed == (vec[j - 1] == 0)


def test_rho():
    assert rho(B3) == const([1, 1, 1])
    assert rho(D4) == const([1, 1, 1, 1])


def test_positive_root_counts():
    assert len(positive_root_vectors(B3)) == 9
    assert len(positive_root_vectors(D4)) == 12
    assert len(positive_root_vectors(make_datum(DynkinKind.B, 5))) == 25


def test_simple_roots_are_cartan_rows():
    vectors = set(positive_root_vectors(B3))
    for j in range(3):
        assert B3.cartan[j] in vectors
    assert (2, -1, 0) in vectors


@pytest.mark.parametrize("datum", [B3, D4])
def test_reflection_permutes_positive_roots(datum):
    # s_j negates α_j and permutes the remaining positive roots
    vectors = set(positive_root_vectors(datum))
    from orthoweyl.rootsystem import simple_root_vector

    for j in range(1, datum.rank + 1):
        alpha = simple_root_vector(datum, j)
        images = {reflect_vector(datum, j, v) for v in vectors}
        negatives = {v for v in images if tuple(-x for x in v) in vectors}
        assert negatives == {tuple(-x for x in alpha)}
        assert images - negatives < vectors


def test_epsilon_examples():
    w1 = to_epsilon(B3, fundamental(B3, 1))
    assert [c.constant for c in w1.coords] == [1, 0, 0]
    w3 = to_epsilon(B3, fundamental(B3, 3))
    assert [c.constant for c in w3.coords] == [Q(1, 2), Q(1, 2), Q(1, 2)]


def test_epsilon_rho_values():
    assert [c.constant for c in to_epsilon(B3, rho(B3)).coords] == [Q(5, 2), Q(3, 2), Q(1, 2)]
    assert [c.constant for c in to_epsilon(D4, rho(D4)).coords] == [3, 2, 1, 0]


@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
def test_epsilon_roundtrip(vec):
    w = const(vec)
    assert from_epsilon(D4, to_epsilon(D4, w)) == w
    w3 = const(vec[:3])
    assert from_epsilon(B3, to_epsilon(B3, w3)) == w3


def test_weight_render():
    assert const([0, 1, 0]).render() == "(0,1,0)"
    sym = Weight.symbolic(2)
    assert sym.render() == "(λ1,λ2)"
    assert (sym + Weight.from_constants([1, 1])).render() == "(λ1+1,λ2+1)"


def test_half_sum_of_positive_roots_is_rho():
    for datum in (B3, D4, make_datum(DynkinKind.B, 4)):
        total = [Q(0)] * datum.rank
        for v in positive_root_vectors(datum):
            total = [t + x for t, x in zip(total, v)]
        assert [t / 2 for t in total] == [1] * datum.rank


# B3..B12 and D4..D12; the first four keep their ids datum0..datum3
COROOT_DATA = [B3, D4, make_datum(DynkinKind.B, 6), make_datum(DynkinKind.D, 7)]
COROOT_DATA += [make_datum(DynkinKind.B, k) for k in (4, 5, 7, 8, 9, 10, 11, 12)]
COROOT_DATA += [make_datum(DynkinKind.D, k) for k in (5, 6, 8, 9, 10, 11, 12)]


@pytest.mark.parametrize("datum", COROOT_DATA)
def test_coroots_pair_as_two_beta_over_norm(datum):
    # The reference coroot table: <ϖ_i, β^∨> = 2(ϖ_i, β)/(β, β), computed here with
    # exact ε-coordinates
    k = datum.rank
    fund = [to_epsilon(datum, fundamental(datum, i)).coords for i in range(1, k + 1)]
    roots = positive_root_vectors(datum)
    coroots = literal_coroot_vectors(datum)
    assert len(coroots) == len(roots)
    for beta, coroot in zip(roots, coroots):
        eps = [c.constant for c in to_epsilon(datum, Weight.from_constants(beta)).coords]
        norm = sum(x * x for x in eps)
        want = tuple(2 * sum(f.constant * x for f, x in zip(w, eps)) / norm for w in fund)
        assert coroot == want
        assert sum(b * c for b, c in zip(beta, coroot)) == 2


@pytest.mark.parametrize(
    "kind, k",
    [(DynkinKind.B, k) for k in range(3, 13)] + [(DynkinKind.D, k) for k in range(4, 13)],
)
def test_coroot_vectors_equal_literal_rows(kind, k):
    # the reference coroot table's hand-written rows 2ϖ_i are doubled_epsilon's, which
    # keys the Bruhat covers
    datum = make_datum(kind, k)
    doubled = [doubled_epsilon(datum, [int(r == i) for r in range(k)]) for i in range(k)]
    assert doubled == literal_doubled_fundamentals(datum)


def test_reflect_vector_refuses_letters_outside_the_rank():
    for datum in (B3, D4):
        vec = (1,) + (0,) * (datum.rank - 2) + (1,)
        for j in (0, -1, datum.rank + 1):
            with pytest.raises(IndexRangeError, match=f"reflection index {j} outside"):
                reflect_vector(datum, j, vec)


EPS_DATA = [B3, D4, make_datum(DynkinKind.B, 5), make_datum(DynkinKind.D, 6)]


@given(st.sampled_from(EPS_DATA), st.data())
def test_doubled_epsilon_is_twice_to_epsilon(datum, data):
    vec = data.draw(st.lists(st.integers(-6, 6), min_size=datum.rank, max_size=datum.rank))
    eps = to_epsilon(datum, const(vec)).coords
    assert doubled_epsilon(datum, vec) == [2 * c.constant for c in eps]
