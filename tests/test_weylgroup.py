from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from orthoweyl.errors import DimensionError, IndexRangeError, RankGuardError
from orthoweyl.linform import LinearForm
from orthoweyl.hasse import build_hasse
from orthoweyl.orthogroup import MaximalParabolic, group_spec, parabolic_choice
from orthoweyl.rootsystem import DynkinKind, Weight, make_datum, positive_root_vectors
from orthoweyl.weylgroup import (
    apply_word,
    decode,
    doubled_rho_by_byte,
    encoded_inverse,
    enumerate_group,
    generator_matrix,
    group_layers,
    inversion_vectors,
    left_action,
    length_of,
    minimal_reps_bruteforce,
    render_word,
    times_generator,
    word_action_matrix,
    word_length,
)
from reference import (
    _inversion_count,
    _reference_generator,
    _reference_word_matrix,
    _root_terms,
    inversion_counter,
    mat_mul,
    reflect_word,
    simple_reflection,
)

B3 = make_datum(DynkinKind.B, 3)
D4 = make_datum(DynkinKind.D, 4)


def const(vec):
    return Weight.from_constants(vec)


def test_apply_word_identity_and_orbit_step():
    x = const([4, -1, 2])
    assert apply_word(B3, (), x) == x
    assert apply_word(B3, (2,), const([0, 1, 0])) == const([1, -1, 2])


def test_apply_word_composition_contract():
    # the rightmost letter acts first
    delta = const([0, 1, 0])
    assert apply_word(B3, (2, 1), delta) == simple_reflection(
        B3, 2, simple_reflection(B3, 1, delta)
    )


def test_apply_word_bad_letter():
    with pytest.raises(IndexRangeError):
        apply_word(B3, (4,), const([0, 0, 0]))
    with pytest.raises(DimensionError):
        apply_word(B3, (1,), const([0, 0, 0, 0]))


FOLD_DATA = [
    make_datum(DynkinKind.B, 3),
    make_datum(DynkinKind.B, 4),
    make_datum(DynkinKind.D, 4),
    make_datum(DynkinKind.D, 5),
]
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def forms(draw, nvars):
    coeffs = draw(st.dictionaries(st.integers(1, nvars), rationals, max_size=nvars))
    return LinearForm.make(nvars, draw(rationals), coeffs)


@given(st.sampled_from(FOLD_DATA), st.data())
def test_apply_word_equals_reflection_fold(datum, data):
    # the matrix action against the letter-by-letter LinearForm reference
    k = datum.rank
    word = tuple(data.draw(st.lists(st.integers(1, k), max_size=3 * k)))
    nvars = data.draw(st.integers(1, 3))
    x = Weight(tuple(data.draw(forms(nvars)) for _ in range(k)))
    assert apply_word(datum, word, x) == reflect_word(datum, word, x)


def test_word_action_matrix_examples():
    identity = word_action_matrix(B3, ())
    assert identity == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for j in (1, 2, 3):
        assert word_action_matrix(B3, (j, j)) == identity
    assert word_action_matrix(B3, (2,)) == ((1, 1, 0), (0, -1, 0), (0, 2, 1))


def test_matrix_matches_reflection_on_basis():
    from orthoweyl.weylgroup import mat_vec

    for datum in (B3, D4):
        for j in range(1, datum.rank + 1):
            m = generator_matrix(datum, j)
            for i in range(datum.rank):
                basis = [0] * datum.rank
                basis[i] = 1
                expected = simple_reflection(datum, j, const(basis)).constant_tuple()
                assert mat_vec(m, tuple(basis)) == expected


def test_inversion_set_examples():
    assert inversion_vectors(B3, ()) == frozenset()
    for j in (1, 2, 3):
        assert inversion_vectors(B3, (j,)) == frozenset({B3.cartan[j - 1]})
    # the element s1·s2 inverts α1 and α1+α2
    alpha1 = (2, -1, 0)
    alpha12 = (1, 1, -2)
    assert inversion_vectors(B3, (1, 2)) == frozenset({alpha1, alpha12})
    assert word_length(B3, (1, 2)) == 2
    assert word_length(B3, (1, 1)) == 0  # not reduced


def test_enumerate_group_sizes():
    assert len(enumerate_group(B3)) == 48
    assert len(enumerate_group(D4)) == 192
    assert len(enumerate_group(make_datum(DynkinKind.B, 6))) == 46080  # 2^6 · 6!


def test_enumerate_group_guard():
    with pytest.raises(RankGuardError) as err:
        enumerate_group(make_datum(DynkinKind.B, 8))
    assert err.value.estimate == 2**8 * 40320


def test_enumerate_words_are_reduced_and_sorted():
    elements = enumerate_group(B3)
    lengths = [len(e.word) for e in elements]
    assert lengths == sorted(lengths)
    assert max(lengths) == 9  # number of positive roots of B3
    for e in elements[:20]:
        assert word_length(B3, e.word) == len(e.word)


def test_minimal_reps_cases():
    assert minimal_reps_bruteforce(B3, frozenset()) == ((),)
    borel = minimal_reps_bruteforce(B3, frozenset({1, 2, 3}))
    assert len(borel) == 48
    reps = minimal_reps_bruteforce(B3, frozenset({2}))
    assert len(reps) == 12
    for w in reps:
        assert word_length(B3, w) == len(w)


def test_render_word():
    assert render_word(()) == "1"
    assert render_word((2, 1, 3)) == "s2·s1·s3"


words_b3 = st.lists(st.integers(1, 3), max_size=6).map(tuple)


@given(words_b3, words_b3, st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_word_concatenation_is_composition(u, v, vec):
    x = const(vec)
    assert apply_word(B3, u + v, x) == apply_word(B3, u, apply_word(B3, v, x))


@given(words_b3, words_b3)
def test_action_matrix_is_multiplicative(u, v):
    assert word_action_matrix(B3, u + v) == mat_mul(
        word_action_matrix(B3, u), word_action_matrix(B3, v)
    )


@given(words_b3)
def test_inverse_is_reversal(u):
    identity = word_action_matrix(B3, ())
    assert mat_mul(word_action_matrix(B3, u), word_action_matrix(B3, tuple(reversed(u)))) == identity


# --- the column-update action against a product of full generator matrices ---


FOLD_DATA = {
    "B3": B3,
    "B4": make_datum(DynkinKind.B, 4),
    "D4": D4,
    "D5": make_datum(DynkinKind.D, 5),
}


def test_generator_matrix_equals_reference():
    for datum in FOLD_DATA.values():
        for j in range(1, datum.rank + 1):
            assert generator_matrix(datum, j) == _reference_generator(datum, j)
    with pytest.raises(IndexRangeError):
        generator_matrix(B3, 4)


@given(st.sampled_from(sorted(FOLD_DATA)), st.data())
def test_word_action_matrix_equals_matrix_product(name, data):
    datum = FOLD_DATA[name]
    word = data.draw(st.lists(st.integers(1, datum.rank), max_size=12).map(tuple))
    assert word_action_matrix(datum, word) == _reference_word_matrix(datum, word)


@given(st.sampled_from(sorted(FOLD_DATA)), st.data())
def test_times_generator_is_right_multiplication(name, data):
    datum = FOLD_DATA[name]
    k = datum.rank
    entries = st.lists(st.integers(-9, 9), min_size=k, max_size=k).map(tuple)
    a = data.draw(st.lists(entries, min_size=k, max_size=k).map(tuple))
    j = data.draw(st.integers(1, k))
    columns = tuple(zip(*a))
    got = tuple(zip(*times_generator(datum, columns, j)))
    assert got == mat_mul(a, generator_matrix(datum, j))


@pytest.mark.parametrize("n", range(5, 14))
def test_word_action_matrix_on_every_walk_word(n):
    g = group_spec(n)
    for p in (MaximalParabolic.P1, MaximalParabolic.P2):
        for node in build_hasse(parabolic_choice(g, p)).nodes:
            want = _reference_word_matrix(g.datum, node.word)
            assert word_action_matrix(g.datum, node.word) == want


@pytest.mark.parametrize("datum", [B3, D4], ids=repr)
@pytest.mark.parametrize("letter", [0, -1, "k+1"])
def test_encoded_inverse_refuses_letters_outside_the_rank(datum, letter):
    # tables[j - 1] would read tables[-1] for the letter 0 and s_k would act unseen
    letter = datum.rank + 1 if letter == "k+1" else letter
    ident, tables = left_action(datum)
    with pytest.raises(IndexRangeError, match=rf"^letter {letter} outside 1\.\.{datum.rank}$"):
        encoded_inverse(ident, tables, (1, letter))


@pytest.mark.parametrize("datum", [B3, D4], ids=repr)
def test_word_length_counts_the_inversion_set_of_every_short_word(datum):
    # every word of length <= 5, the non-reduced ones included
    letters = range(1, datum.rank + 1)
    for word in (w for m in range(6) for w in product(letters, repeat=m)):
        assert word_length(datum, word) == len(inversion_vectors(datum, word)), word


@pytest.mark.parametrize("n", range(5, 22))
def test_word_length_counts_the_inversion_set_of_every_walk_node(n):
    g = group_spec(n)
    for p in (MaximalParabolic.P1, MaximalParabolic.P2):
        for node in build_hasse(parabolic_choice(g, p)).nodes:
            assert word_length(g.datum, node.word) == len(inversion_vectors(g.datum, node.word))
            assert word_length(g.datum, node.word) == node.length


@pytest.mark.parametrize("datum", [B3, D4], ids=repr)
@pytest.mark.parametrize("letter", [0, -1, "k+1"])
def test_word_length_refuses_letters_outside_the_rank(datum, letter):
    letter = datum.rank + 1 if letter == "k+1" else letter
    for length in (word_length, inversion_vectors):
        with pytest.raises(IndexRangeError, match=rf"^letter {letter} outside 1\.\.{datum.rank}$"):
            length(datum, (1, letter))


# --- the one length count against its references ---

LENGTH_DATA = [make_datum(DynkinKind.B, k) for k in range(3, 7)] + [
    make_datum(DynkinKind.D, k) for k in range(4, 7)
]


def _layers_with_words(datum):
    """Each u = w^{-1} of ``group_layers``, with its layer and a reduced word of w.  s_j∘u is
    the inverse of w·s_j, so the next layer's words are this layer's with one letter added."""
    ident, tables = left_action(datum)
    words = {ident: ()}
    for l, layer in enumerate(group_layers(ident, tables)):
        following = {}
        for u in layer:
            yield u, l, words[u]
            for j, t in enumerate(tables, start=1):
                following.setdefault(u.translate(t), words[u] + (j,))
        words = following


@pytest.mark.parametrize("datum", LENGTH_DATA, ids=repr)
def test_length_of_equals_the_references_on_every_element(datum):
    rho, count = doubled_rho_by_byte(datum), inversion_counter(datum)
    roots = [_root_terms(datum, beta) for beta in positive_root_vectors(datum)]
    for u, l, word in _layers_with_words(datum):
        length = length_of(datum, [rho[b] for b in u[: datum.rank]])
        assert length == l == count(u) == _inversion_count(decode(u), roots), word
        assert length == len(inversion_vectors(datum, word)), word


def test_length_of_equals_the_stored_length_on_every_walk_node():
    for n in range(5, 62):
        g = group_spec(n)
        rho, (ident, tables) = doubled_rho_by_byte(g.datum), left_action(g.datum)
        for p in (MaximalParabolic.P1, MaximalParabolic.P2):
            for node in build_hasse(parabolic_choice(g, p)).nodes:
                u = encoded_inverse(ident, tables, node.word)
                length = length_of(g.datum, [rho[b] for b in u[: g.k]])
                assert length == node.length, (n, p, node.word)
