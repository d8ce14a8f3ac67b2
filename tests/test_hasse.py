import json
from dataclasses import replace

import pytest

from orthoweyl.errors import OrthoweylError
from orthoweyl.hasse import (
    HasseDiagram,
    ParabolicChoice,
    build_hasse,
    delta_weight,
    length_histogram,
    to_dot,
    to_json_dict,
    with_bruhat_covers,
)
from orthoweyl.orthogroup import MaximalParabolic, group_spec, parabolic_choice
from orthoweyl.rootsystem import DynkinKind, Weight, make_datum, rho
from orthoweyl.weylgroup import identity_matrix, word_action_matrix
from reference import _coroot_covers, _inversion_set_walk, _matrix_covers, mat_mul

B3 = make_datum(DynkinKind.B, 3)
B4 = make_datum(DynkinKind.B, 4)
D4 = make_datum(DynkinKind.D, 4)

P2_B3 = ParabolicChoice(B3, frozenset({2}))
P2_D4 = ParabolicChoice(D4, frozenset({2}))

# The rank-3, second-parabolic orbit diagram: weights per length and all
# fourteen labelled arrows, derived by hand with the reflection rule and
# held fixed independently of the walk implementation.
RANK3_ORBIT_WEIGHTS = {
    0: {(0, 1, 0)},
    1: {(1, -1, 2)},
    2: {(-1, 0, 2), (1, 1, -2)},
    3: {(-1, 2, -2), (2, -1, 0)},
    4: {(1, -2, 2), (-2, 1, 0)},
    5: {(1, 0, -2), (-1, -1, 2)},
    6: {(-1, 1, -2)},
    7: {(0, -1, 0)},
}
RANK3_ORBIT_ARROWS = {
    ((0, 1, 0), (1, -1, 2), 2),
    ((1, -1, 2), (-1, 0, 2), 1),
    ((1, -1, 2), (1, 1, -2), 3),
    ((-1, 0, 2), (-1, 2, -2), 3),
    ((1, 1, -2), (-1, 2, -2), 1),
    ((1, 1, -2), (2, -1, 0), 2),
    ((-1, 2, -2), (1, -2, 2), 2),
    ((2, -1, 0), (-2, 1, 0), 1),
    ((1, -2, 2), (1, 0, -2), 3),
    ((1, -2, 2), (-1, -1, 2), 1),
    ((-2, 1, 0), (-1, -1, 2), 2),
    ((1, 0, -2), (-1, 1, -2), 1),
    ((-1, -1, 2), (-1, 1, -2), 3),
    ((-1, 1, -2), (0, -1, 0), 2),
}


def test_delta_weight_examples():
    assert delta_weight(P2_B3) == Weight.from_constants([0, 1, 0])
    assert delta_weight(P2_D4) == Weight.from_constants([0, 1, 0, 0])
    full = ParabolicChoice(B3, frozenset({1, 2, 3}))
    assert delta_weight(full) == rho(B3)


def test_crossed_range_checked():
    with pytest.raises(OrthoweylError):
        ParabolicChoice(B3, frozenset({5}))


def test_rank3_diagram_matches_reference():
    h = build_hasse(P2_B3)
    assert len(h.nodes) == 12
    assert h.max_length == 7
    by_length = {}
    for node in h.nodes:
        by_length.setdefault(node.length, set()).add(node.weight)
    assert by_length == RANK3_ORBIT_WEIGHTS
    arrows = {
        (h.nodes[a].weight, h.nodes[b].weight, j) for a, b, j in h.algo_edges
    }
    assert arrows == RANK3_ORBIT_ARROWS


def test_rank4_even_counts():
    h = build_hasse(P2_D4)
    assert len(h.nodes) == 24
    assert h.max_length == 9


def test_empty_crossing_gives_identity_only():
    for datum in (B3, D4):
        h = build_hasse(ParabolicChoice(datum, frozenset()))
        assert len(h.nodes) == 1
        assert h.algo_edges == ()
        assert h.nodes[0].word == ()


def test_borel_case_covers_whole_group():
    h = build_hasse(ParabolicChoice(B3, frozenset({1, 2, 3})))
    assert len(h.nodes) == 48


def test_histograms():
    chain = build_hasse(ParabolicChoice(B4, frozenset({1})))  # n = 7
    assert length_histogram(chain) == {l: 1 for l in range(8)}
    even_first = build_hasse(ParabolicChoice(D4, frozenset({1})))  # n = 6
    hist = length_histogram(even_first)
    assert sum(hist.values()) == 8
    assert hist[3] == 2
    assert all(count == 1 for l, count in hist.items() if l != 3)
    odd_second = length_histogram(build_hasse(P2_B3))
    assert odd_second == {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1}
    assert all(odd_second[l] == odd_second[7 - l] for l in odd_second)


def test_words_are_minimal_representatives():
    h = build_hasse(P2_B3)
    from orthoweyl.weylgroup import minimal_reps_bruteforce

    walk = {word_action_matrix(B3, node.word) for node in h.nodes}
    oracle = {word_action_matrix(B3, w) for w in minimal_reps_bruteforce(B3, {2})}
    assert walk == oracle


def test_walk_matches_oracle_for_every_crossing():
    from itertools import combinations

    from orthoweyl.weylgroup import minimal_reps_bruteforce

    for datum in (B3, B4, D4):
        indices = range(1, datum.rank + 1)
        for size in range(datum.rank + 1):
            for crossed in combinations(indices, size):
                h = build_hasse(ParabolicChoice(datum, frozenset(crossed)))
                walk = {word_action_matrix(datum, node.word) for node in h.nodes}
                oracle = {
                    word_action_matrix(datum, w)
                    for w in minimal_reps_bruteforce(datum, frozenset(crossed))
                }
                assert walk == oracle, (datum, crossed)


def test_walk_matches_oracle_sampled_rank5_crossings():
    from orthoweyl.weylgroup import minimal_reps_bruteforce

    cases = [
        (make_datum(DynkinKind.B, 5), {3}),
        (make_datum(DynkinKind.B, 5), {1, 2}),
        (make_datum(DynkinKind.D, 5), {5}),
        (make_datum(DynkinKind.D, 5), {2, 4}),
    ]
    for datum, crossed in cases:
        h = build_hasse(ParabolicChoice(datum, frozenset(crossed)))
        walk = {word_action_matrix(datum, node.word) for node in h.nodes}
        oracle = {
            word_action_matrix(datum, w)
            for w in minimal_reps_bruteforce(datum, frozenset(crossed))
        }
        assert walk == oracle, (datum, crossed)


def test_node_weights_distinct_and_root_is_delta():
    h = build_hasse(P2_D4)
    weights = [node.weight for node in h.nodes]
    assert len(set(weights)) == len(weights)
    assert h.nodes[0].weight == (0, 1, 0, 0)
    assert h.nodes[0].length == 0


def test_covers_contain_walk_and_chain_case():
    chain = with_bruhat_covers(build_hasse(ParabolicChoice(B4, frozenset({1}))))
    walk_pairs = {(a, b) for a, b, _ in chain.algo_edges}
    assert set(chain.cover_edges) == walk_pairs  # single path

    b3 = with_bruhat_covers(build_hasse(P2_B3))
    assert {(a, b) for a, b, _ in b3.algo_edges} <= set(b3.cover_edges)
    for a, b in b3.cover_edges:
        assert b3.nodes[b].length == b3.nodes[a].length + 1


def test_covers_strictly_augment_even_case():
    h = with_bruhat_covers(build_hasse(P2_D4))
    walk_pairs = {(a, b) for a, b, _ in h.algo_edges}
    assert walk_pairs < set(h.cover_edges)


def test_cover_targets_left_multiply_by_reflections():
    # every cover pair (u, w) satisfies w·u^{-1} = a reflection: an involution
    # whose fixed space has codimension one
    h = with_bruhat_covers(build_hasse(P2_D4))
    for a, b in h.cover_edges:
        m_a_inv = word_action_matrix(D4, tuple(reversed(h.nodes[a].word)))
        m_b = word_action_matrix(D4, h.nodes[b].word)
        sigma = mat_mul(m_b, m_a_inv)
        assert mat_mul(sigma, sigma) == identity_matrix(4)
        moved = [
            tuple(row[i] - (1 if i == r else 0) for i, _ in enumerate(row))
            for r, row in enumerate(sigma)
        ]
        nonzero = [row for row in moved if any(row)]
        assert nonzero
        pivot = nonzero[0]
        for row in nonzero[1:]:
            # proportional to the pivot row: rank(sigma - id) == 1
            assert all(
                row[i] * pivot[j] == row[j] * pivot[i]
                for i in range(4)
                for j in range(4)
            )


def test_every_path_spells_a_reduced_word():
    # any walk path to a node is a reduced word for that node's element, not
    # just the stored first-arrival word
    for choice in (P2_B3, P2_D4):
        h = build_hasse(choice)
        datum = choice.datum
        matrices = [word_action_matrix(datum, node.word) for node in h.nodes]
        from orthoweyl.weylgroup import word_length

        for a, b, j in h.algo_edges:
            candidate = h.nodes[a].word + (j,)
            assert word_action_matrix(datum, candidate) == matrices[b]
            assert word_length(datum, candidate) == h.nodes[b].length


def test_dot_output():
    single = build_hasse(ParabolicChoice(B3, frozenset()))
    dot = to_dot(single)
    assert dot == 'digraph WP {\n  n0 [label="(0,0,0)"];\n}\n'

    h = build_hasse(P2_B3)
    dot = to_dot(h)
    assert dot == to_dot(build_hasse(P2_B3))  # byte-stable
    assert dot.count("->") == 14
    assert dot.count("label=") == 12 + 14
    assert 'n0 [label="(0,1,0)"];' in dot
    assert 'label="s2"' in dot

    with_dashed = to_dot(with_bruhat_covers(h))
    assert with_dashed.count('style="dashed"') == len(
        set(with_bruhat_covers(h).cover_edges) - {(a, b) for a, b, _ in h.algo_edges}
    )


def test_json_export_shape():
    h = with_bruhat_covers(build_hasse(P2_B3))
    payload = to_json_dict(h)
    assert set(payload) == {"nodes", "algo_edges", "cover_edges"}
    assert payload["nodes"][0] == {"id": 0, "word": [], "length": 0, "weight": [0, 1, 0]}
    assert all(len(e) == 3 for e in payload["algo_edges"])
    assert all(len(e) == 2 for e in payload["cover_edges"])
    json.dumps(payload)  # serializable
    assert to_json_dict(build_hasse(P2_B3))["cover_edges"] is None


# --- the fast paths against the methods they replaced -------------------------


def _choices(ns):
    for n in ns:
        g = group_spec(n)
        for p in (MaximalParabolic.P1, MaximalParabolic.P2):
            yield n, p, parabolic_choice(g, p)


def test_covers_equal_matrix_method():
    for n, p, choice in _choices(range(5, 16)):
        h = with_bruhat_covers(build_hasse(choice))
        assert h.cover_edges == _matrix_covers(h), (n, p)


def test_covers_equal_coroot_reference():
    for n, p, choice in _choices(range(5, 42)):
        h = build_hasse(choice)
        assert with_bruhat_covers(h) == _coroot_covers(h), (n, p)


@pytest.mark.parametrize(
    "datum", [B3, B4, make_datum(DynkinKind.B, 5), D4, make_datum(DynkinKind.D, 5)], ids=repr
)
def test_covers_equal_coroot_reference_at_every_crossing(datum):
    # every crossed set, the spin nodes' dense weights included
    k = datum.rank
    for mask in range(1 << k):
        choice = ParabolicChoice(datum, frozenset(j for j in range(1, k + 1) if mask >> (j - 1) & 1))
        h = build_hasse(choice)
        assert with_bruhat_covers(h) == _coroot_covers(h), choice.crossed


def _without_node(h: HasseDiagram, index: int) -> HasseDiagram:
    dropped = h.nodes[index].id
    return replace(
        h,
        nodes=tuple(node for node in h.nodes if node.id != dropped),
        algo_edges=tuple(e for e in h.algo_edges if dropped not in e[:2]),
    )


@pytest.mark.parametrize("choice", [P2_B3, P2_D4, ParabolicChoice(B4, frozenset({4}))], ids=repr)
def test_orbit_not_closed_names_the_weights_as_the_reference(choice):
    # the first reflected weight that is not a node, both weights in ϖ-coordinates
    h = build_hasse(choice)
    for index in range(1, len(h.nodes)):
        broken = _without_node(h, index)
        with pytest.raises(OrthoweylError, match="orbit not closed") as want:
            _coroot_covers(broken)
        with pytest.raises(OrthoweylError, match="orbit not closed") as got:
            with_bruhat_covers(broken)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "datum",
    [make_datum(DynkinKind.B, k) for k in range(3, 7)]
    + [make_datum(DynkinKind.D, k) for k in range(4, 7)],
    ids=repr,
)
def test_node_words_come_in_length_and_word_order_at_every_crossing(datum):
    # the walk sorts nothing: it finds the nodes of each length in word order
    k = datum.rank
    for mask in range(1 << k):
        choice = ParabolicChoice(datum, frozenset(j for j in range(1, k + 1) if mask >> (j - 1) & 1))
        words = [node.word for node in build_hasse(choice).nodes]
        assert words == sorted(words, key=lambda w: (len(w), w)), choice.crossed


def test_node_words_come_in_length_and_word_order():
    for n, p, choice in _choices(range(5, 62)):
        words = [node.word for node in build_hasse(choice).nodes]
        assert words == sorted(words, key=lambda w: (len(w), w)), (n, p)


def test_walk_equals_inversion_set_walk():
    for n, p, choice in _choices(range(5, 32)):
        assert build_hasse(choice) == _inversion_set_walk(choice), (n, p)


def test_covers_refuse_an_orbit_with_a_node_missing():
    with pytest.raises(OrthoweylError, match="orbit not closed"):
        with_bruhat_covers(_without_node(build_hasse(P2_D4), 5))


def test_covers_refuse_a_walk_edge_that_is_not_a_cover():
    h = build_hasse(P2_D4)
    nodes = list(h.nodes)
    nodes[1] = replace(nodes[1], length=nodes[1].length + 1)  # its walk edge skips a length
    with pytest.raises(OrthoweylError, match="walk edge missing from covers"):
        with_bruhat_covers(replace(h, nodes=tuple(nodes)))
