from dataclasses import replace

import pytest

from conftest import diagram
from orthoweyl.cli import main
from orthoweyl.errors import OrthoweylError
from orthoweyl.verification import (
    PARABOLICS,
    CheckResult,
    expected_coset_count,
    expected_group_order,
    format_results,
    generator_permutations,
    minimal_inverses,
    run_verification,
    signed_permutation_closure,
    word_inverse,
)
from orthoweyl.orthogroup import MaximalParabolic, crossed_simple_roots, group_spec
from orthoweyl.rootsystem import (
    DynkinKind,
    _eps_to_weight_vector,
    custom_datum,
    doubled_epsilon,
    make_datum,
    positive_root_vectors,
)
from orthoweyl.weylgroup import (
    enumerate_group,
    generator_matrix,
    mat_vec,
    minimal_reps_bruteforce,
    word_action_matrix,
)


def test_expected_formulas():
    assert expected_coset_count(group_spec(5), MaximalParabolic.P1) == 6
    assert expected_coset_count(group_spec(6), MaximalParabolic.P1) == 8
    assert expected_coset_count(group_spec(9), MaximalParabolic.P2) == 40
    assert expected_coset_count(group_spec(10), MaximalParabolic.P2) == 60
    assert expected_group_order(group_spec(5)) == 48
    assert expected_group_order(group_spec(6)) == 192


def test_run_verification_clean_to_eight():
    results = run_verification(8)
    assert results
    assert all(r.status == "PASS" for r in results)
    names = {r.check for r in results}
    assert {"counts", "oracle", "back-or-forth", "recombination", "antipodal"} <= names


def test_run_verification_reports_skips_for_large_rank():
    results = run_verification(12)
    assert all(r.status != "FAIL" for r in results)
    skipped = {(r.check, r.n) for r in results if r.status == "SKIP"}
    assert ("oracle", 12) in skipped
    assert ("back-or-forth", 12) in skipped


def test_verification_is_deterministic():
    first = run_verification(6)
    second = run_verification(6)
    assert first == second


def test_format_results_summary_and_counterexample():
    rows = [
        CheckResult("counts", 5, "PASS"),
        CheckResult("oracle", 5, "FAIL", "P1: walk 6 vs oracle 7; symmetric difference 1"),
        CheckResult("covers", 6, "SKIP", "because"),
    ]
    text = format_results(rows)
    assert "summary: 1 passed, 1 failed, 1 skipped" in text
    assert "first failure: oracle at n=5" in text


def test_mutation_is_caught(monkeypatch):
    import orthoweyl.verification as verification

    monkeypatch.setattr(verification, "expected_coset_count", lambda g, p: -1)
    results = verification.run_verification(5)
    assert any(r.check == "counts" and r.status == "FAIL" for r in results)


def test_back_or_forth_failure_is_reported(monkeypatch):
    import orthoweyl.verification as verification

    original = verification.signed_permutation_closure
    tampered = generator_permutations(group_spec(7).datum)  # B4

    def swapped(gens):
        length = original(gens)
        if gens == tampered:
            # s1 (length 1) and s1·s2 (length 2) trade lengths
            s1, s1s2 = gens[0], verification._compose(gens[0], gens[1])
            length[s1], length[s1s2] = length[s1s2], length[s1]
        return length

    monkeypatch.setattr(verification, "signed_permutation_closure", swapped)
    rows = {(r.check, r.n): r for r in verification.run_verification(7)}
    assert rows[("back-or-forth", 7)].status == "FAIL"
    assert rows[("back-or-forth", 7)].detail == "w=(1, 2, 3, 4), j=1"
    assert rows[("back-or-forth", 5)].status == rows[("back-or-forth", 6)].status == "PASS"
    assert rows[("oracle", 7)].status == rows[("group-order", 7)].status == "PASS"


# --- the signed-permutation oracle against the ϖ-matrix reference ---


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


SMALL_DATA = [make_datum(DynkinKind.B, k) for k in range(3, 7)] + [
    make_datum(DynkinKind.D, k) for k in range(4, 7)
]


@pytest.mark.parametrize(
    "datum",
    SMALL_DATA + [make_datum(DynkinKind.B, 12), make_datum(DynkinKind.D, 12)],
    ids=repr,
)
def test_generator_permutations_agree_with_generator_matrix(datum):
    gens = generator_permutations(datum)
    assert len(gens) == datum.rank
    for j, perm in enumerate(gens, start=1):
        assert perm == _as_signed_permutation(datum, generator_matrix(datum, j))


def test_generator_permutations_refuse_a_non_signed_permutation():
    g2 = custom_datum([[2, -1], [-3, 2]])
    with pytest.raises(OrthoweylError, match="not a signed permutation"):
        generator_permutations(g2)


@pytest.mark.parametrize("datum", SMALL_DATA, ids=repr)
def test_closure_is_the_enumerated_group(datum):
    # uncached, so the rank-6 groups are not kept for the rest of the session
    elements = enumerate_group.__wrapped__(datum)
    closure = signed_permutation_closure(generator_permutations(datum))
    assert len(closure) == len(elements)
    if datum.rank <= 5:
        want = {_as_signed_permutation(datum, e.matrix): len(e.word) for e in elements}
        assert set(closure) == set(want)
        assert closure == want  # each BFS layer is the length of a shortest word


def _negative_image_count(u, roots):
    """#{β in ``roots`` : u(β) < 0}, building the whole ε-vector of u(β)."""
    count = 0
    for terms in roots:
        image = [0] * len(u)
        for i, c in terms:
            image[abs(u[i]) - 1] += c if u[i] > 0 else -c
        count += next(x for x in image if x) < 0
    return count


@pytest.mark.parametrize("datum", SMALL_DATA, ids=repr)
def test_closure_length_is_the_inversion_count(datum):
    roots = [
        [(i, c) for i, c in enumerate(doubled_epsilon(datum, beta)) if c]
        for beta in positive_root_vectors(datum)
    ]
    closure = signed_permutation_closure(generator_permutations(datum))
    assert all(l == _negative_image_count(u, roots) for u, l in closure.items())


@pytest.mark.parametrize("n", range(5, 11))
def test_oracle_set_equals_bruteforce(n):
    g = group_spec(n)
    gens = generator_permutations(g.datum)
    group = signed_permutation_closure(gens)
    for p in PARABOLICS:
        crossed = crossed_simple_roots(g, p)
        want = {
            _as_signed_permutation(g.datum, word_action_matrix(g.datum, tuple(reversed(w))))
            for w in minimal_reps_bruteforce(g.datum, crossed)
        }
        assert minimal_inverses(g.datum, group, crossed) == want
        assert {word_inverse(gens, nd.word) for nd in diagram(n, p).nodes} == want


def test_oracle_failure_is_reported(monkeypatch):
    import orthoweyl.verification as verification

    original = verification._diagrams

    def tampered(g):
        diagrams = dict(original(g))
        h = diagrams[MaximalParabolic.P2]
        # a childless node takes the word of the node before it, of the same length
        nodes = list(h.nodes)
        parents = {nd.word[:-1] for nd in nodes}
        b = next(
            i
            for i in range(1, len(nodes))
            if nodes[i - 1].length == nodes[i].length and nodes[i].word not in parents
        )
        nodes[b] = replace(nodes[b], word=nodes[b - 1].word)
        diagrams[MaximalParabolic.P2] = replace(h, nodes=tuple(nodes))
        return diagrams

    monkeypatch.setattr(verification, "_diagrams", tampered)
    row = next(r for r in verification.run_verification(5) if r.check == "oracle")
    assert row.status == "FAIL"
    assert row.detail == "P2: walk 11 vs oracle 12; symmetric difference 1"


def test_group_order_failure_is_reported(monkeypatch):
    import orthoweyl.verification as verification

    original = verification.generator_permutations

    def one_wrong(datum):
        gens = original(datum)
        return (tuple(range(1, datum.rank + 1)),) + gens[1:]

    monkeypatch.setattr(verification, "generator_permutations", one_wrong)
    row = next(r for r in verification.run_verification(5) if r.check == "group-order")
    assert row.status == "FAIL"
    assert row.detail.endswith("!= 48")


def test_verify_ten_enumerates_no_rank_six_group(monkeypatch, capsys):
    import orthoweyl.verification as verification
    import orthoweyl.weylgroup as weylgroup

    ranks = []
    original = weylgroup.enumerate_group

    def counting(datum):
        ranks.append(datum.rank)
        return original(datum)

    monkeypatch.setattr(weylgroup, "enumerate_group", counting)
    assert not hasattr(verification, "enumerate_group")
    assert main(["verify", "--n-max", "10"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    status = {(r[0], r[1]): r[2] for r in rows if len(r) > 2 and r[1].startswith("n=")}
    assert status[("oracle", "n=10")] == status[("group-order", "n=10")] == "PASS"
    assert ranks == []  # back-or-forth reads the oracle's closure too
