import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import orthoweyl.orthogroup as orthogroup
import orthoweyl.verification as verification
from conftest import diagram
from orthoweyl.cli import main
from orthoweyl.linform import LinearForm
from orthoweyl.verification import (
    PARABOLICS,
    CheckResult,
    expected_coset_count,
    expected_group_order,
    format_results,
    generator_permutations,
    minimal_inverses,
    right_multipliers,
    run_verification,
    signed_permutation_closure,
    word_inverse,
)
from orthoweyl.orthogroup import MaximalParabolic, crossed_simple_roots, group_spec
from orthoweyl.rootsystem import (
    DynkinKind,
    _eps_to_weight_vector,
    doubled_epsilon,
    Weight,
    make_datum,
    positive_root_vectors,
)
from orthoweyl.weylgroup import (
    enumerate_group,
    generator_matrix,
    inversion_vectors,
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


# --- reduced-words: inversion counts on signed permutations ---


@pytest.mark.parametrize(
    "change",
    [
        lambda nd: replace(nd, word=nd.word + (1, 1)),  # not reduced, same element
        lambda nd: replace(nd, length=nd.length + 1),  # stored length off by one
    ],
    ids=["not-reduced", "length-off-by-one"],
)
def test_reduced_words_failure_is_reported(change):
    g = group_spec(5)
    diagrams = verification._diagrams(g)
    h = diagrams[MaximalParabolic.P2]
    nodes = list(h.nodes)
    nodes[3] = change(nodes[3])
    diagrams[MaximalParabolic.P2] = replace(h, nodes=tuple(nodes))
    assert verification._reduced_words(g, diagrams) == f"P2: word {nodes[3].word}"


@pytest.mark.parametrize("n", range(38, 42))
def test_reduced_words_run_at_large_n(n):
    g = group_spec(n)
    assert verification._reduced_words(g, verification._diagrams(g)) == ""


@pytest.mark.parametrize("n", range(5, 22))
def test_inversion_count_equals_inversion_vectors(n):
    g = group_spec(n)
    gens = generator_permutations(g.datum)
    roots = [verification._root_terms(g.datum, beta) for beta in positive_root_vectors(g.datum)]
    for p in PARABOLICS:
        for node in diagram(n, p).nodes:
            u = word_inverse(gens, node.word)
            assert verification._inversion_count(u, roots) == len(
                inversion_vectors(g.datum, node.word)
            )


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


# --- the closure's fast path against the generic composition ---

MID_DATA = [make_datum(DynkinKind.B, k) for k in range(3, 9)] + [
    make_datum(DynkinKind.D, k) for k in range(4, 9)
]


@st.composite
def signed_permutations(draw, k):
    perm = draw(st.permutations(range(1, k + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    return tuple(s * x for s, x in zip(signs, perm))


def _min_rule(u, terms):
    """The sign of the image term with the smallest ε-index, found by ``min``."""
    _, c = min((abs(u[i]), c if u[i] > 0 else -c) for i, c in terms)
    return c > 0


def _epsilon_terms(datum):
    """Every positive root as its nonzero doubled ε-coordinates."""
    return [
        [(i, c) for i, c in enumerate(doubled_epsilon(datum, beta)) if c]
        for beta in positive_root_vectors(datum)
    ]


@pytest.mark.parametrize("datum", MID_DATA, ids=repr)
@given(data=st.data())
def test_right_multipliers_equal_compose(datum, data):
    gens = generator_permutations(datum)
    u = data.draw(signed_permutations(datum.rank))
    for s, times in zip(gens, right_multipliers(gens)):
        assert times(u) == verification._compose(u, s)


@pytest.mark.parametrize("datum", MID_DATA, ids=repr)
@given(data=st.data())
def test_sends_positive_equals_min_rule(datum, data):
    u = data.draw(signed_permutations(datum.rank))
    roots = _epsilon_terms(datum)
    assert {len(terms) for terms in roots} <= {1, 2}
    for terms in roots + [[(i, -c) for i, c in terms] for terms in roots]:
        assert verification._sends_positive(u, terms) == _min_rule(u, terms)


def _compose_closure(gens):
    """Breadth-first closure by the generic ``_compose``, each element with its layer."""
    ident = tuple(range(1, len(gens[0]) + 1))
    length = {ident: 0}
    frontier = [ident]
    while frontier:
        fresh = []
        for u in frontier:
            for s in gens:
                v = verification._compose(u, s)
                if v not in length:
                    length[v] = length[u] + 1
                    fresh.append(v)
        frontier = fresh
    return length


@pytest.mark.parametrize("datum", SMALL_DATA, ids=repr)
def test_closure_equals_compose_closure(datum):
    gens = generator_permutations(datum)
    closure, want = signed_permutation_closure(gens), _compose_closure(gens)
    assert closure == want
    assert list(closure) == list(want)  # same BFS order, so the same first failure


# --- recombination: integer rows against the LinearForm reference ---


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
            r = verification.restrict(g, p, w)
            if _combine([r.a_coefficient, *r.b_coords], [head, *tail], g.k) != w:
                return f"{p.name}: trial {trial}"
    return ""


@pytest.mark.parametrize("n", range(5, 14))
def test_recombination_equals_linear_form_reference(n):
    g = group_spec(n)
    fast, slow = random.Random(n), random.Random(n)
    assert verification._recombination(g, fast) == _reference_recombination(g, slow) == ""
    assert fast.getstate() == slow.getstate()


def _basis_with_minus_one(target):
    original = verification.restriction_basis

    def tampered(g, p):
        head, tail = original(g, p)
        if p is not target:
            return head, tail
        # the first -1/2 entry of the basis becomes -1
        b, i = next(
            (b, i)
            for b, w in enumerate(tail)
            for i, c in enumerate(w.constant_tuple())
            if c == Fraction(-1, 2)
        )
        values = list(tail[b].constant_tuple())
        values[i] = -1
        return head, tail[:b] + (Weight.from_constants(values),) + tail[b + 1:]

    return verification, "restriction_basis", tampered


def _halves_missing_one(target):
    original = orthogroup.half_positions

    def tampered(g, p):
        return original(g, p)[1:] if p is target else original(g, p)

    return orthogroup, "half_positions", tampered


def _restrict_plus_one(target):
    original = verification.restrict

    def tampered(g, p, w):
        r = original(g, p, w)
        if p is not target:
            return r
        one = LinearForm.const(1, r.a_coefficient.nvars)
        return replace(r, a_coefficient=r.a_coefficient + one)

    return verification, "restrict", tampered


@pytest.mark.parametrize("p", PARABOLICS, ids=lambda p: p.name)
@pytest.mark.parametrize(
    "mutation", [_basis_with_minus_one, _halves_missing_one, _restrict_plus_one]
)
def test_recombination_mutation_fails_as_the_reference(monkeypatch, mutation, p):
    monkeypatch.setattr(*mutation(p))
    n = 7
    row = next(r for r in run_verification(n) if r.check == "recombination")
    want = _reference_recombination(group_spec(n), random.Random(7 * 1000 + n))
    assert want.startswith(f"{p.name}: trial ")
    assert row.status == "FAIL"
    assert row.detail == want


# --- the record checks run at every n ---


def test_record_checks_pass_at_thirteen():
    rows = {(r.check, r.n): r.status for r in run_verification(13)}
    for check in ("sign-rule", "mu-regular", "a2-by-length"):
        assert rows[(check, 13)] == "PASS"


def test_sign_rule_failure_is_reported_at_thirteen(monkeypatch):
    original = verification.parabolic_report

    def flipped(g, p, lam, diagram):
        report = original(g, p, lam, diagram)
        if g.n != 13 or p is not MaximalParabolic.P1:
            return report
        first, *rest = report.records
        first = replace(first, a_normalized=-first.a_normalized)
        return replace(report, records=(first, *rest))

    monkeypatch.setattr(verification, "parabolic_report", flipped)
    rows = {(r.check, r.n): r for r in run_verification(13)}
    assert rows[("sign-rule", 13)].status == "FAIL"
    assert rows[("sign-rule", 13)].detail.startswith("P1 l=0: a=")
    assert rows[("sign-rule", 12)].status == "PASS"
