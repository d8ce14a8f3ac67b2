import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st

import orthoweyl.eisenstein as eisenstein
import orthoweyl.orthogroup as orthogroup
import orthoweyl.verification as verification
import orthoweyl.weylgroup as weylgroup
from conftest import diagram
from orthoweyl.cli import main
from orthoweyl.errors import OrthoweylError
from orthoweyl.verification import (
    PARABOLICS,
    CheckResult,
    expected_coset_count,
    expected_group_order,
    format_results,
    run_verification,
)
from orthoweyl.orthogroup import MaximalParabolic, crossed_simple_roots, group_spec
from orthoweyl.rootsystem import DynkinKind, Weight, make_datum, positive_root_vectors
from orthoweyl.weylgroup import (
    decode,
    encode,
    encoded_inverse,
    enumerate_group,
    generator_matrix,
    generator_permutations,
    group_layers,
    inversion_vectors,
    left_action,
    minimal_inverses,
    minimal_reps_bruteforce,
    right_gathers,
    sign_positions,
    word_action_matrix,
)
from reference import (
    _as_signed_permutation,
    _compose,
    _compose_closure,
    _inversion_count,
    _min_rule,
    _negative_image_count,
    _randint_recombination,
    _reference_recombination,
    _root_terms,
    _sends_positive,
    group_closure,
    inversion_counter,
    right_multipliers,
    signed_permutation_closure,
    word_inverse,
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


# --- the group as bytes against the k-tuple references ---
#
# ``weylgroup`` encodes each element as 2k bytes.  The tuple versions, which
# compose by definition, are the references in ``reference.py``.


def _decoded_closure(datum):
    return {decode(u): l for u, l in group_closure(*left_action(datum)).items()}


def _context(n):
    return verification._Context(group_spec(n), random.Random(7 * 1000 + n))


def _row(name):
    """The check of the row ``name`` in the table."""
    return dict(verification._CHECKS)[name]


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
    context = _context(5)
    h = context.diagrams[MaximalParabolic.P2]
    nodes = list(h.nodes)
    nodes[3] = change(nodes[3])
    context.diagrams[MaximalParabolic.P2] = replace(h, nodes=tuple(nodes))
    assert _row("reduced-words")(context) == f"P2: word {nodes[3].word}"


@pytest.mark.parametrize("n", range(38, 42))
def test_reduced_words_run_at_large_n(n):
    assert _row("reduced-words")(_context(n)) == ""


def test_an_off_by_one_length_fails_reduced_words_and_the_record_walk(monkeypatch):
    original = weylgroup.length_of

    def plus_one(datum, x):
        return original(datum, x) + 1

    for module in (weylgroup, verification, eisenstein):  # each module that reads it
        monkeypatch.setattr(module, "length_of", plus_one)
    row = next(r for r in run_verification(5) if r.check == "reduced-words")
    assert (row.status, row.detail) == ("FAIL", "P1: word ()")
    with pytest.raises(OrthoweylError, match=r"^word \(\) has length 1, but its node says 0$"):
        next(eisenstein.iter_records(group_spec(5), MaximalParabolic.P1))
    assert weylgroup.word_length(group_spec(5).datum, (1,)) == 2


@pytest.mark.parametrize("n", range(5, 22))
def test_inversion_count_equals_inversion_vectors(n):
    g = group_spec(n)
    gens = generator_permutations(g.datum)
    ident, tables = left_action(g.datum)
    count = inversion_counter(g.datum)
    roots = [_root_terms(g.datum, beta) for beta in positive_root_vectors(g.datum)]
    for p in PARABOLICS:
        for node in diagram(n, p).nodes:
            u = encoded_inverse(ident, tables, node.word)
            assert decode(u) == word_inverse(gens, node.word)
            assert count(u) == _inversion_count(decode(u), roots)
            assert count(u) == len(inversion_vectors(g.datum, node.word))


def test_back_or_forth_failure_is_reported(monkeypatch):
    import orthoweyl.verification as verification

    original = verification.group_layers
    gens = generator_permutations(group_spec(7).datum)  # B4
    tampered = left_action(group_spec(7).datum)
    # s1 (layer 1) and s1·s2 (layer 2) trade layers
    s1, s1s2 = encode(gens[0]), encode(_compose(gens[0], gens[1]))
    trade = {s1: s1s2, s1s2: s1}

    def swapped(ident, tables):
        for layer in original(ident, tables):
            yield [trade.get(u, u) for u in layer] if (ident, tables) == tampered else layer

    monkeypatch.setattr(verification, "group_layers", swapped)
    rows = {(r.check, r.n): r for r in verification.run_verification(7)}
    assert rows[("back-or-forth", 7)].status == "FAIL"
    assert rows[("back-or-forth", 7)].detail == "w=(1, 2, 3, 4), j=1"
    assert rows[("back-or-forth", 5)].status == rows[("back-or-forth", 6)].status == "PASS"
    assert rows[("oracle", 7)].status == rows[("group-order", 7)].status == "PASS"


# --- the signed-permutation oracle against the ϖ-matrix reference ---


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
    closure = _decoded_closure(datum)
    assert len(closure) == len(elements)
    if datum.rank <= 5:
        want = {_as_signed_permutation(datum, e.matrix): len(e.word) for e in elements}
        assert set(closure) == set(want)
        assert closure == want  # each BFS layer is the length of a shortest word


@pytest.mark.parametrize("datum", SMALL_DATA, ids=repr)
def test_closure_length_is_the_inversion_count(datum):
    roots = [_root_terms(datum, beta) for beta in positive_root_vectors(datum)]
    closure = _decoded_closure(datum)
    assert all(l == _negative_image_count(u, roots) for u, l in closure.items())


@pytest.mark.parametrize("n", range(5, 11))
def test_oracle_set_equals_bruteforce(n):
    g = group_spec(n)
    ident, tables = left_action(g.datum)
    group = group_closure(ident, tables)
    for p in PARABOLICS:
        crossed = crossed_simple_roots(g, p)
        want = {
            _as_signed_permutation(g.datum, word_action_matrix(g.datum, tuple(reversed(w))))
            for w in minimal_reps_bruteforce(g.datum, crossed)
        }
        assert set(map(decode, minimal_inverses(g.datum, group, crossed))) == want
        walk = {encoded_inverse(ident, tables, nd.word) for nd in diagram(n, p).nodes}
        assert set(map(decode, walk)) == want


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

    original = weylgroup.generator_permutations

    def one_wrong(datum):
        gens = original(datum)
        return (tuple(range(1, datum.rank + 1)),) + gens[1:]

    monkeypatch.setattr(weylgroup, "generator_permutations", one_wrong)
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


@pytest.mark.parametrize("datum", MID_DATA, ids=repr)
@given(data=st.data())
def test_right_multipliers_equal_compose(datum, data):
    gens = generator_permutations(datum)
    u = data.draw(signed_permutations(datum.rank))
    code = encode(u)
    for s, gather, times in zip(gens, right_gathers(datum), right_multipliers(gens)):
        assert decode(bytes(gather(code))) == times(u) == _compose(u, s)


@pytest.mark.parametrize("datum", MID_DATA, ids=repr)
@given(data=st.data())
def test_translate_tables_equal_left_compose(datum, data):
    u = data.draw(signed_permutations(datum.rank))
    ident, tables = left_action(datum)
    code = encode(u)
    assert len(code) == 2 * datum.rank and sorted(code) == sorted(ident)
    assert decode(code) == u
    assert decode(ident) == tuple(range(1, datum.rank + 1))
    for s, table in zip(generator_permutations(datum), tables):
        assert code.translate(table) == encode(_compose(s, u))


@pytest.mark.parametrize("datum", MID_DATA, ids=repr)
@given(data=st.data())
def test_sends_positive_equals_min_rule(datum, data):
    u = data.draw(signed_permutations(datum.rank))
    code = encode(u)
    roots = [(beta, _root_terms(datum, beta)) for beta in positive_root_vectors(datum)]
    assert {len(t) for _, t in roots} <= {1, 2}
    roots += [(tuple(-x for x in beta), [(i, -c) for i, c in t]) for beta, t in roots]
    for beta, t in roots:
        p, q = sign_positions(datum, beta)
        assert (code[p] < code[q]) == _min_rule(u, t) == _sends_positive(u, t)


@pytest.mark.parametrize("datum", SMALL_DATA, ids=repr)
def test_closure_equals_compose_closure(datum):
    gens = generator_permutations(datum)
    want = _compose_closure(gens)
    assert _decoded_closure(datum) == want  # lengths included
    reference = signed_permutation_closure(gens)
    assert reference == want and list(reference) == list(want)


# --- the closure streamed one layer at a time ---


@pytest.mark.parametrize("datum", SMALL_DATA, ids=repr)
def test_layers_concatenate_to_the_closure(datum):
    ident, tables = left_action(datum)
    layers = islice(group_layers(ident, tables), len(positive_root_vectors(datum)) + 2)
    streamed = [(u, l) for l, layer in enumerate(layers) for u in layer]
    assert streamed == list(group_closure(ident, tables).items())  # order and lengths too


def _streamed_oracle(g, ident, tables):
    oracle = {p: set() for p in PARABOLICS}
    for layer in group_layers(ident, tables):
        for p in PARABOLICS:
            oracle[p] |= minimal_inverses(g.datum, layer, crossed_simple_roots(g, p))
    return oracle


def test_streamed_oracle_peak_is_under_half_the_closure():
    g = group_spec(10)  # D6, 23 040 elements
    ident, tables = left_action(g.datum)
    tracemalloc.start()
    try:
        oracle = _streamed_oracle(g, ident, tables)
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        group = group_closure(ident, tables)
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(group) == expected_group_order(g)
    for p in PARABOLICS:
        assert oracle[p] == minimal_inverses(g.datum, group, crossed_simple_roots(g, p))
    assert streamed < whole / 2


@pytest.mark.parametrize("n", [5, 6, 10])
def test_tables_that_are_not_involutions_end_in_a_fail_row(monkeypatch, n):
    original = weylgroup.generator_permutations

    def cycled(datum):
        # s1 becomes ε_1 → ε_2 → … → ε_k → ε_1, of order k: u and s1∘u may lie
        # layers apart, so the three-layer window repeats elements without end
        k = datum.rank
        return (tuple(range(2, k + 1)) + (1,),) + original(datum)[1:]

    monkeypatch.setattr(weylgroup, "generator_permutations", cycled)
    rows = {r.check: r for r in run_verification(n) if r.n == n}
    assert rows["group-order"].status == "FAIL"
    assert rows["group-order"].detail.endswith(f" != {expected_group_order(group_spec(n))}")
    assert "support" in rows  # the last row at every n


# --- recombination: integer rows against the LinearForm reference ---


@pytest.mark.parametrize("n", range(5, 14))
def test_recombination_equals_linear_form_reference(n):
    g = group_spec(n)
    fast, slow = random.Random(n), random.Random(n)
    assert verification._recombination(g, fast) == _reference_recombination(g, slow) == ""
    assert fast.getstate() == slow.getstate()


def _basis_with_minus_one(monkeypatch, target):
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

    monkeypatch.setattr(verification, "restriction_basis", tampered)


@pytest.fixture
def levi_split_cache():
    """Empties ``_levi_split``'s cache before and after a test that changes what it reads."""
    eisenstein._levi_split.cache_clear()
    yield
    eisenstein._levi_split.cache_clear()


def _halves_missing_one(monkeypatch, target):
    """``half_positions`` loses its first entry for ``target``, both in ``restrict`` (the
    reference) and in ``_levi_split`` (the check)."""
    original = orthogroup.half_positions

    def tampered(g, p):
        return original(g, p)[1:] if p is target else original(g, p)

    monkeypatch.setattr(orthogroup, "half_positions", tampered)
    monkeypatch.setattr(eisenstein, "half_positions", tampered)
    eisenstein._levi_split.cache_clear()


@pytest.mark.parametrize("p", PARABOLICS, ids=lambda p: p.name)
@pytest.mark.parametrize("mutation", [_basis_with_minus_one, _halves_missing_one])
def test_recombination_mutation_fails_as_the_reference(monkeypatch, levi_split_cache, mutation, p):
    mutation(monkeypatch, p)
    n = 7
    row = next(r for r in run_verification(n) if r.check == "recombination" and r.n == n)
    want = _reference_recombination(group_spec(n), random.Random(7 * 1000 + n))
    assert want.startswith(f"{p.name}: trial ")
    assert row.status == "FAIL"
    assert row.detail == want


def _a_weight_plus_one(monkeypatch, target):
    """The split that recombination reads gains λ_1 in its 𝔞-coefficient for ``target``."""
    original = verification._levi_split

    def tampered(g, p):
        crossed, b_rows, a_weights, rho_a = original(g, p)
        if p is target:
            a_weights = (a_weights[0] - 2,) + a_weights[1:]
        return crossed, b_rows, a_weights, rho_a

    monkeypatch.setattr(verification, "_levi_split", tampered)


@pytest.mark.parametrize("p", PARABOLICS, ids=lambda p: p.name)
def test_levi_split_mutation_fails_recombination(monkeypatch, p):
    _a_weight_plus_one(monkeypatch, p)
    rows = [(r.n, r.status, r.detail) for r in run_verification(7) if r.check == "recombination"]
    assert rows == [(n, "FAIL", f"{p.name}: trial 0") for n in (5, 6, 7)]


@pytest.mark.parametrize("n", range(5, 13))
def test_recombination_checks_the_records_split(monkeypatch, levi_split_cache, n):
    # _levi_split halves only the first of the half_positions; restrict is unchanged
    original = eisenstein.half_positions
    monkeypatch.setattr(eisenstein, "half_positions", lambda g, p: original(g, p)[:1])
    eisenstein._levi_split.cache_clear()
    g = group_spec(n)
    first = "P2" if g.is_odd else "P1"  # for odd n, P1 halves one coordinate only
    assert verification._recombination(g, random.Random(n)) == f"{first}: trial 0"
    assert _reference_recombination(g, random.Random(n)) == ""


@given(seed=st.integers(0, 2**64), count=st.integers(0, 400))
def test_trial_values_equal_randint(seed, count):
    fast, slow = random.Random(seed), random.Random(seed)
    got = list(islice(verification._trial_values(fast), count))
    assert got == [slow.randint(-6, 6) * (12 // slow.randint(1, 4)) for _ in range(count)]
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", range(5, 14))
def test_recombination_equals_randint_reference(n):
    fast, slow = random.Random(n), random.Random(n)
    assert verification._recombination(group_spec(n), fast) == ""
    assert _randint_recombination(group_spec(n), slow) == ""
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", [5, 6, 7, 10])
@pytest.mark.parametrize("p", PARABOLICS, ids=lambda p: p.name)
def test_recombination_failure_leaves_the_randint_state(monkeypatch, p, n):
    _basis_with_minus_one(monkeypatch, p)
    fast, slow = random.Random(n), random.Random(n)
    assert verification._recombination(group_spec(n), fast) == f"{p.name}: trial 0"
    assert _randint_recombination(group_spec(n), slow) == f"{p.name}: trial 0"
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", [5, 6, 7, 10])
@pytest.mark.parametrize("p", PARABOLICS, ids=lambda p: p.name)
def test_recombination_fails_at_trial_zero_when_b_changes(monkeypatch, p, n):
    # one entry of B changes, so B·R is no longer a multiple of the identity
    _basis_with_minus_one(monkeypatch, p)
    assert verification._recombination(group_spec(n), random.Random(n)) == f"{p.name}: trial 0"


# --- the record checks run at every n ---


def test_record_checks_pass_at_thirteen():
    rows = {(r.check, r.n): r.status for r in run_verification(13)}
    for check in ("sign-rule", "mu-regular", "a2-by-length"):
        assert rows[(check, 13)] == "PASS"


def _negated(form):
    """A record's integer row (constant, terms) times -1."""
    constant, terms = form
    return -constant, tuple((i, -x) for i, x in terms)


def test_sign_rule_failure_is_reported_at_thirteen(monkeypatch):
    original = verification.parabolic_report

    def flipped(g, p, lam, diagram):
        report = original(g, p, lam, diagram)
        if g.n != 13 or p is not MaximalParabolic.P1:
            return report
        first, *rest = report.records
        first = replace(first, a_row=_negated(first.a_row))
        return replace(report, records=(first, *rest))

    monkeypatch.setattr(verification, "parabolic_report", flipped)
    rows = {(r.check, r.n): r for r in run_verification(13)}
    assert rows[("sign-rule", 13)].status == "FAIL"
    assert rows[("sign-rule", 13)].detail.startswith("P1 l=0: a=")
    assert rows[("sign-rule", 12)].status == "PASS"


def _every_record(change):
    """``parabolic_report`` with ``change`` applied to every record, for each parabolic."""
    original = verification.parabolic_report

    def tampered(g, p, lam, diagram):
        report = original(g, p, lam, diagram)
        return replace(report, records=tuple(map(change, report.records)))

    return verification, "parabolic_report", tampered


def test_sign_rule_reports_the_first_failure(monkeypatch):
    monkeypatch.setattr(*_every_record(lambda r: replace(r, a_row=_negated(r.a_row))))
    row = next(r for r in run_verification(7) if r.check == "sign-rule" and r.n == 7)
    assert row.status == "FAIL"
    assert row.detail.startswith("P1 l=0: a=")


def test_mu_regular_reports_the_first_failure(monkeypatch):
    def zero(rec):
        return replace(rec, mu_rows=((0, ()),) * len(rec.mu_rows))

    monkeypatch.setattr(*_every_record(zero))
    row = next(r for r in run_verification(5) if r.check == "mu-regular")
    assert (row.status, row.detail) == ("FAIL", "P1 word ()")


def test_a2_by_length_reports_two_values_at_one_length(monkeypatch):
    original = verification.parabolic_report

    def doubled(g, p, lam, diagram):
        # P2's word (2, 3) shares length 2 with (2, 1); doubling its a keeps its sign
        report = original(g, p, lam, diagram)
        if g.n != 5 or p is not MaximalParabolic.P2:
            return report
        records = tuple(
            replace(r, a_row=(2 * r.a_row[0], r.a_row[1])) if r.word == (2, 3) else r
            for r in report.records
        )
        return replace(report, records=records)

    monkeypatch.setattr(verification, "parabolic_report", doubled)
    rows = {(r.check, r.n): r for r in run_verification(6)}
    assert (rows[("a2-by-length", 5)].status, rows[("a2-by-length", 5)].detail) == (
        "FAIL",
        "lengths [2]",
    )
    assert rows[("sign-rule", 5)].status == rows[("mu-regular", 5)].status == "PASS"
    assert rows[("a2-by-length", 6)].status == "PASS"


def test_antipodal_failure_is_reported(monkeypatch):
    original = verification.evaluation_coefficient

    def flipped(g, p, word):
        # the row reads only () and the longest word; P2's longest word changes sign
        value = original(g, p, word)
        return -value if p is MaximalParabolic.P2 and word else value

    monkeypatch.setattr(verification, "evaluation_coefficient", flipped)
    rows = [r for r in run_verification(6) if r.check == "antipodal"]
    assert [(r.n, r.status, r.detail) for r in rows] == [(5, "FAIL", "P2"), (6, "FAIL", "P2")]


def test_covers_at_six_need_more_than_the_walk_edges(monkeypatch):
    original = verification.with_bruhat_covers

    def walk_only(h):
        completed = original(h)
        return replace(completed, cover_edges=tuple((a, b) for a, b, _ in completed.algo_edges))

    monkeypatch.setattr(verification, "with_bruhat_covers", walk_only)
    rows = {(r.check, r.n): r for r in run_verification(7)}
    assert rows[("covers", 5)].status == "PASS"
    assert (rows[("covers", 6)].status, rows[("covers", 6)].detail) == (
        "FAIL",
        "P2: expected strictly more covers than walk edges",
    )
    assert ("covers", 7) not in rows


def test_support_reports_the_first_failure(monkeypatch):
    # a cuspidal degree of n makes l = 0 a holomorphy gap in both parabolics
    monkeypatch.setattr(verification, "cuspidal_degrees", lambda g, p: (g.n,))
    row = next(r for r in run_verification(5) if r.check == "support")
    assert (row.status, row.detail) == ("FAIL", "P1: holomorphy gap at l=0")


# --- an error in a row ends in its FAIL row, not a crash ---


def _p1_node_moved(monkeypatch, old, new):
    """At n = 5, P1's node of length ``old`` is stored with length ``new``."""
    original = verification._diagrams

    def tampered(g):
        diagrams = dict(original(g))
        if g.n == 5:
            h = diagrams[MaximalParabolic.P1]
            nodes = tuple(replace(nd, length=new) if nd.length == old else nd for nd in h.nodes)
            diagrams[MaximalParabolic.P1] = replace(h, nodes=nodes)
        return diagrams

    monkeypatch.setattr(verification, "_diagrams", tampered)


def test_histogram_with_a_gap_is_not_palindromic(monkeypatch):
    _p1_node_moved(monkeypatch, 4, 3)  # N(4) = 0, N(3) = 2
    row = next(r for r in run_verification(5) if r.check == "histogram")
    assert (row.status, row.detail) == ("FAIL", "P1: N(l) not palindromic")


def test_record_reader_error_fails_the_record_rows(monkeypatch, capsys):
    _p1_node_moved(monkeypatch, 1, 2)
    rows = {(r.check, r.n): r for r in run_verification(6)}
    message = "word (1,) has length 1, but its node says 2"
    for check in ("sign-rule", "mu-regular", "a2-by-length"):
        assert (rows[(check, 5)].status, rows[(check, 5)].detail) == ("FAIL", message)
    assert rows[("support", 5)].status == "PASS"
    assert rows[("covers", 5)].detail == "P1: walk edge missing from covers"
    assert all(r.status == "PASS" for (_, n), r in rows.items() if n == 6)
    assert main(["verify", "--n-max", "5"]) == 1
    assert f"sign-rule      n=5   FAIL  [{message}]" in capsys.readouterr().out


def test_an_error_in_any_row_fails_that_row(monkeypatch, capsys):
    # P1's longest node takes a word that is not minimal, so evaluation_coefficient raises
    original = verification._diagrams

    def tampered(g):
        diagrams = dict(original(g))
        h = diagrams[MaximalParabolic.P1]
        *rest, longest = h.nodes  # (1, 2, 3, 2, 1)
        not_minimal = replace(longest, word=(2, 2, 3, 2, 1))
        diagrams[MaximalParabolic.P1] = replace(h, nodes=(*rest, not_minimal))
        return diagrams

    monkeypatch.setattr(verification, "_diagrams", tampered)
    rows = {r.check: r for r in run_verification(5)}
    message = "word (2, 2, 3, 2, 1) is not minimal for the parabolic (fails at α_3)"
    assert (rows["antipodal"].status, rows["antipodal"].detail) == ("FAIL", message)
    assert len(rows) == 13 and list(rows)[-1] == "covers"  # the later rows still run
    assert main(["verify", "--n-max", "5"]) == 1
    assert f"antipodal      n=5   FAIL  [{message}]" in capsys.readouterr().out


def test_lambda_is_drawn_once_when_the_records_raise(monkeypatch):
    _p1_node_moved(monkeypatch, 1, 2)
    context = _context(5)
    for name in ("sign-rule", "mu-regular", "a2-by-length"):
        detail = verification._caught(_row(name), context)
        assert detail == "word (1,) has length 1, but its node says 2"
    once = random.Random(7 * 1000 + 5)
    lam = [Fraction(once.randint(1, 9), once.randint(1, 3)) for _ in range(3)]
    assert context.lam == Weight.from_constants(lam, 3)
    assert context.rng.getstate() == once.getstate()


def test_record_rows_build_the_records_once_when_they_raise(monkeypatch):
    # The reader fails on the last of one build's three reports (P1 and P2 at the
    # random λ, then P2 at λ = 1): the three rows share that build and its error.
    reader, report, calls = eisenstein._read_record, verification.parabolic_report, []

    def failing_at_ones(g, p, word, act, lam):
        if lam.den == 1 and set(lam.const) == {2}:  # λ_i + 1 = 2 for every i
            raise OrthoweylError(f"no record of {word} at λ = 1")
        return reader(g, p, word, act, lam)

    def counted(g, p, lam, diagram):
        calls.append(g.n)
        return report(g, p, lam, diagram)

    monkeypatch.setattr(eisenstein, "_read_record", failing_at_ones)
    monkeypatch.setattr(verification, "parabolic_report", counted)
    results = run_verification(6)
    assert calls == [5, 5, 5, 6, 6, 6]
    for n in (5, 6):
        rows = {r.check: r for r in results if r.n == n}
        details = {rows[name].detail for name in ("sign-rule", "mu-regular", "a2-by-length")}
        assert details == {"no record of () at λ = 1"}
        assert {rows[name].status for name in ("sign-rule", "mu-regular", "a2-by-length")} == {
            "FAIL"
        }


# --- the rows, in order ---

ROWS = [
    "counts",
    "histogram",
    "reduced-words",
    "oracle",
    "group-order",
    "back-or-forth",
    "recombination",
    "antipodal",
    "sign-rule",
    "mu-regular",
    "a2-by-length",
    "support",
]
SKIPPED_ABOVE_RANK_SIX = {
    "oracle": "rank 7 > 6",
    "group-order": "rank 7 > 6",
    "back-or-forth": "rank 7 > 5",
}


def test_rows_come_in_the_table_order():
    assert [name for name, _ in verification._CHECKS] == [*ROWS, "covers"]
    results = run_verification(13)
    rows = {n: [r.check for r in results if r.n == n] for n in (5, 7, 12, 13)}
    assert rows == {5: [*ROWS, "covers"], 7: ROWS, 12: ROWS, 13: ROWS}
    for n in (12, 13):
        skips = {r.check: r.detail for r in results if r.n == n and r.status == "SKIP"}
        assert skips == SKIPPED_ABOVE_RANK_SIX

