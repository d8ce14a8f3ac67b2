from dataclasses import fields, replace
from fractions import Fraction as Q

import pytest

from conftest import diagram, matrix_record, reference_record
from orthoweyl import eisenstein
from orthoweyl.eisenstein import (
    degree_support,
    evaluation_coefficient,
    full_report,
    holomorphy_guaranteed,
    iter_records,
    kostant_record,
    kostant_restriction,
    parabolic_report,
    regular_weight,
)
from orthoweyl.errors import (
    DimensionError,
    IndexRangeError,
    NotCosetRepresentativeError,
    OrthoweylError,
    RegularityError,
)
from orthoweyl.hasse import HasseNode, build_hasse
from orthoweyl.linform import LinearForm
from orthoweyl.orthogroup import MaximalParabolic, group_spec, parabolic_choice
from orthoweyl.rootsystem import Weight
from orthoweyl.weylgroup import identity_matrix, times_generator

P1, P2 = MaximalParabolic.P1, MaximalParabolic.P2


def lf(k, const=0, coeffs=None):
    return LinearForm.make(k, const, coeffs or {})


def sym(k, *indices, const=0):
    return lf(k, const, {i: 1 for i in indices})


def test_kostant_rows_odd_first():
    g = group_spec(5)
    assert kostant_restriction(g, P1, ()) == (sym(3, 2), sym(3, 3))
    assert kostant_restriction(g, P1, (1,)) == (sym(3, 1, 2, const=1), sym(3, 3))


def test_kostant_row_second_parabolic():
    g = group_spec(7)
    assert kostant_restriction(g, P2, (2,)) == (
        sym(4, 1, 2, const=1),
        sym(4, 2, 3, const=1),
        sym(4, 4),
    )


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("letter", [0, -1, "k+1"])
@pytest.mark.parametrize("read", [kostant_record, kostant_restriction, evaluation_coefficient])
def test_letters_outside_the_rank_are_refused(read, letter, n):
    g = group_spec(n)
    letter = g.k + 1 if letter == "k+1" else letter
    with pytest.raises(IndexRangeError, match=rf"^letter {letter} outside 1\.\.{g.k}$"):
        read(g, P1, (letter,))


def test_kostant_rejects_non_representative():
    g = group_spec(5)
    with pytest.raises(NotCosetRepresentativeError):
        kostant_restriction(g, P1, (2,))
    with pytest.raises(NotCosetRepresentativeError):
        kostant_restriction(g, P2, (1,))


def test_evaluation_points_odd_first():
    g = group_spec(5)
    assert evaluation_coefficient(g, P1, ()) == lf(
        3, -1, {1: Q(-2, 5), 2: Q(-2, 5), 3: Q(-1, 5)}
    )
    assert evaluation_coefficient(g, P1, (1, 2, 3)) == lf(3, Q(1, 5), {3: Q(1, 5)})


def test_evaluation_point_second_parabolic():
    g = group_spec(5)
    assert evaluation_coefficient(g, P2, (2, 3, 2)) == lf(3, Q(-1, 4), {1: Q(-1, 4)})


def test_evaluation_numeric():
    g = group_spec(5)
    lam = Weight.from_constants([1, 1, 1], 3)
    assert evaluation_coefficient(g, P1, (), lam) == lf(3, -2)


def test_raw_vs_normalized():
    from orthoweyl.eisenstein import raw_evaluation_coefficient
    from orthoweyl.orthogroup import levi_rho_coefficient

    g = group_spec(6)
    for p in (P1, P2):
        raw = raw_evaluation_coefficient(g, p, (2,) if p is P2 else (1,))
        norm = evaluation_coefficient(g, p, (2,) if p is P2 else (1,))
        assert raw == norm.scale(levi_rho_coefficient(g, p))


def test_holomorphy_flags():
    g = group_spec(5)
    assert holomorphy_guaranteed(g, P1, (1, 2, 3))  # 2·3 >= 5
    assert not holomorphy_guaranteed(g, P1, (1, 2))  # 2·2 < 5
    assert holomorphy_guaranteed(g, P2, (2, 1, 3, 2))  # 2·4 >= 7


def test_degree_supports():
    assert (degree_support(group_spec(5), P1).q_min, degree_support(group_spec(5), P1).q_max) == (5, 7)
    assert (degree_support(group_spec(6), P1).q_min, degree_support(group_spec(6), P1).q_max) == (6, 9)
    assert (degree_support(group_spec(5), P2).q_min, degree_support(group_spec(5), P2).q_max) == (5, 8)
    for n in range(5, 21):
        g = group_spec(n)
        for p in (P1, P2):
            s = degree_support(g, p)
            degrees = sorted({e.degree for e in s.generation})
            assert degrees == list(range(s.q_min, s.q_max + 1))
            assert all(e.degree == e.cuspidal_degree + e.length for e in s.generation)


def test_even_case_record_flags():
    g = group_spec(6)
    h = build_hasse(parabolic_choice(g, P1))
    records = [kostant_record(g, P1, node.word) for node in h.nodes]
    excluded = [r for r in records if r.excluded_from_generation]
    assert len(excluded) == 2
    assert all(r.length == g.k - 1 for r in excluded)
    assert all(r.needs_weight_constraint != r.excluded_from_generation for r in records)
    # odd case and second parabolic carry no flags
    g5 = group_spec(5)
    rec = kostant_record(g5, P1, (1,))
    assert not rec.needs_weight_constraint and not rec.excluded_from_generation
    rec2 = kostant_record(g, P2, (2,))
    assert not rec2.needs_weight_constraint and not rec2.excluded_from_generation


def test_excluded_records_cannot_satisfy_mu_equality():
    # the two length-(k-1) rows have no regular weight with equal last entries
    g = group_spec(8)
    h = build_hasse(parabolic_choice(g, P1))
    lam = Weight.from_constants([1, 2, 1, 3, 3], 5)  # regular, λ4 = λ5
    for node in h.nodes:
        rec = kostant_record(g, P1, node.word, lam)
        values = [f.constant_value() for f in rec.mu_restricted]
        if rec.excluded_from_generation:
            assert values[-1] != values[-2]
        else:
            assert values[-1] == values[-2]


def test_full_report_numbers():
    report = full_report(group_spec(5), [1, 1, 1])
    assert (report.bounds.q0, report.bounds.vcd) == (5, 8)
    supports = {pr.parabolic: (pr.support.q_min, pr.support.q_max) for pr in report.parabolics}
    assert supports == {P1: (5, 7), P2: (5, 8)}
    assert report.parabolics[0].class_label == "π_2(μ)"
    assert report.lambda_assignment == (1, 1, 1)


def test_full_report_flags_even_constraint():
    report = full_report(group_spec(6))
    first = report.parabolics[0]
    assert first.weight_constraint == "λ3 = λ4"
    assert first.support.weight_constraint_needed
    assert report.parabolics[1].weight_constraint is None


def test_full_report_rejects_bad_lambda():
    g = group_spec(5)
    with pytest.raises(RegularityError):
        full_report(g, [1, 0, 1])
    with pytest.raises(DimensionError):
        full_report(g, [1, 1])


def test_report_records_sorted_and_counted():
    report = full_report(group_spec(9))
    for pr in report.parabolics:
        lengths = [rec.length for rec in pr.records]
        assert lengths == sorted(lengths)
        assert len(pr.records) == pr.coset_count
    assert report.parabolics[0].coset_count == 10
    assert report.parabolics[1].coset_count == 40


def test_antipodal_antisymmetry_sample():
    for n in (5, 6, 9, 12):
        g = group_spec(n)
        for p in (P1, P2):
            h = build_hasse(parabolic_choice(g, p))
            top = max(h.nodes, key=lambda node: node.length)
            assert evaluation_coefficient(g, p, top.word) == -evaluation_coefficient(g, p, ())


def numeric_weight(k):
    """Regular constant coordinates over the denominator 12."""
    return Weight.from_constants([Q(2 * i + 1, 3 + i % 2) for i in range(k)], k)


def mixed_weight(k):
    """Symbolic, constant and multi-variable coordinates over the denominator 30."""
    coords = []
    for i in range(1, k + 1):
        if i % 4 == 1:
            coords.append(sym(k, i))
        elif i % 4 == 2:
            coords.append(lf(k, Q(1, 2)))
        elif i % 4 == 3:
            coords.append(lf(k, Q(1, 5), {i - 1: Q(2, 3), i: -1}))
        else:
            coords.append(lf(k, 3, {1: Q(-7, 6)}))
    return Weight(tuple(coords))


def assert_same_record(rec, ref):
    for field in fields(ref):
        assert getattr(rec, field.name) == getattr(ref, field.name), (ref.word, field.name)


@pytest.mark.parametrize("n", range(5, 14))
def test_walk_records_equal_word_replay(n):
    # walk records and kostant_record against the LinearForm reference, field by field
    g = group_spec(n)
    for p in (P1, P2):
        h = diagram(n, p)
        for lam in (None, Weight.symbolic(g.k), numeric_weight(g.k), mixed_weight(g.k)):
            records = parabolic_report(g, p, lam, h).records
            assert len(records) == len(h.nodes)
            for node, rec in zip(h.nodes, records):
                ref = reference_record(g, p, node.word, lam)
                assert_same_record(rec, ref)
                assert_same_record(kostant_record(g, p, node.word, lam), ref)


def test_walk_records_other_weights_match_replay():
    g = group_spec(7)
    mixed = Weight((sym(4, 1), lf(4, Q(1, 2)), sym(4, 2, 3), lf(4, 3)))
    for lam in (mixed, Weight.symbolic(4)):
        records = parabolic_report(g, P2, lam).records
        nodes = diagram(7, P2).nodes
        assert len(records) == len(nodes)
        for node, rec in zip(nodes, records):
            assert_same_record(rec, reference_record(g, P2, node.word, lam))
    with pytest.raises(DimensionError):
        parabolic_report(g, P2, Weight.symbolic(3))
    with pytest.raises(DimensionError):
        parabolic_report(g, P2, Weight((sym(4, 1), lf(3, 1), lf(4, 2), lf(4, 3))))


@pytest.mark.parametrize("p", [P1, P2], ids=lambda p: p.name)
def test_levi_split_is_read_once_per_walk(monkeypatch, p):
    split, calls = eisenstein._levi_split, []

    def counted(g, p):
        calls.append(g.n)
        return split(g, p)

    monkeypatch.setattr(eisenstein, "_levi_split", counted)
    g = group_spec(9)
    assert len(list(iter_records(g, p))) == len(diagram(9, p).nodes) > 1
    assert calls == [9]
    kostant_record(g, p, diagram(9, p).nodes[-1].word)
    assert calls == [9, 9]


def test_reference_rejects_what_the_reader_rejects():
    # the reference's own W^P test, on the words the reader refuses
    g = group_spec(5)
    for p, word in ((P1, (2,)), (P2, (1,)), (P1, (1, 2, 1))):
        with pytest.raises(NotCosetRepresentativeError):
            reference_record(g, p, word)
        with pytest.raises(NotCosetRepresentativeError):
            kostant_record(g, p, word)


def test_walk_records_reject_non_minimal_node():
    g = group_spec(5)
    h = build_hasse(parabolic_choice(g, P1))
    node = h.nodes[1]
    assert node.word == (1,)
    bad = HasseNode(node.id, (2,), node.weight, node.length)
    tampered = replace(h, nodes=(h.nodes[0], bad) + h.nodes[2:])
    with pytest.raises(NotCosetRepresentativeError, match="α_2"):
        parabolic_report(g, P1, None, tampered)
    # a stored length that is not l(w) is refused as well
    wrong = HasseNode(node.id, node.word, node.weight, 2)
    with pytest.raises(OrthoweylError, match="length 1"):
        parabolic_report(g, P1, None, replace(h, nodes=(h.nodes[0], wrong) + h.nodes[2:]))
    # so is a node whose parent does not come before it in the diagram
    sparse = replace(h, nodes=(h.nodes[0], h.nodes[-1]))
    with pytest.raises(OrthoweylError, match="no parent"):
        parabolic_report(g, P1, None, sparse)


def test_regular_weight():
    g = group_spec(6)
    assert regular_weight(g, [1, Q(1, 2), 3, 3]) == Weight.from_constants(
        [1, Q(1, 2), 3, 3], 4
    )
    with pytest.raises(RegularityError):
        regular_weight(g, [1, 1, -1, 1])
    with pytest.raises(DimensionError):
        regular_weight(g, [1, 1, 1])


# --- the records against the ϖ-matrix reference, integers included ---


def integer_fields(rec):
    return {field.name: getattr(rec, field.name) for field in fields(rec)}


def walk_matrices(datum, nodes):
    """``word_action_matrix`` of each node's word, each from its parent's by one
    column update (``times_generator``): O(k) per node, not a fold per word."""
    cols = {(): identity_matrix(datum.rank)}
    for node in nodes:
        if node.word not in cols:
            cols[node.word] = times_generator(datum, cols[node.word[:-1]], node.word[-1])
        yield tuple(zip(*cols[node.word]))


def assert_records_equal_matrix_reference(n, lam):
    g = group_spec(n)
    ref_lam = Weight.symbolic(g.k) if lam is None else lam
    for p in (P1, P2):
        nodes = diagram(n, p).nodes
        want = [
            matrix_record(g, p, node.word, ref_lam, m)
            for node, m in zip(nodes, walk_matrices(g.datum, nodes))
        ]
        assert [integer_fields(rec) for rec in iter_records(g, p, lam, diagram(n, p))] == want
        # kostant_record builds each u from its word, the reference each matrix from its
        # word: every node up to n = 13, then a spread
        step = 1 if n <= 13 else max(1, len(nodes) // 20)
        for node, ref in zip(nodes[::step] + nodes[-1:], want[::step] + want[-1:]):
            assert matrix_record(g, p, node.word, lam) == ref, (p, node.word)
            assert integer_fields(kostant_record(g, p, node.word, lam)) == ref, (p, node.word)


@pytest.mark.parametrize("n", range(5, 42))
def test_records_equal_matrix_reference_symbolic(n):
    assert_records_equal_matrix_reference(n, None)


@pytest.mark.parametrize("n", [5, 6, 13, 14, 40, 41])
@pytest.mark.parametrize("kind", ["numeric", "mixed"])
def test_records_equal_matrix_reference_numeric_and_mixed(n, kind):
    k = group_spec(n).k
    lam = numeric_weight(k) if kind == "numeric" else mixed_weight(k)
    assert 1 < max(f.constant.denominator for f in lam.coords)
    assert_records_equal_matrix_reference(n, lam)
