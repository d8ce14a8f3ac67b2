from dataclasses import replace

import pytest

from orthoweyl.verification import (
    CheckResult,
    expected_coset_count,
    expected_group_order,
    format_results,
    run_verification,
)
from orthoweyl.orthogroup import MaximalParabolic, group_spec


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
    from orthoweyl.weylgroup import enumerate_group

    tampered = group_spec(7).datum

    def swapped(datum):
        elements = list(enumerate_group(datum))
        if datum == tampered:
            # s1 (length 1) and s1·s2 (length 2) trade words
            a = next(i for i, e in enumerate(elements) if e.word == (1,))
            b = next(i for i, e in enumerate(elements) if e.word == (1, 2))
            ea, eb = elements[a], elements[b]
            elements[a] = replace(ea, word=eb.word)
            elements[b] = replace(eb, word=ea.word)
        return tuple(elements)

    monkeypatch.setattr(verification, "enumerate_group", swapped)
    status = {(r.check, r.n): r.status for r in verification.run_verification(7)}
    assert status[("back-or-forth", 7)] == "FAIL"
    assert status[("back-or-forth", 5)] == status[("back-or-forth", 6)] == "PASS"
