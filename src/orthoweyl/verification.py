"""Self-verification harness: oracle equivalence and structural properties.

For every n in 5..n_max, ``run_verification`` runs the rows of the table
``_CHECKS`` in order, the checks behind the package's claims: exact coset counts,
palindromic length counts, reduced words, equality of the orbit walk with the
brute-force minimal-rep oracle, the group order, the back-or-forth alternative
over the full group, restriction recombination on the records' own split
(``eisenstein._levi_split``), antipodal antisymmetry of the evaluation
coefficients, sign rules at random regular weights, regularity propagation, one
coefficient per length, the degree-support tiling and the Bruhat covers.  Each
row is a check of the per-n ``_Context``, which holds g, the walk diagrams and
the rng and builds each shared field once, at its first use.  A check returns a
failure detail, "" for PASS, a ``_Skip`` reason, or None for no row (``covers``
above n = 6); an ``OrthoweylError`` it raises is its row's FAIL, with the
error's text as the detail.

The group rows run on the byte-encoded signed permutations of
:mod:`orthoweyl.weylgroup`.

Rows above their rank guard are SKIP, never silently dropped; ``reduced-words``
and the record rows (``sign-rule``, ``mu-regular``, ``a2-by-length``) run at
every n, and the random rows of n draw from ``random.Random(SEED * 1000 + n)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import add, mul
from typing import Callable, Iterator

from .eisenstein import _levi_split, degree_support, evaluation_coefficient, parabolic_report
from .errors import OrthoweylError
from .hasse import build_hasse, length_histogram, with_bruhat_covers
from .orthogroup import (
    GroupSpec,
    MaximalParabolic,
    crossed_simple_roots,
    cuspidal_degrees,
    group_spec,
    nilradical_dim,
    parabolic_choice,
    restriction_basis,
)
from .rootsystem import Weight, simple_root_vector
from .weylgroup import (
    decode,
    doubled_rho_by_byte,
    encoded_inverse,
    group_layers,
    left_action,
    length_of,
    minimal_inverses,
    right_gathers,
    sign_positions,
)

__all__ = ["CheckResult", "run_verification", "format_results"]

#: Full-group checks run only for ranks up to these bounds.  Back-or-forth
#: reads the group that the oracle check builds, so its bound is the lower.
ORACLE_MAX_RANK = 6
BACK_OR_FORTH_MAX_RANK = 5

SEED = 7
PARABOLICS = (MaximalParabolic.P1, MaximalParabolic.P2)


@dataclass(frozen=True)
class CheckResult:
    check: str
    n: int
    status: str  # PASS / FAIL / SKIP
    detail: str = ""


def expected_coset_count(g: GroupSpec, p: MaximalParabolic) -> int:
    """Order of W^P: n+1 / n+2 for the first parabolic, (n+1)(n-1)/2 / (n+2)n/2."""
    n = g.n
    if p is MaximalParabolic.P1:
        return n + 1 if g.is_odd else n + 2
    return (n + 1) * (n - 1) // 2 if g.is_odd else (n + 2) * n // 2


def expected_group_order(g: GroupSpec) -> int:
    return (2**g.k if g.is_odd else 2 ** (g.k - 1)) * math.factorial(g.k)


def _diagrams(g: GroupSpec):
    return {p: build_hasse(parabolic_choice(g, p)) for p in PARABOLICS}


def _integer_rows(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """``rows`` times the lcm d of their denominators (2 for ½ℤ entries), and d."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * d) for x in row] for row in rows], d


def _trial_values(rng: random.Random) -> Iterator[int]:
    """``randint(-6, 6) * (12 // randint(1, 4))`` forever, from randint's own words: randint(a, b)
    is a + the first getrandbits(m) below b - a + 1, m that width's bit length."""
    bits = rng.getrandbits
    while True:
        r = bits(4)
        while r >= 13:
            r = bits(4)
        d = bits(3)
        while d >= 4:
            d = bits(3)
        yield (r - 6) * (12, 6, 4, 3)[d]


def _recombination(g: GroupSpec, rng: random.Random) -> str:
    """The first trial with (B·R)·W ≠ W, or "".  R is the records' split (``_levi_split``) at
    the symbolic weight, doubled: the 𝔞-row -a_weights and 2·e_r per 𝔟-row r.  B is made
    integer (doubled) and B·R formed once; W's rows are random forms' coefficients
    ``randint(-6, 6) / randint(1, 4)`` times 12, with their constants last, which R ignores.
    Row i of (B·R)·W sums c·W[m] over the nonzero entries c = (B·R)[i][m] alone."""
    k, values = g.k, _trial_values(rng)
    for p in PARABOLICS:
        _, b_rows, a_weights, _ = _levi_split(g, p)
        rmat = [[-x for x in a_weights], *([2 * (i == r) for i in range(k)] for r in b_rows)]
        head, tail = restriction_basis(g, p)
        bmat, bs = _integer_rows(list(zip(*(b.constant_tuple() for b in (head, *tail)))))
        br = [[sum(map(mul, row, col)) for col in zip(*rmat)] for row in bmat]
        nonzero = [[(m, c) for m, c in enumerate(row) if c] for row in br]
        for trial in range(100):
            w = [list(islice(values, k + 1)) for _ in range(k)]
            for terms, row in zip(nonzero, w):
                acc = [0] * (k + 1)
                for m, c in terms:
                    acc = list(map(add, acc, [c * x for x in w[m]]))
                if acc != [2 * bs * x for x in row]:
                    return f"{p.name}: trial {trial}"
    return ""


# --- the per-n context, its rows, and the table ----------------------------


class _Skip(str):
    """A check's reason for not running at this n: its row is SKIP, not FAIL."""


def _verdict(check: str, n: int, outcome: str) -> CheckResult:
    status = "SKIP" if isinstance(outcome, _Skip) else "FAIL" if outcome else "PASS"
    return CheckResult(check, n, status, str(outcome))


def _caught(check: Callable[..., str | None], *args) -> str | None:
    """``check(*args)``, or the text of the ``OrthoweylError`` it raises: a FAIL, not a crash."""
    try:
        return check(*args)
    except OrthoweylError as err:
        return str(err)


Check = Callable[["_Context"], "str | None"]


def _each_parabolic(check: Callable[["_Context", MaximalParabolic], str]) -> Check:
    """The row of ``check``: its first failing parabolic's detail, prefixed ``P1: ``, or ""."""

    def row(c: _Context) -> str:
        for p in PARABOLICS:
            detail = _caught(check, c, p)
            if detail:
                return f"{p.name}: {detail}"
        return ""

    return row


def _skipped_above(bound: int, check: Check) -> Check:
    return lambda c: _Skip(f"rank {c.g.k} > {bound}") if c.g.k > bound else check(c)


class _Context:
    """One n: g, the walk diagrams, the rng, the shared fields (each built at its first use and
    then kept) and the rows, as methods."""

    def __init__(self, g: GroupSpec, rng: random.Random):
        self.g, self.rng = g, rng
        self.diagrams = _diagrams(g)

    @cached_property
    def histograms(self) -> dict[MaximalParabolic, dict[int, int]]:
        return {p: length_histogram(self.diagrams[p]) for p in PARABOLICS}

    @cached_property
    def closure(self) -> tuple[dict[MaximalParabolic, set[bytes]], int, dict[bytes, int]]:
        """From one stream of the layers: per parabolic every u with u(α_j) > 0 for the uncrossed
        j, the number of elements, and the map u ↦ l(u), kept only for back-or-forth's ranks."""
        g = self.g
        oracle = {p: set() for p in PARABOLICS}
        lengths: dict[bytes, int] = {}
        size, want = 0, expected_group_order(g)
        for l, layer in enumerate(group_layers(*left_action(g.datum))):
            for p in PARABOLICS:
                oracle[p] |= minimal_inverses(g.datum, layer, crossed_simple_roots(g, p))
            if g.k <= BACK_OR_FORTH_MAX_RANK:
                lengths.update(dict.fromkeys(layer, l))
            size += len(layer)
            if size > want:  # more than W: tables that are not involutions repeat
                break
        return oracle, size, lengths

    @cached_property
    def lam(self) -> Weight:
        """The random regular weight of the record rows, drawn once, after recombination's."""
        k, randint = self.g.k, self.rng.randint
        return Weight.from_constants([Fraction(randint(1, 9), randint(1, 3)) for _ in range(k)], k)

    @cached_property
    def records(self) -> tuple[str, str, str]:
        """The details of sign-rule, mu-regular and a2-by-length, built once: when the records
        raise, the error's text is each row's detail."""
        try:
            return self._record_details()
        except OrthoweylError as err:
            return (str(err),) * 3

    def _record_details(self) -> tuple[str, str, str]:
        """The first failures of sign-rule and mu-regular at ``lam`` (strict lengths only), and of
        a2-by-length: one normalized P2 coefficient per length at the all-ones weight.  At these
        numeric weights each integer row of a record is its constant numerator alone, over a
        positive denominator, so its sign is the value's."""
        g, detail, detail2 = self.g, "", ""
        for p in PARABOLICS:
            dim = nilradical_dim(g, p)
            for rec in parabolic_report(g, p, self.lam, self.diagrams[p]).records:
                a, twice = rec.a_row[0], 2 * rec.length
                if not detail and (twice < dim and not a < 0 or twice > dim and not a > 0):
                    detail = f"{p.name} l={rec.length}: a={Fraction(a, rec.a_den)}"
                if not detail2 and any(c <= 0 for c, _ in rec.mu_rows):
                    detail2 = f"{p.name} word {rec.word}"
        p2, ones = MaximalParabolic.P2, Weight.from_constants([1] * g.k, g.k)
        per_length: dict[int, set[Fraction]] = {}
        for rec in parabolic_report(g, p2, ones, self.diagrams[p2]).records:
            per_length.setdefault(rec.length, set()).add(Fraction(rec.a_row[0], rec.a_den))
        bad = sorted(l for l, vals in per_length.items() if len(vals) > 1)
        return detail, detail2, f"lengths {bad}" if bad else ""

    def counts(self, p: MaximalParabolic) -> str:
        got, want = len(self.diagrams[p].nodes), expected_coset_count(self.g, p)
        return f"{got} != {want}" if got != want else ""

    def histogram(self, p: MaximalParabolic) -> str:
        """Palindromic, with unique extremes, max = dim N_P, and one count per node."""
        hist = self.histograms[p]
        top = max(hist)
        if top != nilradical_dim(self.g, p):
            return f"max length {top} != dim N"
        if any(hist[l] != hist.get(top - l) for l in hist):
            return "N(l) not palindromic"
        if hist[0] != 1 or hist[top] != 1:
            return "extremes not unique"
        if sum(hist.values()) != len(self.diagrams[p].nodes):
            return "histogram total mismatch"
        return ""

    def reduced_words(self, p: MaximalParabolic) -> str:
        """The first walk node whose word length, stored length and length of w differ.
        The length of w is :func:`length_of` 2wρ, 2ρ gathered by the encoded w^{-1}."""
        datum, rho = self.g.datum, doubled_rho_by_byte(self.g.datum)
        ident, tables = left_action(datum)
        for node in self.diagrams[p].nodes:
            x = [rho[b] for b in encoded_inverse(ident, tables, node.word)[: datum.rank]]
            if not length_of(datum, x) == len(node.word) == node.length:
                return f"word {node.word}"
        return ""

    def oracle(self, p: MaximalParabolic) -> str:
        """The walk's w^{-1} against every u in W with u(α_j) > 0 for the uncrossed j."""
        ident, tables = left_action(self.g.datum)
        algo = {encoded_inverse(ident, tables, nd.word) for nd in self.diagrams[p].nodes}
        oracle = self.closure[0][p]
        if algo != oracle:
            diff = len(algo ^ oracle)
            return f"walk {len(algo)} vs oracle {len(oracle)}; symmetric difference {diff}"
        return ""

    def group_order(self) -> str:
        size, want = self.closure[1], expected_group_order(self.g)
        return "" if size == want else f"{size} != {want}"

    def back_or_forth(self) -> str:
        """Right-handed, on the closure's lengths: l(u∘s_j) = l(u) - 1 if u(α_j) < 0, else l(u) + 1,
        with u∘s_j a fixed gather of u's bytes.  The layers grow from the left, so the lengths it
        compares were not assigned by the step it checks."""
        datum, lengths = self.g.datum, self.closure[2]
        alphas = [simple_root_vector(datum, j) for j in range(1, datum.rank + 1)]
        steps = list(zip(right_gathers(datum), (sign_positions(datum, a) for a in alphas)))
        for u, l in lengths.items():
            for j, (t, (a, b)) in enumerate(steps, start=1):
                if lengths.get(bytes(t(u))) != (l + 1 if u[a] < u[b] else l - 1):
                    return f"w={decode(u)}, j={j}"
        return ""

    def antipodal(self) -> str:
        """The first parabolic whose longest word's normalized a is not minus the identity's."""
        g = self.g
        for p in PARABOLICS:
            w_max = max(self.diagrams[p].nodes, key=lambda nd: nd.length)
            if evaluation_coefficient(g, p, w_max.word) != -evaluation_coefficient(g, p, ()):
                return p.name
        return ""

    def support(self, p: MaximalParabolic) -> str:
        """Degree support tiling and holomorphy consistency."""
        g, support = self.g, degree_support(self.g, p)
        degrees = sorted({e.degree for e in support.generation})
        if degrees != list(range(support.q_min, support.q_max + 1)):
            return "tiling gap"
        if any(self.histograms[p].get(e.length, 0) < 1 for e in support.generation):
            return "generation length missing in W^P"
        if support.q_min != g.n:
            return "q_min != n"
        dim = nilradical_dim(g, p)
        lengths = [nd.length for nd in self.diagrams[p].nodes if 2 * nd.length < dim]
        gap = next((l for d in cuspidal_degrees(g, p) for l in lengths if d + l >= g.n), None)
        return "" if gap is None else f"holomorphy gap at l={gap}"

    def cover_edges(self, p: MaximalParabolic) -> str:
        """The covers contain the walk edges (or with_bruhat_covers raises), strictly at n = 6."""
        completed = with_bruhat_covers(self.diagrams[p])
        walk = {(a, b) for a, b, _ in completed.algo_edges}
        if self.g.n == 6 and p is MaximalParabolic.P2 and not set(completed.cover_edges) > walk:
            return "expected strictly more covers than walk edges"
        return ""

    def covers(self) -> str | None:
        return _each_parabolic(_Context.cover_edges)(self) if self.g.n <= 6 else None


#: The rows, in output order.  ``recombination`` comes before the record rows, whose λ is
#: drawn from the same stream after its trials.
_CHECKS: tuple[tuple[str, Check], ...] = (
    ("counts", _each_parabolic(_Context.counts)),
    ("histogram", _each_parabolic(_Context.histogram)),
    ("reduced-words", _each_parabolic(_Context.reduced_words)),
    ("oracle", _skipped_above(ORACLE_MAX_RANK, _each_parabolic(_Context.oracle))),
    ("group-order", _skipped_above(ORACLE_MAX_RANK, _Context.group_order)),
    ("back-or-forth", _skipped_above(BACK_OR_FORTH_MAX_RANK, _Context.back_or_forth)),
    ("recombination", lambda c: _recombination(c.g, c.rng)),
    ("antipodal", _Context.antipodal),
    ("sign-rule", lambda c: c.records[0]),
    ("mu-regular", lambda c: c.records[1]),
    ("a2-by-length", lambda c: c.records[2]),
    ("support", _each_parabolic(_Context.support)),
    ("covers", _Context.covers),
)


def run_verification(n_max: int) -> list[CheckResult]:
    results: list[CheckResult] = []
    for n in range(5, n_max + 1):
        context = _Context(group_spec(n), random.Random(SEED * 1000 + n))
        for name, check in _CHECKS:
            outcome = _caught(check, context)
            if outcome is not None:
                results.append(_verdict(name, n, outcome))
    return results


def format_results(results: list[CheckResult]) -> str:
    """Fixed-width matrix, one line per (check, n), then a summary line."""
    lines = []
    width = max(len(r.check) for r in results) if results else 8
    for r in results:
        line = f"{r.check:<{width}}  n={r.n:<3} {r.status}"
        if r.detail:
            line += f"  [{r.detail}]"
        lines.append(line)
    fails = [r for r in results if r.status == "FAIL"]
    skips = sum(1 for r in results if r.status == "SKIP")
    passes = sum(1 for r in results if r.status == "PASS")
    lines.append(f"summary: {passes} passed, {len(fails)} failed, {skips} skipped")
    if fails:
        first = fails[0]
        lines.append(f"first failure: {first.check} at n={first.n}: {first.detail}")
    return "\n".join(lines) + "\n"
