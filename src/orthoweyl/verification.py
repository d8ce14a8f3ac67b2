"""Self-verification harness: oracle equivalence and structural properties.

Runs, for every n in 5..n_max, the checks behind the package's claims:
exact coset counts, reduced words, the back-or-forth alternative over the
full group, equality of the orbit walk with the brute-force minimal-rep
oracle, palindromic length counts, restriction recombination, antipodal
antisymmetry of the evaluation coefficients, sign rules at random regular
weights, regularity propagation, and the degree-support tiling.

The ``reduced-words``, ``oracle``, ``group-order`` and ``back-or-forth`` rows
treat W(B_k) and W(D_k) as signed permutations of ε_1..ε_k (Björner–Brenti,
ch. 8), each u encoded as the 2k bytes f(u(1)), …, f(u(k)), f(u(-1)), …,
f(u(-k)) with f(x) = x mod 2k+1.  The bytes order the signed indices as
1 < … < k < -k < … < -1, so s∘u is ``u.translate(table_s)`` and a root's sign
is one comparison: u(σε_a + τε_b) > 0 iff u[pos(σa)] < u[pos(-τb)], and
u(σε_a) > 0 iff u[pos(σa)] < u[pos(-σa)], with pos(x) the byte of u(x).
``reduced-words`` counts the positive roots that w^{-1} sends negative, l(w),
for every walk word of w; it must equal the word's and the stored length.  The
group is streamed as the breadth-first layers under u ↦ s_j∘u, layer l the
elements of length l.  u and s_j∘u lie in adjacent layers, so repeats are found
among layers l-1, l and l+1 alone and memory follows the largest layer, not |W|.
``group-order`` adds up the layer sizes.  ``oracle`` keeps each u with
u(α_j) > 0 for every uncrossed j, layer by layer, and compares that set with
the walk words' w^{-1}.  ``back-or-forth`` checks l(u∘s_j) = l(u) ∓ 1 as
u(α_j) is negative or positive, u∘s_j a fixed gather of u's bytes, on the map
u ↦ l(u) that the same layers fill.  It stays right-handed because the layers
grow from the left, so the lengths it compares were not assigned by the step
it checks.  ``recombination`` checks (B·R)·W = W in integers, for restrict's
action R, the basis B and 100 random symbolic weights W per parabolic; W's
entries are ``randint(-6, 6) * (12 // randint(1, 4))``, read by ``getrandbits``
from the words ``randint`` would read, so the stream is unchanged.

Factorial-size checks (full-group enumeration) run only while the rank is
small; above the guard they are reported as skipped, never silently dropped.
``reduced-words`` and the record checks (``sign-rule``, ``mu-regular``,
``a2-by-length``) run at every n.  Randomized checks draw from a fixed seed so
runs are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import add, gt, itemgetter, mul
from typing import Callable, Iterable, Iterator

from .eisenstein import degree_support, evaluation_coefficient, parabolic_report
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
    restrict,
    restriction_basis,
)
from .rootsystem import (
    RootDatum,
    Weight,
    doubled_epsilon,
    positive_root_vectors,
    simple_root_vector,
)
from .weylgroup import WeylWord

__all__ = ["CheckResult", "run_verification", "format_results"]

#: Full-group checks run only for ranks up to these bounds.  Back-or-forth
#: reads the group that the oracle check builds, so its bound is the lower.
ORACLE_MAX_RANK = 6
BACK_OR_FORTH_MAX_RANK = 5

PARABOLICS = (MaximalParabolic.P1, MaximalParabolic.P2)


@dataclass(frozen=True)
class CheckResult:
    check: str
    n: int
    status: str  # PASS / FAIL / SKIP
    detail: str = ""


def _verdict(check: str, n: int, failure: str) -> CheckResult:
    """PASS when ``failure`` is empty, else FAIL with it as the detail."""
    return CheckResult(check, n, "FAIL" if failure else "PASS", failure)


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
    """The first trial with (B·R)·W ≠ W, or "".  R (restrict at the symbolic weight,
    constants last) and B are made integer (doubled) and multiplied once; W's rows are
    random forms' coefficients ``randint(-6, 6) / randint(1, 4)`` times 12, and (0, …, 0, 12).
    Row i of (B·R)·W sums c·W[m] over the nonzero entries c = (B·R)[i][m] alone."""
    k, values = g.k, _trial_values(rng)
    zero, last = [0] * (k + 1), [0] * k + [12]
    for p in PARABOLICS:
        r = restrict(g, p, Weight.symbolic(k))
        forms = (r.a_coefficient, *r.b_coords)
        rmat, rs = _integer_rows([[*map(f.coefficient, range(1, k + 1)), f.constant] for f in forms])
        head, tail = restriction_basis(g, p)
        bmat, bs = _integer_rows(list(zip(*(b.constant_tuple() for b in (head, *tail)))))
        br = [[sum(map(mul, row, col)) for col in zip(*rmat)] for row in bmat]
        nonzero = [[(m, c) for m, c in enumerate(row) if c] for row in br]
        for trial in range(100):
            w = [list(islice(values, k + 1)) for _ in range(k)]
            rows, back = [*w, last], []
            for terms in nonzero:
                acc = zero
                for m, c in terms:
                    acc = list(map(add, acc, [c * x for x in rows[m]]))
                back.append(acc)
            if back != [[rs * bs * x for x in row] for row in w]:
                return f"{p.name}: trial {trial}"
    return ""


# --- the oracle group as byte-encoded signed permutations -------------------

#: Entry i is ±m when the element sends ε_{i+1} to ±ε_m.  Details print it decoded.
SignedPermutation = tuple[int, ...]


def generator_permutations(datum: RootDatum) -> tuple[SignedPermutation, ...]:
    """s_1..s_k as signed permutations, each ε_i reflected in α_j (types B and D)."""
    k = datum.rank
    gens = []
    for j in range(1, k + 1):
        a = doubled_epsilon(datum, simple_root_vector(datum, j))  # 2α_j
        norm = sum(x * x for x in a)
        perm = []
        for i in range(k):
            # s_j(ε_i) = ε_i - (2(ε_i, a)/(a, a))·a, times (a, a): one entry ±(a, a)
            image = [norm * (m == i) - 2 * a[i] * x for m, x in enumerate(a)]
            m = next(m for m, x in enumerate(image) if x)
            perm.append(m + 1 if image[m] > 0 else -(m + 1))
        gens.append(tuple(perm))
    return tuple(gens)


def encode(u: SignedPermutation) -> bytes:
    """The bytes f(u(1)), …, f(u(k)), f(u(-1)), …, f(u(-k)) with f(x) = x mod 2k+1."""
    return bytes([x % (2 * len(u) + 1) for x in (*u, *(-x for x in u))])


def decode(u: bytes) -> SignedPermutation:
    """The signed permutation that the bytes ``u`` encode: f^{-1} of its first k bytes."""
    return tuple([x if 2 * x <= len(u) else x - len(u) - 1 for x in u[: len(u) // 2]])


def _position(k: int, x: int) -> int:
    """The byte that holds u(x), for a signed index x."""
    return x - 1 if x > 0 else k - x - 1


def left_action(datum: RootDatum) -> tuple[bytes, tuple[bytes, ...]]:
    """The identity's bytes and, per s_j, the table with s_j∘u = u.translate(table)."""
    ident = encode(tuple(range(1, datum.rank + 1)))
    return ident, tuple(bytes.maketrans(ident, encode(s)) for s in generator_permutations(datum))


def right_gathers(datum: RootDatum) -> list[Callable[[bytes], tuple[int, ...]]]:
    """Per s_j, the gather with u∘s_j = bytes(gather(u)): pos(x) takes pos(s_j(x))."""
    k = datum.rank
    gens = generator_permutations(datum)
    return [itemgetter(*[_position(k, x) for x in (*s, *(-x for x in s))]) for s in gens]


def group_layers(ident: bytes, tables: tuple[bytes, ...]) -> Iterator[list[bytes]]:
    """The breadth-first layers of the group the ``tables`` generate, layer l the
    elements of length l in order of discovery.  For involutions u and s∘u lie in
    adjacent layers, so duplicates are found among layers l-1, l and l+1 alone."""
    seen, before, layer = {ident}, [], [ident]
    while layer:
        yield layer
        fresh = []
        for u in layer:
            for t in tables:
                v = u.translate(t)
                if v not in seen:
                    seen.add(v)
                    fresh.append(v)
        seen.difference_update(before)
        before, layer = layer, fresh


def encoded_inverse(ident: bytes, tables: tuple[bytes, ...], word: WeylWord) -> bytes:
    """w^{-1} = s_{im}∘…∘s_{i1} for the word (i1, …, im) of w."""
    u = ident
    for j in word:
        u = u.translate(tables[j - 1])
    return u


def sign_positions(datum: RootDatum, root: tuple[int, ...]) -> tuple[int, int]:
    """Bytes (p, q) with u(β) > 0 iff u[p] < u[q], for the ϖ-coordinate root β:
    p = pos(σa), q = pos(-τb) for β = σε_a + τε_b, and q = pos(-σa) for β = σε_a."""
    signed = [i + 1 if c > 0 else -(i + 1) for i, c in enumerate(doubled_epsilon(datum, root)) if c]
    return _position(datum.rank, signed[0]), _position(datum.rank, -signed[-1])


def minimal_inverses(datum: RootDatum, group: Iterable, crossed: frozenset[int]) -> set[bytes]:
    """Every u in ``group`` with u(α_j) > 0 for each uncrossed j."""
    keep = list(group)
    for j in range(1, datum.rank + 1):
        if j not in crossed:
            p, q = sign_positions(datum, simple_root_vector(datum, j))
            keep = [u for u in keep if u[p] < u[q]]
    return set(keep)


def inversion_counter(datum: RootDatum) -> Callable[[bytes], int]:
    """u ↦ #{β > 0 : u(β) < 0}; for u = w^{-1} that is the inversion set's size, l(w)."""
    firsts, seconds = zip(*[sign_positions(datum, beta) for beta in positive_root_vectors(datum)])
    first, second = itemgetter(*firsts), itemgetter(*seconds)
    return lambda u: sum(map(gt, first(u), second(u)))


def _reduced_words(g: GroupSpec, diagrams: dict) -> str:
    """The first walk node whose word length, stored length and length of w differ,
    or "".  The length of w is counted on the encoded w^{-1}."""
    ident, tables = left_action(g.datum)
    count = inversion_counter(g.datum)
    for p in PARABOLICS:
        for node in diagrams[p].nodes:
            length = count(encoded_inverse(ident, tables, node.word))
            if not length == len(node.word) == node.length:
                return f"{p.name}: word {node.word}"
    return ""


def _record_checks(g: GroupSpec, diagrams: dict, lam: Weight) -> tuple[str, str, str]:
    """The first failures of sign-rule and mu-regular at ``lam`` (strict lengths only), and of
    a2-by-length: one normalized P2 coefficient per length at the all-ones weight."""
    detail = detail2 = ""
    for p in PARABOLICS:
        dim = nilradical_dim(g, p)
        for rec in parabolic_report(g, p, lam, diagrams[p]).records:
            a, twice = rec.a_normalized.constant_value(), 2 * rec.length
            if not detail and (twice < dim and not a < 0 or twice > dim and not a > 0):
                detail = f"{p.name} l={rec.length}: a={a}"
            if not detail2 and any(f.constant_value() <= 0 for f in rec.mu_restricted):
                detail2 = f"{p.name} word {rec.word}"
    p2 = MaximalParabolic.P2
    per_length: dict[int, set[Fraction]] = {}
    for rec in parabolic_report(g, p2, Weight.from_constants([1] * g.k, g.k), diagrams[p2]).records:
        per_length.setdefault(rec.length, set()).add(rec.a_normalized.constant_value())
    bad = sorted(l for l, vals in per_length.items() if len(vals) > 1)
    return detail, detail2, f"lengths {bad}" if bad else ""


def run_verification(n_max: int, rng_seed: int = 7) -> list[CheckResult]:
    results: list[CheckResult] = []
    out = results.append

    for n in range(5, n_max + 1):
        g = group_spec(n)
        k = g.k
        diagrams = _diagrams(g)
        rng = random.Random(rng_seed * 1000 + n)

        # 1. coset counts
        detail = ""
        for p in PARABOLICS:
            got, want = len(diagrams[p].nodes), expected_coset_count(g, p)
            if got != want:
                detail = f"{p.name}: {got} != {want}"
                break
        out(_verdict("counts", n, detail))

        # 2. histogram structure: palindromic, unique extremes, max = dim N_P
        detail = ""
        for p in PARABOLICS:
            hist = length_histogram(diagrams[p])
            top = max(hist)
            if top != nilradical_dim(g, p):
                detail = f"{p.name}: max length {top} != dim N"
                break
            if any(hist[l] != hist.get(top - l) for l in hist):
                detail = f"{p.name}: N(l) not palindromic"
                break
            if hist[0] != 1 or hist[top] != 1:
                detail = f"{p.name}: extremes not unique"
                break
            if sum(hist.values()) != len(diagrams[p].nodes):
                detail = f"{p.name}: histogram total mismatch"
                break
        out(_verdict("histogram", n, detail))

        # 3. reduced words: each word's length is the inversion count of its element
        out(_verdict("reduced-words", n, _reduced_words(g, diagrams)))

        # 4. oracle equivalence (factorial; guarded): the walk's w^{-1} against
        # every u in W with u(α_j) > 0 for the uncrossed j, as signed permutations
        if k > ORACLE_MAX_RANK:
            out(CheckResult("oracle", n, "SKIP", f"rank {k} > {ORACLE_MAX_RANK}"))
            out(CheckResult("group-order", n, "SKIP", f"rank {k} > {ORACLE_MAX_RANK}"))
        else:
            ident, tables = left_action(g.datum)
            oracle = {p: set() for p in PARABOLICS}
            group: dict[bytes, int] = {}  # the closure, kept only for back-or-forth
            size, want = 0, expected_group_order(g)
            for l, layer in enumerate(group_layers(ident, tables)):
                for p in PARABOLICS:
                    oracle[p] |= minimal_inverses(g.datum, layer, crossed_simple_roots(g, p))
                if k <= BACK_OR_FORTH_MAX_RANK:
                    group.update(dict.fromkeys(layer, l))
                size += len(layer)
                if size > want:  # more than W: tables that are not involutions repeat
                    break
            detail = ""
            for p in PARABOLICS:
                algo = {encoded_inverse(ident, tables, nd.word) for nd in diagrams[p].nodes}
                if algo != oracle[p]:
                    detail = (
                        f"{p.name}: walk {len(algo)} vs oracle {len(oracle[p])}; "
                        f"symmetric difference {len(algo ^ oracle[p])}"
                    )
                    break
            out(_verdict("oracle", n, detail))
            out(_verdict("group-order", n, "" if size == want else f"{size} != {want}"))

        # 5. back-or-forth on the lengths check 4's layers fill (harder guard), right-handed:
        # l(u∘s_j) = l(u) - 1 if u(α_j) < 0, else l(u) + 1.
        if k > BACK_OR_FORTH_MAX_RANK:
            out(CheckResult("back-or-forth", n, "SKIP", f"rank {k} > {BACK_OR_FORTH_MAX_RANK}"))
        else:
            detail = ""
            alphas = [simple_root_vector(g.datum, j) for j in range(1, k + 1)]
            steps = list(zip(right_gathers(g.datum), (sign_positions(g.datum, a) for a in alphas)))
            for u, l in group.items():
                for j, (t, (a, b)) in enumerate(steps, start=1):
                    if group.get(bytes(t(u))) != (l + 1 if u[a] < u[b] else l - 1):
                        detail = f"w={decode(u)}, j={j}"
                        break
                if detail:
                    break
            out(_verdict("back-or-forth", n, detail))

        # 6. restriction recombination on random symbolic weights
        out(_verdict("recombination", n, _recombination(g, rng)))

        # 7. antipodal antisymmetry of the normalized evaluation coefficient
        detail = ""
        for p in PARABOLICS:
            nodes = diagrams[p].nodes
            w_max = max(nodes, key=lambda nd: nd.length)
            if evaluation_coefficient(g, p, w_max.word) != -evaluation_coefficient(g, p, ()):
                detail = p.name
                break
        out(_verdict("antipodal", n, detail))

        # 8. sign rule at a random regular weight (strict lengths only)
        assignment = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(k)]
        lam = Weight.from_constants(assignment, k)
        try:
            details = _record_checks(g, diagrams, lam)
        except OrthoweylError as err:  # a node the records disagree with
            details = (str(err),) * 3
        for check, detail in zip(("sign-rule", "mu-regular", "a2-by-length"), details):
            out(_verdict(check, n, detail))

        # 9. degree support tiling and holomorphy consistency
        detail = ""
        for p in PARABOLICS:
            support = degree_support(g, p)
            degrees = sorted({e.degree for e in support.generation})
            if degrees != list(range(support.q_min, support.q_max + 1)):
                detail = f"{p.name}: tiling gap"
                break
            hist = length_histogram(diagrams[p])
            if any(hist.get(e.length, 0) < 1 for e in support.generation):
                detail = f"{p.name}: generation length missing in W^P"
                break
            if support.q_min != g.n:
                detail = f"{p.name}: q_min != n"
                break
            dim = nilradical_dim(g, p)
            lengths = [nd.length for nd in diagrams[p].nodes if 2 * nd.length < dim]
            gap = next((l for d in cuspidal_degrees(g, p) for l in lengths if d + l >= g.n), None)
            if gap is not None:
                detail = f"{p.name}: holomorphy gap at l={gap}"
                break
        out(_verdict("support", n, detail))

        # 10. covers contain the walk edges; strictly more for n = 6
        if n in (5, 6):
            detail = ""
            for p in PARABOLICS:
                try:  # refuses a walk edge that is not a cover
                    completed = with_bruhat_covers(diagrams[p])
                except OrthoweylError as err:
                    detail = f"{p.name}: {err}"
                    break
                walk = {(a, b) for a, b, _ in completed.algo_edges}
                if n == 6 and p is MaximalParabolic.P2 and not set(completed.cover_edges) > walk:
                    detail = "P2: expected strictly more covers than walk edges"
                    break
            out(_verdict("covers", n, detail))

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
