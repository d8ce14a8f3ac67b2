"""Self-verification harness: oracle equivalence and structural properties.

Runs, for every n in 5..n_max, the checks behind the package's claims:
exact coset counts, reduced words, the back-or-forth alternative over the
full group, equality of the orbit walk with the brute-force minimal-rep
oracle, palindromic length counts, restriction recombination, antipodal
antisymmetry of the evaluation coefficients, sign rules at random regular
weights, regularity propagation, and the degree-support tiling.

The ``reduced-words``, ``oracle``, ``group-order`` and ``back-or-forth`` rows
work in ε-coordinates, where W(B_k) and W(D_k) are signed-permutation groups
(Björner–Brenti, ch. 8).  Each s_j reflects every ε_i in α_j, and u ↦ u∘s_j is
a fixed gather with at most two sign flips.  A root is positive when its first
nonzero ε-coordinate is.  ``reduced-words`` counts, for every walk word of w,
the positive roots that w^{-1} sends negative; that count is l(w), and it must
equal the word's length and the stored length.  The group is the breadth-first
closure under the u ↦ u∘s_j maps, with each element's BFS layer as its length,
and ``group-order`` is its size.  ``oracle`` keeps each u with u(α_j) > 0 for
every uncrossed j and compares that set with w^{-1} of every walk word.
``back-or-forth`` checks l(u∘s_j) = l(u) ∓ 1 as u(α_j) is negative or
positive.  ``recombination`` checks B·(R·W) = W in integers, for restrict's
action R, the basis B and 100 random symbolic weights W per parabolic.

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
from functools import partial
from operator import itemgetter, mul

from .eisenstein import degree_support, evaluation_coefficient, parabolic_report
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


def _times(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _recombination(g: GroupSpec, rng: random.Random) -> str:
    """The first trial with B·(R·W) ≠ W, or "".  R (restrict at the symbolic weight,
    constants last) and B are made integer (doubled); W's rows are random forms'
    coefficients ``randint(-6, 6) / randint(1, 4)`` times 12, and (0, …, 0, 12)."""
    k, randint = g.k, rng.randint
    for p in PARABOLICS:
        r = restrict(g, p, Weight.symbolic(k))
        forms = (r.a_coefficient, *r.b_coords)
        rmat, rs = _integer_rows([[*map(f.coefficient, range(1, k + 1)), f.constant] for f in forms])
        head, tail = restriction_basis(g, p)
        bmat, bs = _integer_rows(list(zip(*(b.constant_tuple() for b in (head, *tail)))))
        for trial in range(100):
            w = [[randint(-6, 6) * (12 // randint(1, 4)) for _ in range(k + 1)] for _ in range(k)]
            back = _times(bmat, _times(rmat, [*w, [0] * k + [12]]))
            if back != [[rs * bs * x for x in row] for row in w]:
                return f"{p.name}: trial {trial}"
    return ""


# --- the oracle group as signed permutations of ε_1..ε_k ---------------------

#: Entry i is ±m when the element sends ε_{i+1} to ±ε_m.
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


def _compose(u: SignedPermutation, v: SignedPermutation) -> SignedPermutation:
    """u∘v: v acts first."""
    return tuple([u[x - 1] if x > 0 else -u[-x - 1] for x in v])


def right_multipliers(gens: tuple[SignedPermutation, ...]) -> list:
    """For each s in ``gens``, u ↦ u∘s: gather u at |s(i)| - 1, then negate the
    entries where s(i) < 0 (at most two for a simple reflection of B or D)."""
    out = []
    for s in gens:
        gather = itemgetter(*[abs(x) - 1 for x in s])
        flips = [i for i, x in enumerate(s) if x < 0]

        def times(u, gather=gather, flips=flips):
            v = list(gather(u))
            for i in flips:
                v[i] = -v[i]
            return tuple(v)

        out.append(times if flips else gather)
    return out


def signed_permutation_closure(gens: tuple[SignedPermutation, ...]) -> dict[SignedPermutation, int]:
    """The group generated by ``gens``, each element with its breadth-first layer,
    which is its length when ``gens`` are the simple reflections."""
    ident = tuple(range(1, len(gens[0]) + 1))
    times = right_multipliers(gens)
    length = {ident: 0}
    frontier = [ident]
    while frontier:
        fresh = []
        for u in frontier:
            l = length[u] + 1
            for t in times:
                v = t(u)
                if v not in length:
                    length[v] = l
                    fresh.append(v)
        frontier = fresh
    return length


def word_inverse(gens: tuple[SignedPermutation, ...], word: WeylWord) -> SignedPermutation:
    """w^{-1} = s_{im}∘…∘s_{i1} for the word (i1, …, im) of w."""
    u = tuple(range(1, len(gens[0]) + 1))
    for j in word:
        u = _compose(gens[j - 1], u)
    return u


def _root_terms(datum: RootDatum, root: tuple[int, ...]) -> list[tuple[int, int]]:
    """The nonzero ε-coordinates of twice a ϖ-coordinate root, as (index, value) pairs."""
    return [(i, c) for i, c in enumerate(doubled_epsilon(datum, root)) if c]


def _sends_positive(u: SignedPermutation, terms: list[tuple[int, int]]) -> bool:
    """Whether u maps the root with these one or two ε-terms to a positive root:
    the sign of the image term with the smallest ε-index."""
    if len(terms) == 1:
        ((i, c),) = terms
        return (u[i] > 0) == (c > 0)
    (i, c), (m, d) = terms
    x, y = u[i], u[m]
    return (x > 0) == (c > 0) if abs(x) < abs(y) else (y > 0) == (d > 0)


def minimal_inverses(
    datum: RootDatum, group: dict[SignedPermutation, int], crossed: frozenset[int]
) -> set[SignedPermutation]:
    """Every u in ``group`` with u(α_j) > 0 for each uncrossed j."""
    keep = group
    uncrossed = (j for j in range(1, datum.rank + 1) if j not in crossed)
    for terms in (_root_terms(datum, simple_root_vector(datum, j)) for j in uncrossed):
        keep = filter(partial(_sends_positive, terms=terms), keep)
    return set(keep)


def _inversion_count(u: SignedPermutation, roots: list[list[tuple[int, int]]]) -> int:
    """#{β in ``roots`` : u(β) < 0}; over all positive roots with u = w^{-1} this is
    the inversion set {β > 0 : w^{-1}(β) < 0}'s size, the length of w."""
    return sum(not _sends_positive(u, terms) for terms in roots)


def _reduced_words(g: GroupSpec, diagrams: dict) -> str:
    """The first walk node whose word length, stored length and length of w differ,
    or "".  The length of w is counted on the signed permutation w^{-1}."""
    gens = generator_permutations(g.datum)
    roots = [_root_terms(g.datum, beta) for beta in positive_root_vectors(g.datum)]
    for p in PARABOLICS:
        for node in diagrams[p].nodes:
            length = _inversion_count(word_inverse(gens, node.word), roots)
            if not length == len(node.word) == node.length:
                return f"{p.name}: word {node.word}"
    return ""


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
            if any(hist[l] != hist[top - l] for l in hist):
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
            gens = generator_permutations(g.datum)
            group = signed_permutation_closure(gens)
            detail = ""
            for p in PARABOLICS:
                algo = {word_inverse(gens, nd.word) for nd in diagrams[p].nodes}
                oracle = minimal_inverses(g.datum, group, crossed_simple_roots(g, p))
                if algo != oracle:
                    detail = (
                        f"{p.name}: walk {len(algo)} vs oracle {len(oracle)}; "
                        f"symmetric difference {len(algo ^ oracle)}"
                    )
                    break
            out(_verdict("oracle", n, detail))
            got, want = len(group), expected_group_order(g)
            out(_verdict("group-order", n, "" if got == want else f"{got} != {want}"))

        # 5. back-or-forth over check 4's closure (harder guard), right-handed:
        # l(u∘s_j) = l(u) - 1 if u(α_j) < 0, else l(u) + 1.
        if k > BACK_OR_FORTH_MAX_RANK:
            out(CheckResult("back-or-forth", n, "SKIP", f"rank {k} > {BACK_OR_FORTH_MAX_RANK}"))
        else:
            detail = ""
            alphas = [_root_terms(g.datum, simple_root_vector(g.datum, j)) for j in range(1, k + 1)]
            times = right_multipliers(gens)
            for u, l in group.items():
                for j, (t, alpha) in enumerate(zip(times, alphas), start=1):
                    if group[t(u)] != (l + 1 if _sends_positive(u, alpha) else l - 1):
                        detail = f"w={u}, j={j}"
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
        detail = detail2 = ""
        for p in PARABOLICS:
            dim = nilradical_dim(g, p)
            for rec in parabolic_report(g, p, lam, diagrams[p]).records:
                a = rec.a_normalized.constant_value()
                if (2 * rec.length < dim and not a < 0) or (2 * rec.length > dim and not a > 0):
                    detail = f"{p.name} l={rec.length}: a={a}"
                if any(f.constant_value() <= 0 for f in rec.mu_restricted):
                    detail2 = f"{p.name} word {rec.word}"
        out(_verdict("sign-rule", n, detail))
        out(_verdict("mu-regular", n, detail2))

        # Second parabolic: at the all-ones weight (the extreme point of the regular
        # dominant cone) the normalized coefficient takes a single value per length.
        p2 = MaximalParabolic.P2
        ones = Weight.from_constants([1] * k, k)
        per_length: dict[int, set[Fraction]] = {}
        for rec in parabolic_report(g, p2, ones, diagrams[p2]).records:
            per_length.setdefault(rec.length, set()).add(rec.a_normalized.constant_value())
        bad = {l for l, vals in per_length.items() if len(vals) > 1}
        out(_verdict("a2-by-length", n, f"lengths {sorted(bad)}" if bad else ""))

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
            for d in cuspidal_degrees(g, p):
                for node in diagrams[p].nodes:
                    if d + node.length >= g.n and 2 * node.length < dim:
                        detail = f"{p.name}: holomorphy gap at l={node.length}"
                        break
        out(_verdict("support", n, detail))

        # 10. covers contain the walk edges; strictly more for n = 6
        if n in (5, 6):
            detail = ""
            for p in PARABOLICS:
                completed = with_bruhat_covers(diagrams[p])
                walk = {(a, b) for a, b, _ in completed.algo_edges}
                if not walk <= set(completed.cover_edges):
                    detail = f"{p.name}: walk edge missing from covers"
                    break
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
