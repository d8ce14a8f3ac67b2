"""Self-verification harness: oracle equivalence and structural properties.

Runs, for every n in 5..n_max, the checks behind the package's claims:
exact coset counts, reduced words, the back-or-forth alternative over the
full group, equality of the orbit walk with the brute-force minimal-rep
oracle, palindromic length counts, restriction recombination, antipodal
antisymmetry of the evaluation coefficients, sign rules at random regular
weights, regularity propagation, and the degree-support tiling.

The ``oracle``, ``group-order`` and ``back-or-forth`` rows work in
ε-coordinates, where W(B_k) and W(D_k) are signed-permutation groups
(Björner–Brenti, ch. 8).  Each s_j reflects every ε_i in α_j; the group is the
breadth-first closure of those k signed permutations, with each element's BFS
layer as its length, and ``group-order`` is its size.  A root is positive when
its first nonzero ε-coordinate is.  ``oracle`` keeps each u with u(α_j) > 0
for every uncrossed j and compares that set with w^{-1} of every walk word.
``back-or-forth`` checks l(u∘s_j) = l(u) ∓ 1 as u(α_j) is negative or positive.

Factorial-size checks (full-group enumeration) run only while the rank is
small; above the guard they are reported as skipped, never silently dropped.
Randomized checks draw from a fixed seed so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import degree_support, evaluation_coefficient, parabolic_report
from .errors import OrthoweylError
from .hasse import build_hasse, length_histogram, with_bruhat_covers
from .linform import LinearForm
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
from .weylgroup import WeylWord, inversion_vectors

__all__ = ["CheckResult", "run_verification", "format_results"]

#: Full-group checks run only for ranks up to these bounds.  Back-or-forth
#: reads the group that the oracle check builds, so its bound is the lower.
ORACLE_MAX_RANK = 6
BACK_OR_FORTH_MAX_RANK = 5
#: From-scratch inversion sets are recomputed only below this work estimate.
REDUCED_WORD_WORK_CAP = 300_000

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
    import math

    k = g.k
    return (2**k if g.is_odd else 2 ** (k - 1)) * math.factorial(k)


def _diagrams(g: GroupSpec):
    return {p: build_hasse(parabolic_choice(g, p)) for p in PARABOLICS}


def _random_form(rng: random.Random, k: int) -> LinearForm:
    coeffs = {
        i: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for i in range(1, k + 1)
    }
    return LinearForm.make(k, Fraction(rng.randint(-6, 6), rng.randint(1, 4)), coeffs)


def _combine(forms: list[LinearForm], basis: list[Weight], k: int) -> Weight:
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
            # s_j(ε_i) = ε_i - (2(ε_i, a)/(a, a))·a, times (a, a)
            image = [norm * (m == i) - 2 * a[i] * x for m, x in enumerate(a)]
            moved = [(m, x) for m, x in enumerate(image) if x]
            if len(moved) != 1 or abs(moved[0][1]) != norm:
                raise OrthoweylError(f"s{j} is not a signed permutation of the ε-basis")
            m, x = moved[0]
            perm.append(m + 1 if x > 0 else -(m + 1))
        gens.append(tuple(perm))
    return tuple(gens)


def _compose(u: SignedPermutation, v: SignedPermutation) -> SignedPermutation:
    """u∘v: v acts first."""
    return tuple([u[x - 1] if x > 0 else -u[-x - 1] for x in v])


def signed_permutation_closure(
    gens: tuple[SignedPermutation, ...],
) -> dict[SignedPermutation, int]:
    """The group generated by ``gens``, each element with its breadth-first layer.

    That layer is the length when ``gens`` are the simple reflections.
    """
    ident = tuple(range(1, len(gens[0]) + 1))
    length = {ident: 0}
    frontier = [ident]
    while frontier:
        fresh = []
        for u in frontier:
            for s in gens:
                v = _compose(u, s)
                if v not in length:
                    length[v] = length[u] + 1
                    fresh.append(v)
        frontier = fresh
    return length


def word_inverse(gens: tuple[SignedPermutation, ...], word: WeylWord) -> SignedPermutation:
    """w^{-1} = s_{im}∘…∘s_{i1} for the word (i1, …, im) of w."""
    u = tuple(range(1, len(gens[0]) + 1))
    for j in word:
        u = _compose(gens[j - 1], u)
    return u


def _root_terms(datum: RootDatum, j: int) -> list[tuple[int, int]]:
    """The nonzero ε-coordinates of 2α_j, as (index, value) pairs."""
    a = doubled_epsilon(datum, simple_root_vector(datum, j))
    return [(i, c) for i, c in enumerate(a) if c]


def _sends_positive(u: SignedPermutation, terms: list[tuple[int, int]]) -> bool:
    """Whether u maps the root with these ε-terms to a positive root.

    A root is positive when its first nonzero ε-coordinate is.  The images of
    the terms land on distinct coordinates, so that coordinate is the
    smallest one hit.
    """
    _, c = min((abs(u[i]), c if u[i] > 0 else -c) for i, c in terms)
    return c > 0


def minimal_inverses(
    datum: RootDatum, group: dict[SignedPermutation, int], crossed: frozenset[int]
) -> set[SignedPermutation]:
    """Every u in ``group`` with u(α_j) > 0 for each uncrossed j."""
    terms = [_root_terms(datum, j) for j in range(1, datum.rank + 1) if j not in crossed]
    return {u for u in group if all(_sends_positive(u, t) for t in terms)}


def run_verification(n_max: int, rng_seed: int = 7) -> list[CheckResult]:
    results: list[CheckResult] = []
    out = results.append

    for n in range(5, n_max + 1):
        g = group_spec(n)
        k = g.k
        diagrams = _diagrams(g)
        rng = random.Random(rng_seed * 1000 + n)

        # 1. coset counts
        ok, detail = True, ""
        for p in PARABOLICS:
            got, want = len(diagrams[p].nodes), expected_coset_count(g, p)
            if got != want:
                ok, detail = False, f"{p.name}: {got} != {want}"
                break
        out(CheckResult("counts", n, "PASS" if ok else "FAIL", detail))

        # 2. histogram structure: palindromic, unique extremes, max = dim N_P
        ok, detail = True, ""
        for p in PARABOLICS:
            hist = length_histogram(diagrams[p])
            top = max(hist)
            if top != nilradical_dim(g, p):
                ok, detail = False, f"{p.name}: max length {top} != dim N"
                break
            if any(hist[l] != hist[top - l] for l in hist):
                ok, detail = False, f"{p.name}: N(l) not palindromic"
                break
            if hist[0] != 1 or hist[top] != 1:
                ok, detail = False, f"{p.name}: extremes not unique"
                break
            if sum(hist.values()) != len(diagrams[p].nodes):
                ok, detail = False, f"{p.name}: histogram total mismatch"
                break
        out(CheckResult("histogram", n, "PASS" if ok else "FAIL", detail))

        # 3. reduced words: |Φ_w| from scratch equals the stored word length
        posroots = positive_root_vectors(g.datum)
        work = sum(len(d.nodes) for d in diagrams.values()) * len(posroots)
        if work > REDUCED_WORD_WORK_CAP:
            out(CheckResult("reduced-words", n, "SKIP", f"work estimate {work}"))
        else:
            ok, detail = True, ""
            for p in PARABOLICS:
                for node in diagrams[p].nodes:
                    if len(inversion_vectors(g.datum, node.word)) != node.length:
                        ok, detail = False, f"{p.name}: word {node.word}"
                        break
                if not ok:
                    break
            out(CheckResult("reduced-words", n, "PASS" if ok else "FAIL", detail))

        # 4. oracle equivalence (factorial; guarded): the walk's w^{-1} against
        # every u in W with u(α_j) > 0 for the uncrossed j, as signed permutations
        if k > ORACLE_MAX_RANK:
            out(CheckResult("oracle", n, "SKIP", f"rank {k} > {ORACLE_MAX_RANK}"))
            out(CheckResult("group-order", n, "SKIP", f"rank {k} > {ORACLE_MAX_RANK}"))
        else:
            gens = generator_permutations(g.datum)
            group = signed_permutation_closure(gens)
            ok, detail = True, ""
            for p in PARABOLICS:
                algo = {word_inverse(gens, nd.word) for nd in diagrams[p].nodes}
                oracle = minimal_inverses(g.datum, group, crossed_simple_roots(g, p))
                if algo != oracle:
                    ok = False
                    detail = (
                        f"{p.name}: walk {len(algo)} vs oracle {len(oracle)}; "
                        f"symmetric difference {len(algo ^ oracle)}"
                    )
                    break
            out(CheckResult("oracle", n, "PASS" if ok else "FAIL", detail))
            got = len(group)
            want = expected_group_order(g)
            out(
                CheckResult(
                    "group-order",
                    n,
                    "PASS" if got == want else "FAIL",
                    "" if got == want else f"{got} != {want}",
                )
            )

        # 5. back-or-forth over check 4's closure (harder guard), right-handed:
        # l(u∘s_j) = l(u) - 1 if u(α_j) < 0, else l(u) + 1.
        if k > BACK_OR_FORTH_MAX_RANK:
            out(CheckResult("back-or-forth", n, "SKIP", f"rank {k} > {BACK_OR_FORTH_MAX_RANK}"))
        else:
            ok, detail = True, ""
            alphas = [_root_terms(g.datum, j) for j in range(1, k + 1)]
            for u, l in group.items():
                for j, (s, alpha) in enumerate(zip(gens, alphas), start=1):
                    if group[_compose(u, s)] != (l + 1 if _sends_positive(u, alpha) else l - 1):
                        ok, detail = False, f"w={u}, j={j}"
                        break
                if not ok:
                    break
            out(CheckResult("back-or-forth", n, "PASS" if ok else "FAIL", detail))

        # 6. restriction recombination on random symbolic weights
        ok, detail = True, ""
        for p in PARABOLICS:
            head, tail = restriction_basis(g, p)
            basis = [head, *tail]
            for trial in range(100):
                w = Weight(tuple(_random_form(rng, k) for _ in range(k)))
                r = restrict(g, p, w)
                back = _combine([r.a_coefficient, *r.b_coords], basis, k)
                if back != w:
                    ok, detail = False, f"{p.name}: trial {trial}"
                    break
            if not ok:
                break
        out(CheckResult("recombination", n, "PASS" if ok else "FAIL", detail))

        # 7. antipodal antisymmetry of the normalized evaluation coefficient
        ok, detail = True, ""
        for p in PARABOLICS:
            nodes = diagrams[p].nodes
            w_max = max(nodes, key=lambda nd: nd.length)
            if evaluation_coefficient(g, p, w_max.word) != -evaluation_coefficient(g, p, ()):
                ok, detail = False, p.name
                break
        out(CheckResult("antipodal", n, "PASS" if ok else "FAIL", detail))

        # 8. sign rule at a random regular weight (strict lengths only)
        if n > 12:
            out(CheckResult("sign-rule", n, "SKIP", "spot-checked for n <= 12"))
            out(CheckResult("mu-regular", n, "SKIP", "spot-checked for n <= 12"))
            out(CheckResult("a2-by-length", n, "SKIP", "spot-checked for n <= 12"))
        else:
            assignment = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(k)]
            lam = Weight.from_constants(assignment, k)
            ok, detail = True, ""
            ok2, detail2 = True, ""
            for p in PARABOLICS:
                dim = nilradical_dim(g, p)
                for rec in parabolic_report(g, p, lam, diagrams[p]).records:
                    a = rec.a_normalized.constant_value()
                    if 2 * rec.length < dim and not a < 0:
                        ok, detail = False, f"{p.name} l={rec.length}: a={a}"
                    if 2 * rec.length > dim and not a > 0:
                        ok, detail = False, f"{p.name} l={rec.length}: a={a}"
                    if any(f.constant_value() <= 0 for f in rec.mu_restricted):
                        ok2, detail2 = False, f"{p.name} word {rec.word}"
            out(CheckResult("sign-rule", n, "PASS" if ok else "FAIL", detail))
            out(CheckResult("mu-regular", n, "PASS" if ok2 else "FAIL", detail2))

            # Second parabolic: at the all-ones weight (the extreme point of
            # the regular dominant cone) the normalized coefficient takes a
            # single value per length.
            p2 = MaximalParabolic.P2
            ones = Weight.from_constants([1] * k, k)
            per_length: dict[int, set[Fraction]] = {}
            for rec in parabolic_report(g, p2, ones, diagrams[p2]).records:
                per_length.setdefault(rec.length, set()).add(rec.a_normalized.constant_value())
            bad = {l for l, vals in per_length.items() if len(vals) > 1}
            out(
                CheckResult(
                    "a2-by-length",
                    n,
                    "PASS" if not bad else "FAIL",
                    "" if not bad else f"lengths {sorted(bad)}",
                )
            )

        # 9. degree support tiling and holomorphy consistency
        ok, detail = True, ""
        for p in PARABOLICS:
            support = degree_support(g, p)
            degrees = sorted({e.degree for e in support.generation})
            if degrees != list(range(support.q_min, support.q_max + 1)):
                ok, detail = False, f"{p.name}: tiling gap"
                break
            hist = length_histogram(diagrams[p])
            if any(hist.get(e.length, 0) < 1 for e in support.generation):
                ok, detail = False, f"{p.name}: generation length missing in W^P"
                break
            if support.q_min != g.n:
                ok, detail = False, f"{p.name}: q_min != n"
                break
            dim = nilradical_dim(g, p)
            for d in cuspidal_degrees(g, p):
                for node in diagrams[p].nodes:
                    if d + node.length >= g.n and 2 * node.length < dim:
                        ok, detail = False, f"{p.name}: holomorphy gap at l={node.length}"
                        break
        out(CheckResult("support", n, "PASS" if ok else "FAIL", detail))

        # 10. covers contain the walk edges; strictly more for n = 6
        if n in (5, 6):
            ok, detail = True, ""
            for p in PARABOLICS:
                completed = with_bruhat_covers(diagrams[p])
                walk = {(a, b) for a, b, _ in completed.algo_edges}
                if not walk <= set(completed.cover_edges):
                    ok, detail = False, f"{p.name}: walk edge missing from covers"
                    break
                if n == 6 and p is MaximalParabolic.P2 and not (
                    set(completed.cover_edges) > walk
                ):
                    ok, detail = False, "P2: expected strictly more covers than walk edges"
                    break
            out(CheckResult("covers", n, "PASS" if ok else "FAIL", detail))

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
