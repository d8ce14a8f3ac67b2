"""
Walking a fundamental-weight orbit by hand
==========================================

The minimal coset representatives of a parabolic subgroup can be generated
without ever enumerating the Weyl group: put the sum of the crossed
fundamental weights at the root, and repeatedly apply the simple reflections
that strictly decrease a coordinate from positive to negative.  Reading the
edge labels along any path spells a reduced word.

This script replays that walk for the smallest interesting case (rank 3,
second node crossed) and prints the diagram in DOT.
"""

from orthoweyl import (
    DynkinKind,
    ParabolicChoice,
    apply_word,
    build_hasse,
    delta_weight,
    length_histogram,
    make_datum,
    render_word,
    to_dot,
    with_bruhat_covers,
)

datum = make_datum(DynkinKind.B, 3)
parabolic = ParabolicChoice(datum, frozenset({2}))

# The seed weight has a 1 over every crossed node.
delta = delta_weight(parabolic)
print("seed weight:", delta)

# One reflection step: c_i -> c_i - c_j * <alpha_j, alpha_i^v>.  A word acts
# rightmost letter first, so s2 and then s3 is the word (3, 2).
print("after s2:  ", apply_word(datum, (2,), delta))
print("after s2 s3:", apply_word(datum, (3, 2), delta))

# The full walk.  Node weights are pairwise distinct: they are exactly the
# orbit of the seed, and they biject with the minimal coset representatives.
diagram = build_hasse(parabolic)
print(f"\n{len(diagram.nodes)} representatives, longest has length {diagram.max_length}")
for node in diagram.nodes:
    print(f"  l={node.length}  {render_word(node.word):<18} weight {node.weight}")

print("\ncounts per length:", length_histogram(diagram))

# The walk edges are weak-order covers.  Completing to all Bruhat covers can
# add arrows that no step-by-step walk produces.
completed = with_bruhat_covers(diagram)
extra = set(completed.cover_edges) - {(a, b) for a, b, _ in diagram.algo_edges}
print(f"cover completion adds {len(extra)} arrow(s):")
for a, b in sorted(extra):
    print(f"  {render_word(diagram.nodes[a].word)} -> {render_word(diagram.nodes[b].word)}")

print("\nDOT output:\n")
print(to_dot(completed))
