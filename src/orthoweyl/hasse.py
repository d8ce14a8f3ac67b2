"""Minimal coset representatives as the labelled orbit graph of δ_P.

For a parabolic choice (root datum + crossed simple roots) let δ_P be the sum
of the fundamental weights of the crossed nodes.  The map ``w ↦ w^{-1}(δ_P)``
is a bijection from the minimal coset representatives W^P onto the W-orbit of
δ_P, so W^P can be generated by a breadth-first walk over that orbit:

  * node identity is the orbit weight (a tuple of integers);
  * from a node with weight x, each simple index j with ``x_j > 0``
    contributes the edge x --j--> s_j(x).  A positive coordinate is exactly
    a step away from the dominant chamber: ``x_j = 0`` would halt
    (s_j(x) = x) and ``x_j < 0`` would go back towards δ_P, so no inversion
    set needs to be carried.

Reading edge labels along any path from the root spells a reduced word for the
node's coset representative.  The walk is deterministic: frontier nodes are
processed in word order and letters in ascending order, so node ids, stored
words and all rendered output are byte-stable across runs.

Edges produced by the walk are weak-order covers; :func:`with_bruhat_covers`
completes them to the full Bruhat cover relation on the orbit weights alone.
For a node w with weight x and a positive root β, the weight
``s_β(x) = x − ⟨x, β^∨⟩·β`` belongs to the coset of ``w·s_β = t·w`` with
``t = s_{w(β)}``, and every reflection t arises this way.  Deodhar's
projection W → W^P preserves the Bruhat order (Björner–Brenti, *Combinatorics
of Coxeter Groups*, §2.5), so a pair whose lengths differ by one is a cover
in W^P, and every cover t·w ∈ W^P is found.  In ε-coordinates s_β is a
signed transposition (ibid., ch. 8): for β = ε_i − s·ε_j it puts s·x_j at i
and s·x_i at j, and the short root ε_i of B_k negates x_i, so only the roots
that touch a nonzero x_i can move x.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .errors import IndexRangeError, OrthoweylError
from .rootsystem import (
    DynkinKind,
    RootDatum,
    Weight,
    _eps_to_weight_vector,
    doubled_epsilon,
    reflect_vector,
)
from .weylgroup import WeylWord

__all__ = [
    "ParabolicChoice",
    "HasseNode",
    "HasseDiagram",
    "delta_weight",
    "build_hasse",
    "length_histogram",
    "with_bruhat_covers",
    "to_dot",
    "to_json_dict",
]


@dataclass(frozen=True)
class ParabolicChoice:
    """A root datum together with the set of crossed simple-root indices."""

    datum: RootDatum
    crossed: frozenset[int]

    def __post_init__(self):
        for j in self.crossed:
            if not 1 <= j <= self.datum.rank:
                raise IndexRangeError(f"crossed index {j} outside 1..{self.datum.rank}")


@dataclass(frozen=True)
class HasseNode:
    """One minimal coset representative."""

    id: int
    word: WeylWord
    weight: tuple[int, ...]  # w^{-1}(δ_P) in ϖ-coordinates
    length: int


@dataclass(frozen=True)
class HasseDiagram:
    """Orbit graph: nodes, labelled walk edges, and (optionally) all covers."""

    parabolic: ParabolicChoice
    nodes: tuple[HasseNode, ...]
    algo_edges: tuple[tuple[int, int, int], ...]  # (from, to, simple index)
    cover_edges: tuple[tuple[int, int], ...] | None = None  # None until computed

    @property
    def max_length(self) -> int:
        return max(node.length for node in self.nodes)


def delta_weight(p: ParabolicChoice) -> Weight:
    """Sum of the fundamental weights of the crossed nodes."""
    vec = [1 if i in p.crossed else 0 for i in range(1, p.datum.rank + 1)]
    return Weight.from_constants(vec)


def build_hasse(p: ParabolicChoice) -> HasseDiagram:
    """Breadth-first walk over the W-orbit of δ_P; see the module docstring."""
    datum = p.datum
    k = datum.rank
    delta = tuple(1 if i in p.crossed else 0 for i in range(1, k + 1))

    words: list[WeylWord] = [()]
    weights: list[tuple[int, ...]] = [delta]
    index: dict[tuple[int, ...], int] = {delta: 0}
    edges: list[tuple[int, int, int]] = []

    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for node_id in sorted(frontier, key=lambda i: words[i]):
            x = weights[node_id]
            for j in range(1, k + 1):
                if x[j - 1] <= 0:  # halt (= 0) or go back (< 0)
                    continue
                y = reflect_vector(datum, j, x)
                child = index.get(y)
                if child is None:
                    child = len(words)
                    index[y] = child
                    words.append(words[node_id] + (j,))
                    weights.append(y)
                    next_frontier.append(child)
                edges.append((node_id, child, j))
        frontier = next_frontier

    nodes = tuple(
        HasseNode(i, words[i], weights[i], len(words[i])) for i in range(len(words))
    )
    for a, b, _ in edges:
        assert nodes[b].length == nodes[a].length + 1
    return HasseDiagram(p, nodes, tuple(edges))


def length_histogram(h: HasseDiagram) -> dict[int, int]:
    """Counts N(l) of representatives per length l."""
    out: dict[int, int] = {}
    for node in h.nodes:
        out[node.length] = out.get(node.length, 0) + 1
    return dict(sorted(out.items()))


def _reflections(x: Sequence[int], short: bool) -> Iterator[tuple[int, ...]]:
    """Every ``s_β(x) ≠ x``, x in ε-coordinates, β in the order of ``_eps_positive_roots``."""
    support = [i for i, v in enumerate(x) if v]
    for i, xi in enumerate(x):
        for j in range(i + 1, len(x)) if xi else [j for j in support if j > i]:
            for s in (1, -1):  # β = ε_i - s·ε_j
                if s * x[j] != xi:
                    yield (*x[:i], s * x[j], *x[i + 1 : j], s * xi, *x[j + 1 :])
    for i in support if short else ():
        yield (*x[:i], -x[i], *x[i + 1 :])


def with_bruhat_covers(h: HasseDiagram) -> HasseDiagram:
    """Fill in the full Bruhat cover relation on W^P from the orbit weights.

    Each node is keyed by its weight x in doubled ε-coordinates.  For every
    positive root β that moves x, ``s_β(x)`` is the key of the node of the
    coset of ``w·s_β``; the pair is a cover iff that node is one length higher
    (see the module docstring for why this is the whole relation).  Every walk
    edge is such a cover, and the completed relation may be strictly larger.
    A reflected weight that is not a node means the diagram is not a closed
    orbit, and raises :class:`OrthoweylError`; so does a walk edge that is not
    a cover, as when a node's stored length is wrong.
    """
    datum = h.parabolic.datum
    keys = [tuple(doubled_epsilon(datum, node.weight)) for node in h.nodes]
    index = dict(zip(keys, h.nodes))
    # Found from scratch, not seeded with the walk edges: that the walk edges
    # reappear here is a checked invariant, not a construction artifact.
    covers = set()
    for node, x in zip(h.nodes, keys):
        for y in _reflections(x, datum.kind is DynkinKind.B):
            target = index.get(y)
            if target is None:
                y = tuple(c // 2 for c in _eps_to_weight_vector(datum, y))  # ϖ-coordinates
                raise OrthoweylError(
                    f"orbit not closed: reflecting {node.weight} gives {y}, not a node"
                )
            if target.length == node.length + 1:
                covers.add((node.id, target.id))
    if not {(a, b) for a, b, _ in h.algo_edges} <= covers:
        raise OrthoweylError("walk edge missing from covers")
    return replace(h, cover_edges=tuple(sorted(covers)))


def _weight_label(weight: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in weight) + ")"


def to_dot(h: HasseDiagram) -> str:
    """Deterministic DOT rendering of the diagram.

    Nodes are ``n{id}`` labelled with the orbit-weight tuple; walk edges carry
    ``label="s{α}"``; when the diagram has its covers (see
    :func:`with_bruhat_covers`) the cover-only edges are added dashed.
    """
    lines = ["digraph WP {"]
    for node in h.nodes:
        lines.append(f'  n{node.id} [label="{_weight_label(node.weight)}"];')
    for a, b, j in sorted(h.algo_edges):
        lines.append(f'  n{a} -> n{b} [label="s{j}"];')
    if h.cover_edges is not None:
        walk_pairs = {(a, b) for a, b, _ in h.algo_edges}
        for a, b in h.cover_edges:
            if (a, b) not in walk_pairs:
                lines.append(f'  n{a} -> n{b} [style="dashed"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(h: HasseDiagram) -> dict:
    """JSON-ready dict: {nodes, algo_edges, cover_edges}."""
    return {
        "nodes": [
            {
                "id": n.id,
                "word": list(n.word),
                "length": n.length,
                "weight": list(n.weight),
            }
            for n in h.nodes
        ],
        "algo_edges": [list(e) for e in sorted(h.algo_edges)],
        "cover_edges": None
        if h.cover_edges is None
        else [list(e) for e in h.cover_edges],
    }
