"""Optimal (3,1) completion for chordal graphs.

In a chordal graph the edges missing a triangle are exactly the bridges, and
the bridges form vertex-disjoint trees.  Completing each of those trees
independently (with the tree solver, or a single chord for a lone bridge) is
optimal for the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import (
    CompletionSet, Edge, Graph, check_chordal, components, find_bridges, neighbour_sets, norm_edge,
)
from .trees import RootedTree, bridge_chord, optimal_tree_31


@dataclass(frozen=True)
class ChordalDecomposition:
    """Bridge-trees of a graph: their sorted vertex lists and edge lists."""

    trees: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[Edge, ...], ...]


def decompose_trees(g: Graph) -> ChordalDecomposition:
    """Group the bridges of g into maximal trees."""
    if g.n < 3:
        raise InputError(f"decomposition needs at least 3 vertices, got {g.n}")
    if not g.is_connected():
        raise InputError("decomposition needs a connected graph")
    bridges = find_bridges(g)
    adj = neighbour_sets(bridges)
    trees = tuple(tuple(comp) for comp in components(adj, sorted(adj)))
    tree_edges = tuple(
        tuple(sorted((v, w) for v in comp for w in adj[v] if v < w)) for comp in trees
    )
    return ChordalDecomposition(trees=trees, tree_edges=tree_edges)


def optimal_chordal_31(g: Graph) -> CompletionSet:
    """Minimum completion giving every edge of a connected chordal graph a triangle.

    Solves each bridge-tree independently: the tree solver for trees with at
    least three vertices, and for a lone bridge one chord from an endpoint to
    another neighbour of the other.
    """
    dec = decompose_trees(g)
    chordality = check_chordal(g)
    if not chordality.is_chordal:
        raise InputError(
            f"graph is not chordal (later neighbors of vertex "
            f"{chordality.certificate} are not a clique)"
        )
    additions: list[Edge] = []
    added: set[Edge] = set()
    for verts, tedges in zip(dec.trees, dec.tree_edges):
        if len(verts) >= 3:
            back = {old: new for new, old in enumerate(verts)}
            sub = Graph(len(verts), [(back[u], back[v]) for (u, v) in tedges])
            for a, b in optimal_tree_31(RootedTree.from_graph(sub)):
                e = norm_edge(verts[a], verts[b])
                additions.append(e)
                added.add(e)
        else:
            chord = bridge_chord(g, *verts, added)
            additions.append(chord)
            added.add(chord)
    return CompletionSet(additions)
