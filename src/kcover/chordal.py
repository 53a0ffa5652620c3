"""Optimal (3,1) completion for chordal graphs.

In a chordal graph the edges missing a triangle are exactly the bridges, and
the bridges form vertex-disjoint trees.  Completing each of those trees
independently (with the tree solver's path partition, or a single chord for a
lone bridge) is optimal for the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import CompletionSet, Edge, Graph, cardinality_search, find_bridges, norm_edge
from .trees import _path_chords


@dataclass(frozen=True)
class ChordalDecomposition:
    """Bridge-trees of a graph: their sorted vertex lists and edge lists."""

    trees: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[Edge, ...], ...]


def _root_forest(n: int, edges: list[Edge]) -> tuple[list, list[int], list[list[int]]]:
    """Root each tree of the forest on 0..n-1 whose sorted edges are edges at
    its lowest id, in one breadth-first pass.

    Returns the forest's ascending neighbour rows, held only for the vertices
    on an edge (the others' rows are empty), each such vertex's parent (a root
    is its own), and the trees by lowest id, each as its vertices deepest
    first, ties to the lowest id.
    """
    rows: list = [()] * n
    for u, v in edges:  # in sorted order each row fills in ascending order
        if rows[u]:
            rows[u].append(v)
        else:
            rows[u] = [v]
        if rows[v]:
            rows[v].append(u)
        else:
            rows[v] = [u]
    parent = [-1] * n
    trees = []
    for root, _ in edges:
        if parent[root] >= 0:
            continue
        parent[root] = root
        levels = [[root]]
        for level in levels:
            below = []
            for v in level:
                up = parent[v]
                for w in rows[v]:
                    if w != up:
                        parent[w] = v
                        below.append(w)
            if below:
                levels.append(below)
        order: list[int] = []
        for level in reversed(levels):
            level.sort()
            order += level
        trees.append(order)
    return rows, parent, trees


def decompose_trees(g: Graph) -> ChordalDecomposition:
    """Group the bridges of g into maximal trees."""
    if g.n < 3:
        raise InputError(f"decomposition needs at least 3 vertices, got {g.n}")
    if not g.is_connected():
        raise InputError("decomposition needs a connected graph")
    _, parent, trees = _root_forest(g.n, find_bridges(g))
    return ChordalDecomposition(
        trees=tuple(tuple(sorted(tree)) for tree in trees),
        tree_edges=tuple(
            tuple(sorted(norm_edge(v, parent[v]) for v in tree if parent[v] != v)) for tree in trees
        ),
    )


def optimal_chordal_31(g: Graph) -> CompletionSet:
    """Minimum completion giving every edge of a connected chordal graph a triangle.

    One maximum cardinality search refuses a disconnected or non-chordal
    graph and finds the bridges.  The bridge trees are then completed as the
    tree solver completes a tree, all in one peel: a chord per two-edge path
    of each tree's partition, and for a left-over edge one chord from an
    endpoint to another neighbour of the other, inside the tree or, for a
    lone bridge, anywhere in g.
    """
    if g.n < 3:
        raise InputError(f"decomposition needs at least 3 vertices, got {g.n}")
    search = cardinality_search(g)
    if search.restarts > 1:
        raise InputError("decomposition needs a connected graph")
    if search.certificate is not None:
        raise InputError(
            f"graph is not chordal (later neighbors of vertex "
            f"{search.certificate} are not a clique)"
        )
    rows, parent, trees = _root_forest(g.n, search.no_triangle)
    return CompletionSet(_path_chords(rows, parent, trees, g.adj))
