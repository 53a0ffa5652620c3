"""Peak memory per vertex of generating, reading, building and writing a
graph, of each solve route and of check.

tracemalloc's peak, taken over one call with its input already built, is
divided by the vertex count.  Each route has its own bound at each size,
about 1.3 times the figure measured when the bound was set (the figures are
in the table): per-vertex peaks jump with hash-table sizes, as
approx_tree_4's do between the two sizes, so no one constant fits both.
"""

import tracemalloc

from kcover import CoverSpec, Graph, optimal_chordal_31, validate_pairs
from kcover.generators import gen_random_chordal, gen_random_tree
from kcover.io import format_completion, format_edge_list, parse_completion_pairs, parse_edge_pairs
from kcover.trees import RootedTree, approx_tree_4, approx_tree_k, optimal_tree_31

SIZES = (20_000, 40_000)

# route -> bytes per vertex at each of SIZES, as (measured, bound)
PEAK_BYTES_PER_VERTEX = {
    "Graph(tree)": ((97, 130), (97, 130)),
    "Graph(chordal)": ((110, 145), (110, 145)),
    "Graph(parse_edge_pairs(tree))": ((185, 240), (171, 222)),
    "Graph(parse_edge_pairs(chordal w4))": ((230, 300), (223, 290)),
    "gen_random_chordal(4)": ((193, 250), (175, 228)),
    "format_edge_list(tree)": ((68, 90), (70, 92)),
    "format_edge_list(chordal)": ((75, 100), (78, 102)),
    "optimal_tree_31": ((239, 310), (245, 320)),
    "approx_tree_4": ((215, 280), (154, 200)),
    "approx_tree_k(5)": ((287, 375), (223, 290)),
    "optimal_chordal_31": ((155, 200), (148, 190)),
    "validate_pairs(3)": ((130, 170), (133, 175)),
    "validate_pairs(4)": ((140, 185), (143, 190)),
    "validate_pairs(5)": ((522, 680), (500, 650)),
    "validate_pairs(parse_completion_pairs(tree), 4)": ((221, 287), (208, 270)),
    "validate_pairs(star, 4)": ((257, 335), (195, 255)),
    "validate_pairs(chordal w4, 3)": ((197, 255), (202, 265)),
    "validate_pairs(parse_edge_pairs(chordal w4), 3)": ((286, 372), (296, 385)),
}


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _routes(n: int) -> dict:
    g = gen_random_tree(n, 7)
    t = RootedTree.from_graph(g)
    completions = {3: optimal_tree_31(t), 4: approx_tree_4(t), 5: approx_tree_k(t, 5)}
    chordal = gen_random_chordal(n, 3, 7)
    tree_pairs, chordal_pairs = g.edge_list(), chordal.edge_list()
    # the star's centre is its highest id, so every leaf is a lower end that
    # tests the centre's row; the width-4 chordal graph has hundreds of long rows
    star = Graph(n, [(v, n - 1) for v in range(n - 1)])
    star_pairs, star_completion = star.edge_list(), approx_tree_4(RootedTree.from_graph(star))
    wide = gen_random_chordal(n, 4, 7)
    wide_pairs, wide_completion = wide.edge_list(), optimal_chordal_31(wide)
    # kcover check reads its graph and its completion as these
    tree_text, wide_text = format_edge_list(g), format_edge_list(wide)
    tree_completion_text = format_completion(completions[4])

    def check(k):
        return validate_pairs(n, tree_pairs, completions[k], CoverSpec(k, 1))

    return {
        "Graph(tree)": lambda: Graph(n, tree_pairs),
        "Graph(chordal)": lambda: Graph(n, chordal_pairs),
        "Graph(parse_edge_pairs(tree))": lambda: Graph(*parse_edge_pairs(tree_text)),
        "Graph(parse_edge_pairs(chordal w4))": lambda: Graph(*parse_edge_pairs(wide_text)),
        "gen_random_chordal(4)": lambda: gen_random_chordal(n, 4, 7),
        "format_edge_list(tree)": lambda: format_edge_list(g),
        "format_edge_list(chordal)": lambda: format_edge_list(chordal),
        "optimal_tree_31": lambda: optimal_tree_31(t),
        "approx_tree_4": lambda: approx_tree_4(t),
        "approx_tree_k(5)": lambda: approx_tree_k(t, 5),
        "optimal_chordal_31": lambda: optimal_chordal_31(chordal),
        "validate_pairs(3)": lambda: check(3),
        "validate_pairs(4)": lambda: check(4),
        "validate_pairs(5)": lambda: check(5),
        "validate_pairs(parse_completion_pairs(tree), 4)": lambda: validate_pairs(
            n, tree_pairs, parse_completion_pairs(tree_completion_text), CoverSpec(4)
        ),
        "validate_pairs(star, 4)": lambda: validate_pairs(n, star_pairs, star_completion, CoverSpec(4)),
        "validate_pairs(chordal w4, 3)": lambda: validate_pairs(
            n, wide_pairs, wide_completion, CoverSpec(3)
        ),
        "validate_pairs(parse_edge_pairs(chordal w4), 3)": lambda: validate_pairs(
            *parse_edge_pairs(wide_text), wide_completion, CoverSpec(3)
        ),
    }


def test_peak_bytes_per_vertex_of_each_route():
    over = []
    for i, n in enumerate(SIZES):
        for route, call in _routes(n).items():
            per_vertex = _peak(call) / n
            bound = PEAK_BYTES_PER_VERTEX[route][i][1]
            if per_vertex > bound:
                over.append(f"{route} at n={n}: {per_vertex:.0f} B/vertex > {bound}")
    assert not over, over
