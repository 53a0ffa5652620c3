"""kcover: minimum and near-minimum edge additions for clique edge covers.

A graph has a (k, l)-cover when every edge lies in at least l cliques of
order k.  This package computes completion sets (non-edges to add) that
establish such covers: exactly for trees and chordal graphs at (3, 1),
within proven constant factors for trees at any k, and by exhaustive
search at desk scale for everything else.
"""

from .chordal import ChordalDecomposition, decompose_trees, optimal_chordal_31
from .errors import InputError
from .generators import (
    enumerate_labeled_trees,
    gen_random_3partition,
    gen_random_chordal,
    gen_random_setcover,
    gen_random_tree,
)
from .graph import (
    ChordalityResult,
    CompletionSet,
    CoverCheck,
    CoverSpec,
    Edge,
    Graph,
    apply_completion,
    check_chordal,
    find_bridges,
    norm_edge,
    unsaturated_edges,
    validate_completion,
)
from .oracle import (
    InconclusiveError,
    OracleBudget,
    OracleResult,
    brute_min_completion,
    brute_min_setcover,
)
from .reductions import (
    LabeledReductionGraph,
    Role,
    SetCoverInstance,
    ThreePartitionInstance,
    build_setcover_k,
    build_setcover_k3,
    build_spider,
    completion_from_cover,
    completion_from_partition,
    extract_set_cover,
    goodify_3,
    goodify_k,
    partition_from_edge_partition,
    spider_leg_edges,
    spider_leg_vertices,
    unsaturated_item_targets,
)
from .trees import (
    DepthIndex,
    RootedTree,
    approx_tree_4,
    approx_tree_k,
    optimal_tree_31,
    p3_partition,
    spider_graph,
    worst_case_spider,
)

__version__ = "0.1.0"
