import hashlib
import random

import pytest

from kcover import (
    CompletionSet,
    CoverSpec,
    InputError,
    LabeledReductionGraph,
    SetCoverInstance,
    ThreePartitionInstance,
    build_setcover_k,
    build_setcover_k3,
    brute_min_setcover,
    build_spider,
    completion_from_cover,
    completion_from_partition,
    extract_set_cover,
    gen_random_3partition,
    gen_random_setcover,
    goodify_3,
    goodify_k,
    partition_from_edge_partition,
    spider_graph,
    spider_leg_edges,
    spider_leg_vertices,
    unsaturated_item_targets,
    validate_completion,
)

from kcover.io import format_completion, format_edge_list, format_role_map
from kcover.reductions import setcover_gadget_order, setcover_gadget_size

from helpers import common_neighbours, pad_with_decoys, random_cover

FIG = SetCoverInstance(3, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})])
MICRO = SetCoverInstance(1, [frozenset({0})])


def test_setcover_instance_validation():
    inst = SetCoverInstance(2, [{0}, [1, 0]], budget=1)
    assert inst.sets == (frozenset({0}), frozenset({0, 1}))
    assert inst.budget == 1
    with pytest.raises(InputError):
        SetCoverInstance(0, [{0}])
    with pytest.raises(InputError):
        SetCoverInstance(2, [{0}, set()])
    with pytest.raises(InputError):
        SetCoverInstance(2, [{0, 2}])
    with pytest.raises(InputError):
        SetCoverInstance(2, [{0}])  # item 1 uncovered
    with pytest.raises(InputError):
        SetCoverInstance(1, [{0}], budget=0)


def test_setcover_instance_names_a_few_uncovered_items():
    with pytest.raises(InputError, match=r"^3 of 6 items are not covered by any set, the first \[1, 3, 4\]$"):
        SetCoverInstance(6, [{0, 2}, {5}])
    # a large universe is reported by count, not listed item by item
    with pytest.raises(InputError) as err:
        SetCoverInstance(10**6, [{0}])
    assert str(err.value) == (
        "999999 of 1000000 items are not covered by any set, the first [1, 2, 3, 4, 5]"
    )


def test_setcover_gadget_order_matches_the_built_graphs():
    for seed in range(6):
        inst = gen_random_setcover(2 + seed % 3, 1 + seed % 4, 0.5, seed)
        for k in (3, 4, 5, 6):
            rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
            assert setcover_gadget_order(inst, k) == rg.graph.n
            assert setcover_gadget_size(inst, k) == rg.graph.m


# sha256 of the gadgets, role maps and goodified minimum-cover completions
# listed by _gadget_outputs below, recorded while each builder kept its own
# vertex counter.
GOLDEN_GADGET_SHA256 = "5603bbdfc42e33e338bfe8f5b93abec8e22869a3a4325d27b3a42cfbdaf1e5b8"


def _gadget_outputs():
    for seed in range(12):
        inst = gen_random_setcover(2 + seed % 4, 1 + seed % 5, 0.4, seed)
        for k in (3, 4, 5, 6):
            rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
            c = completion_from_cover(rg, brute_min_setcover(inst))
            good = goodify_3(rg, c) if k == 3 else goodify_k(rg, c, k)
            yield format_edge_list(rg.graph)
            yield format_role_map(rg)
            yield format_completion(good)


def test_setcover_gadget_golden_hash():
    h = hashlib.sha256()
    for text in _gadget_outputs():
        h.update(text.encode())
    assert h.hexdigest() == GOLDEN_GADGET_SHA256


def test_three_partition_instance_validation():
    inst = ThreePartitionInstance(10, (3, 3, 4, 4, 3, 3))
    with pytest.raises(InputError):
        ThreePartitionInstance(10, (3, 3, 4, 4, 3))  # not a multiple of 3
    with pytest.raises(InputError):
        ThreePartitionInstance(10, (2, 4, 4, 3, 3, 4))  # 2 <= target/4
    with pytest.raises(InputError):
        ThreePartitionInstance(10, (5, 3, 4, 3, 3, 4))  # 5 >= target/2
    with pytest.raises(InputError):
        ThreePartitionInstance(10, (3, 3, 4, 3, 4, 4))  # sum != 2 * target


def test_figure_instance_reduction_k3():
    rg = build_setcover_k3(FIG)
    g = rg.graph
    assert g.n == 52 and g.m == 108
    assert g.is_connected()
    assert rg.common == 51 and rg.set_ids == ((0,), (1,), (2,))
    assert rg.set_count == 3 and rg.item_count == 3

    # the only 1-unsaturated edges at k=3 join item vertices to the common vertex
    targets = unsaturated_item_targets(rg)
    assert len(targets) == 18
    assert all(e[1] == rg.common for e in targets)
    item_vertices = {v for ids in rg.item_ids for v in ids}
    assert {e[0] for e in targets} == item_vertices

    assert rg.anchor_edges() == {(0, 51): 0, (1, 51): 1, (2, 51): 2}
    assert [rg.covering_sets(i) for i in range(3)] == [[0], [0, 1], [1, 2]]


def test_reduction_k3_vertex_count_formula():
    for seed in range(12):
        inst = gen_random_setcover(2 + seed % 3, 2 + seed % 4, seed=seed)
        rg = build_setcover_k3(inst)
        nx, nf = inst.universe_size, len(inst.sets)
        want = nf + 2 * nx * nx + 1 + sum(2 * nx * len(s) for s in inst.sets)
        assert rg.graph.n == want
        assert rg.graph.is_connected()
        for e in rg.anchor_edges():
            assert not rg.graph.has_edge(*e)
        for i in range(nx):
            assert rg.covering_sets(i) == [j for j, s in enumerate(inst.sets) if i in s]


def test_micro_instance_reduction_k3():
    rg = build_setcover_k3(MICRO)
    assert rg.graph.n == 6 and rg.graph.m == 8
    assert unsaturated_item_targets(rg) == [(1, 5), (2, 5)]


def test_figure_instance_reduction_k4_and_k5():
    rg4 = build_setcover_k(FIG, 4)
    assert rg4.graph.n == 59 and rg4.graph.m == 141
    assert unsaturated_item_targets(rg4) == [(0, 1), (2, 3), (4, 5)]
    assert rg4.item_ids == ((0, 1), (2, 3), (4, 5))

    rg5 = build_setcover_k(FIG, 5)
    assert rg5.graph.n == 133 and rg5.graph.m == 393
    assert unsaturated_item_targets(rg5) == [(0, 1), (2, 3), (4, 5)]

    with pytest.raises(InputError):
        build_setcover_k(FIG, 3)


def test_reduction_k4_set_subgraph_misses_one_edge():
    rg = build_setcover_k(MICRO, 4)
    s1, s2 = rg.set_ids[0]
    assert not rg.graph.has_edge(s1, s2)
    assert rg.anchor_edge(0) == (s1, s2)
    # triangle vertices of the item edge are exactly the covering subgraph's
    assert common_neighbours(rg.graph, *rg.item_ids[0]) == [s1, s2]


def test_reduction_k_item_edge_triangles_stay_inside_covering_sets():
    for seed in range(8):
        inst = gen_random_setcover(2, 3, seed=seed)
        for k in (4, 5):
            rg = build_setcover_k(inst, k)
            for i, item in enumerate(rg.item_ids):
                allowed = {v for j in rg.covering_sets(i) for v in rg.set_ids[j]}
                assert set(common_neighbours(rg.graph, *item)) <= allowed


def test_goodify_3_keeps_good_completions():
    rg = build_setcover_k3(FIG)
    good = completion_from_cover(rg, [0, 1])
    assert set(goodify_3(rg, good)) == set(good)


def test_goodify_3_random_completions():
    spec = CoverSpec(3, 1)
    rng = random.Random(5)
    for seed in range(10):
        inst = gen_random_setcover(2 + seed % 2, 2 + seed % 3, seed=seed)
        rg = build_setcover_k3(inst)
        c = pad_with_decoys(rg, completion_from_cover(rg, random_cover(inst, rng)), rng, spec)
        assert validate_completion(rg.graph, c, spec).ok
        out = goodify_3(rg, c)
        assert len(out) <= len(c)
        assert set(out) <= set(rg.anchor_edges())
        assert validate_completion(rg.graph, out, spec).ok
        cover = extract_set_cover(rg, out)
        assert set().union(*(inst.sets[j] for j in cover)) == set(range(inst.universe_size))


def test_goodify_3_rejects_invalid_input():
    rg = build_setcover_k3(MICRO)
    with pytest.raises(InputError):
        goodify_3(rg, CompletionSet([]))


def test_goodify_k_micro_aux_completion():
    rg = build_setcover_k(MICRO, 4)
    x1, x2 = rg.item_ids[0]
    aux = next(
        v
        for v in range(rg.graph.n)
        if rg.roles[v].kind == "aux"
        and rg.graph.has_edge(x1, v)
        and not rg.graph.has_edge(x2, v)
    )
    c = CompletionSet([(x2, aux)])
    assert validate_completion(rg.graph, c, CoverSpec(4, 1)).ok
    out = goodify_k(rg, c, 4)
    assert list(out) == [rg.anchor_edge(0)]
    assert extract_set_cover(rg, out) == [0]


def test_goodify_k_random_completions():
    rng = random.Random(9)
    for seed in range(8):
        inst = gen_random_setcover(2, 2 + seed % 3, seed=seed)
        for k in (4, 5):
            spec = CoverSpec(k, 1)
            rg = build_setcover_k(inst, k)
            base = completion_from_cover(rg, random_cover(inst, rng))
            c = pad_with_decoys(rg, base, rng, spec)
            assert validate_completion(rg.graph, c, spec).ok
            out = goodify_k(rg, c, k)
            assert len(out) <= len(c)
            assert set(out) <= set(rg.anchor_edges())
            assert validate_completion(rg.graph, out, spec).ok
            cover = extract_set_cover(rg, out)
            assert set().union(*(inst.sets[j] for j in cover)) == set(
                range(inst.universe_size)
            )


def test_goodify_k_rejects_mismatched_k():
    rg = build_setcover_k(MICRO, 4)
    good = completion_from_cover(rg, [0])
    with pytest.raises(InputError):
        goodify_k(rg, good, 5)
    with pytest.raises(InputError):
        goodify_k(rg, good, 3)
    rg3 = build_setcover_k3(MICRO)
    with pytest.raises(InputError):
        goodify_k(rg3, completion_from_cover(rg3, [0]), 3)


def test_extract_set_cover_round_trip():
    rg = build_setcover_k3(FIG)
    assert extract_set_cover(rg, completion_from_cover(rg, [0, 1])) == [0, 1]
    assert extract_set_cover(rg, completion_from_cover(rg, [0, 1, 2])) == [0, 1, 2]
    with pytest.raises(InputError):
        extract_set_cover(rg, CompletionSet([(3, 4)]))  # not an anchor edge
    with pytest.raises(InputError):
        extract_set_cover(rg, completion_from_cover(rg, [0]))  # item 2 uncovered


def test_completion_from_cover():
    rg = build_setcover_k3(FIG)
    c = completion_from_cover(rg, [0, 1])
    assert set(c) == {(0, 51), (1, 51)}
    assert validate_completion(rg.graph, c, CoverSpec(3, 1)).ok
    with pytest.raises(InputError):
        completion_from_cover(rg, [2])  # leaves item 0 uncovered
    with pytest.raises(InputError):
        completion_from_cover(rg, [0, 3])

    rg4 = build_setcover_k(MICRO, 4)
    c4 = completion_from_cover(rg4, [0])
    assert list(c4) == [rg4.anchor_edge(0)]
    assert validate_completion(rg4.graph, c4, CoverSpec(4, 1)).ok


def test_roles_partition_all_reduction_vertices():
    for rg in (build_setcover_k3(FIG), build_setcover_k(FIG, 4)):
        assert len(rg.roles) == rg.graph.n
        assert {r.kind for r in rg.roles} <= {
            "set", "item", "aux", "common", "set-subgraph", "item-endpoint",
        }


def test_from_roles_round_trip():
    for rg in (build_setcover_k3(FIG), build_setcover_k(FIG, 5)):
        back = LabeledReductionGraph.from_roles(rg.graph, rg.roles, rg.k)
        assert back.set_ids == rg.set_ids
        assert back.item_ids == rg.item_ids
        assert back.common == rg.common


SPIDER_INST = ThreePartitionInstance(9, (3, 3, 3, 3, 3, 3))


def test_build_spider_layout():
    sp = build_spider(SPIDER_INST)
    assert sp == spider_graph(SPIDER_INST.values)
    assert sp.n == 19 and sp.m == 18
    assert spider_leg_vertices(SPIDER_INST, 0) == [1, 2, 3]
    assert spider_leg_vertices(SPIDER_INST, 3) == [10, 11, 12]
    assert spider_leg_edges(SPIDER_INST, 0) == [(0, 1), (1, 2), (2, 3)]


def test_completion_from_partition():
    sp = build_spider(SPIDER_INST)
    c = completion_from_partition(SPIDER_INST, sp, [(0, 1, 2), (3, 4, 5)])
    assert len(c) == 2 * 9 * 8 // 2
    assert validate_completion(sp, c, CoverSpec(10, 1)).ok

    one = ThreePartitionInstance(9, (3, 3, 3))
    c1 = completion_from_partition(one, build_spider(one), [(0, 1, 2)])
    assert len(c1) == 9 * 8 // 2
    assert validate_completion(build_spider(one), c1, CoverSpec(10, 1)).ok


def test_completion_from_partition_rejects_bad_partitions():
    sp = build_spider(SPIDER_INST)
    with pytest.raises(InputError):
        completion_from_partition(SPIDER_INST, sp, [(0, 1, 2), (3, 4, 4)])
    with pytest.raises(InputError):
        completion_from_partition(SPIDER_INST, sp, [(0, 1, 2)])
    with pytest.raises(InputError):
        completion_from_partition(SPIDER_INST, spider_graph([2, 2]), [(0, 1, 2), (3, 4, 5)])
    # unequal leg lengths make a wrong-sum triple possible
    skew = ThreePartitionInstance(10, (3, 3, 4, 3, 3, 4))
    with pytest.raises(InputError):
        completion_from_partition(skew, build_spider(skew), [(0, 1, 3), (2, 4, 5)])


def _leg_group(triple: tuple[int, int, int]) -> list[tuple[int, int]]:
    return [e for leg in triple for e in spider_leg_edges(SPIDER_INST, leg)]


def test_partition_from_edge_partition_round_trip():
    sp = build_spider(SPIDER_INST)
    groups = [_leg_group((0, 2, 4)), _leg_group((1, 3, 5))]
    assert partition_from_edge_partition(SPIDER_INST, sp, groups) == [
        (0, 2, 4),
        (1, 3, 5),
    ]


def test_partition_from_edge_partition_rejects_bad_groups():
    sp = build_spider(SPIDER_INST)
    whole = _leg_group((0, 1, 2)) + _leg_group((3, 4, 5))
    # splits a leg between groups
    broken = [whole[:9], whole[9:]]
    broken[0][8], broken[1][0] = broken[1][0], broken[0][8]
    with pytest.raises(InputError):
        partition_from_edge_partition(SPIDER_INST, sp, broken)
    # missing edges
    with pytest.raises(InputError):
        partition_from_edge_partition(SPIDER_INST, sp, [_leg_group((0, 1, 2))])
    # duplicate edges across groups
    with pytest.raises(InputError):
        partition_from_edge_partition(
            SPIDER_INST, sp, [_leg_group((0, 1, 2)), _leg_group((0, 4, 5))]
        )
    # a group-size violation: whole legs but the wrong number of edges
    skew = ThreePartitionInstance(10, (3, 3, 4, 3, 3, 4))
    bad = [
        [e for leg in (0, 1, 3) for e in spider_leg_edges(skew, leg)],
        [e for leg in (2, 4, 5) for e in spider_leg_edges(skew, leg)],
    ]
    with pytest.raises(InputError):
        partition_from_edge_partition(skew, build_spider(skew), bad)


def _three_partition_map_outputs():
    """Both 3-PARTITION inverse maps on seeded yes-instances with shuffled
    leg numbering, plus their refusals of a swapped leg and a split leg."""
    for p in range(1, 7):
        for s in range(9, 31, 3):
            for seed in range(2):
                base, witness = gen_random_3partition(p, s, seed)
                rng = random.Random(1000 * p + 10 * s + seed)
                pos = rng.sample(range(3 * p), 3 * p)  # old leg i becomes leg pos[i]
                values = [0] * (3 * p)
                for i, v in enumerate(base.values):
                    values[pos[i]] = v
                inst = ThreePartitionInstance(s, values)
                triples = [[pos[i] for i in t] for t in witness]
                sp = build_spider(inst)
                groups = [[e for leg in t for e in spider_leg_edges(inst, leg)] for t in triples]
                for group in groups:
                    rng.shuffle(group)
                rng.shuffle(groups)
                bad_triples = [list(t) for t in triples]
                bad_groups = [list(group) for group in groups]
                if p > 1:
                    bad_triples[0][0], bad_triples[1][0] = bad_triples[1][0], bad_triples[0][0]
                    bad_groups[0][0], bad_groups[1][0] = bad_groups[1][0], bad_groups[0][0]
                for partition in (triples, bad_triples):
                    try:
                        yield format_completion(completion_from_partition(inst, sp, partition))
                    except InputError as exc:
                        yield f"error: {exc}"
                for edge_groups in (groups, bad_groups):
                    try:
                        yield repr(partition_from_edge_partition(inst, sp, edge_groups))
                    except InputError as exc:
                        yield f"error: {exc}"


# sha256 of _three_partition_map_outputs, recorded when both maps recomputed
# each leg's vertex range per call; a rewrite must reproduce it exactly.
GOLDEN_3PARTITION_MAPS_SHA256 = "7acf203054745571dced221208bf7cfa767a7dab022c25d4646566e56d369371"


def test_three_partition_maps_golden_hash():
    h = hashlib.sha256()
    for out in _three_partition_map_outputs():
        h.update(out.encode() + b"\n")
    assert h.hexdigest() == GOLDEN_3PARTITION_MAPS_SHA256


def test_gen_random_setcover_is_valid_and_deterministic():
    a = gen_random_setcover(4, 5, seed=3)
    b = gen_random_setcover(4, 5, seed=3)
    assert a == b
    assert a.universe_size == 4 and len(a.sets) == 5
    assert all(a.sets)
    assert set().union(*a.sets) == {0, 1, 2, 3}
    assert gen_random_setcover(4, 5, seed=4) != a
