"""Incremental structure-tree index: codes, buckets, degree groups.

Every mutating operation is followed by audit_index (tests/helpers),
which checks the tree against a pass over its parent links and the
index against one built fresh from the live tree, field by field, so
these tests pin the incremental bookkeeping to the from-scratch
semantics.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from bipartite_biconnect import (
    InvariantViolation,
    decompose,
    pendant_records,
)
from bipartite_biconnect.blocks import C_NODE, BlockTree
from bipartite_biconnect.graph import caterpillar_graph, generate_instance, spider_graph
from bipartite_biconnect.matching import AB, A, B, counts_of
from bipartite_biconnect.stats import OpCounters
from bipartite_biconnect.treeindex import AugTreeIndex

from .helpers import (
    a_paths_graph,
    all_graphs,
    audit_index,
    collapse_between,
    mixed_graph,
    one_side_hub_graph,
    pair_searches_checked_augment,
    random_graph,
    uniform_spider_graph,
)


def needy_trees():
    """(graph, tree) for every component with pendants in the corpus."""
    rng = random.Random(4242)
    graphs = []
    for na, nb in [(2, 2), (2, 3), (3, 3)]:
        graphs.extend(all_graphs(na, nb))
    for _ in range(120):
        graphs.append(random_graph(rng, rng.randint(2, 6), rng.randint(2, 6), 0.3))
    graphs.append(spider_graph([1, 1, 2, 2]))
    graphs.append(spider_graph([1, 2, 3, 1, 2]))
    graphs.append(caterpillar_graph(12))
    for g in graphs:
        dec = decompose(g)
        for cid, comp in enumerate(dec.comps):
            if len(comp) < 2:
                continue
            if all(dec.branches[v] < 2 for v in comp):
                continue
            yield g, dec, BlockTree.build(g, dec.branches, *dec.component(cid))


def test_fresh_index_is_self_consistent():
    for _, _, tree in needy_trees():
        audit_index(AugTreeIndex(tree))


def test_leaf_counts_match_pendant_records():
    for g, dec, tree in needy_trees():
        index = AugTreeIndex(tree)
        anchor = next(
            tree.payload[x]
            for x in tree.live_nodes()
            if tree.kind[x] == C_NODE
        )
        cid = dec.comp_id[anchor]
        types = [p.ptype for p in pendant_records(g, dec) if p.comp == cid]
        assert index.counts() == counts_of(types)


def test_max_degree_and_eta_match_the_decomposition():
    for g, dec, tree in needy_trees():
        index = AugTreeIndex(tree)
        anchor = next(
            tree.payload[x]
            for x in tree.live_nodes()
            if tree.kind[x] == C_NODE
        )
        comp = dec.comps[dec.comp_id[anchor]]
        max_d = max(dec.branches[v] for v in comp)
        assert index.max_cdeg == max_d
        assert index.eta_now() == max(max_d - 1, index.m_plus_r(), 0)


def test_cut_degree_groups_track_tree_degrees():
    for _, _, tree in needy_trees():
        index = AugTreeIndex(tree)
        for x in tree.live_nodes():
            if tree.kind[x] == C_NODE:
                d = tree.degree(x)
                group = index.grp_head[d]
                members = []
                cur = group
                while cur != -1:
                    members.append(cur)
                    cur = index.gnext[cur]
                assert x in members


def collapse_leaf_pairs(tree, index, rng, steps: int) -> None:
    """Collapse up to steps random leaf pairs, each while a third leaf
    keeps the tree alive, the only regime the solver collapses in."""
    for _ in range(steps):
        leaves = sorted(tree.leaves())
        if len(leaves) < 3:
            return
        n1, n2 = rng.sample(leaves, 2)
        info = collapse_between(tree, n1, n2)
        index.update_after_collapse(info, tree.leaf_type(n1), tree.leaf_type(n2))


def has_stale_parent(tree) -> bool:
    """Does a live node point at a retired parent that up() resolves?"""
    return any(
        tree.parent[x] != -1 and not tree.alive[tree.parent[x]]
        for x in tree.live_nodes()
    )


def live_edges(tree) -> set[frozenset[int]]:
    """The tree's edges, read without up(), whose path compression
    would take the stale parent pointers away before the re-root."""
    edges = set()
    for x in tree.live_nodes():
        p = tree.parent[x]
        while p != -1 and not tree.alive[p]:
            p = tree.parent[p]
        if p != -1:
            edges.add(frozenset((x, p)))
    return edges


def test_reroot_walk_keeps_the_index_consistent():
    # on fresh trees, then after collapses have left stale parent pointers
    rng = random.Random(8)
    stale = 0
    for collapses in (0, 2):
        for _, _, tree in needy_trees():
            index = AugTreeIndex(tree)
            collapse_leaf_pairs(tree, index, rng, collapses)
            stale += has_stale_parent(tree)
            edges = live_edges(tree)
            live = tree.live_nodes()
            for _ in range(3):
                target = rng.choice(live)
                index.reroot_walk(target)
                assert tree.root == target
                assert live_edges(tree) == edges
                audit_index(index)
    assert stale > 0


def test_collapse_update_matches_fresh_build():
    # collapse any leaf pair as long as a third leaf keeps the tree
    # alive, which is the only regime the solver collapses in
    rng = random.Random(10)
    moved = 0
    for _, _, tree in needy_trees():
        index = AugTreeIndex(tree)
        for _ in range(4):
            leaves = sorted(tree.leaves())
            if len(leaves) < 3:
                break
            n1, n2 = rng.sample(leaves, 2)
            counters = OpCounters()
            info = collapse_between(tree, n1, n2, counters)
            # the counter sees the retired nodes and every child moved
            # one by one; the adopted node's children are not moved
            assert counters.collapse_steps == len(info.absorbed) + len(info.moved)
            assert not set(info.moved) & set(info.path)
            moved += len(info.moved)
            index.update_after_collapse(info, tree.leaf_type(n1), tree.leaf_type(n2))
            audit_index(index)
    # the corpus exercises collapses that move children
    assert moved > 0


def test_chain_queries_on_spider():
    g = spider_graph([1, 1, 2, 2])
    dec = decompose(g)
    tree = BlockTree.build(g, dec.branches, *dec.component(0))
    index = AugTreeIndex(tree)
    assert tree.kind[tree.root] == C_NODE
    assert tree.payload[tree.root] == g.label_index["x"]
    # two length-one legs are chain children, the longer legs branch off
    chains = [ch for ch in tree.kids(tree.root) if not tree.code[ch] & 8]
    assert len(chains) >= 2
    assert index.massive_node() == tree.root


def test_choose_root_keeps_a_busy_root():
    g = spider_graph([2, 2, 2])
    dec = decompose(g)
    tree = BlockTree.build(g, dec.branches, *dec.component(0))
    index = AugTreeIndex(tree)
    assert index.choose_root() == tree.root


def test_find_pair_descents_start_at_root():
    g = caterpillar_graph(10)
    dec = decompose(g)
    tree = BlockTree.build(g, dec.branches, *dec.component(0))
    index = AugTreeIndex(tree)
    node = index.choose_root()
    if node != tree.root:
        index.reroot_walk(node)
    d1, d2, t1, t2 = index.find_pair()
    assert tree.up(d1[0]) == tree.root
    assert tree.up(d2[0]) == tree.root
    assert tree.leaf_type(d1[-1]) == t1
    assert tree.leaf_type(d2[-1]) == t2


def test_descend_returns_a_path_to_the_right_type():
    for _, _, tree in needy_trees():
        index = AugTreeIndex(tree)
        root_children = sorted(tree.kids(tree.root))
        for child in root_children:
            for ptype in (A, B, AB):
                code_bit = {A: 4, B: 2, AB: 1}[ptype]
                if not tree.code[child] & code_bit:
                    continue
                path = index.descend(child, ptype)
                assert path[0] == child
                assert tree.leaf_type(path[-1]) == ptype
                for a, b in zip(path, path[1:]):
                    assert tree.up(b) == a
                break


def test_descend_to_a_missing_type_raises():
    # every leg of this spider ends in an A or a B pendant, none in AB; a
    # descent toward AB must fail, also under python -O, rather than
    # return a path into a node that does not exist
    g = spider_graph([1, 1, 2, 2])
    dec = decompose(g)
    tree = BlockTree.build(g, dec.branches, *dec.component(0))
    index = AugTreeIndex(tree)
    for kid in sorted(tree.kids(tree.root)):
        assert not tree.code[kid] & 1
        with pytest.raises(InvariantViolation, match=f"subtree of {kid} lost type"):
            index.descend(kid, AB)


def _uniform_spider_at_its_hub():
    """The index of uniform_spider_graph(6), rooted at its hub: case S2,
    six A pendants, so no two pendants anywhere may be joined."""
    g = uniform_spider_graph(6)
    dec = decompose(g)
    tree = BlockTree.build(g, dec.branches, *dec.component(0))
    index = AugTreeIndex(tree)
    hub = next(x for x in tree.live_nodes() if tree.kind[x] == C_NODE and tree.payload[x] == 0)
    if tree.root != hub:
        index.reroot_walk(hub)
    assert index.counts() == (6, 0, 0) and index.s_case() == "S2"
    return index


def test_find_pair_with_no_pair_raises():
    # a plain raise, so python -O keeps it
    with pytest.raises(InvariantViolation, match="no pairable pendants"):
        _uniform_spider_at_its_hub().find_pair()


def test_hub_step_pair_with_no_pair_raises():
    with pytest.raises(InvariantViolation, match="no pairable pendants"):
        _uniform_spider_at_its_hub().hub_step_pair()


def test_pair_searches_match_the_reference_at_every_step():
    # the one bucket search of find_pair and hub_step_pair returns what
    # the two searches it replaced returned, descents and types alike,
    # at every S4_2 and S5 step
    graphs = [
        generate_instance(kind, n, seed=seed)
        for kind in ("spider", "broom", "caterpillar", "random")
        for n in (12, 60, 300, 2000)
        for seed in (0, 1)
    ]
    graphs += [uniform_spider_graph(k) for k in (2, 6, 50)]
    graphs += [a_paths_graph(k) for k in (2, 6, 50)]
    rng = random.Random(2828)
    for _ in range(1200):
        n = rng.randint(4, 40)
        graphs.append(mixed_graph(rng, n, rng.random(), rng.randint(0, n // 3)))
    for _ in range(300):
        graphs.append(one_side_hub_graph(rng, rng.randint(3, 8), rng.randint(1, 4)))
    total: Counter = Counter()
    for g in graphs:
        res, checked = pair_searches_checked_augment(g)
        assert res.size == res.target
        total += checked
    # both searches ran, and the hub step found partners both among the
    # chains and in branches with more than one pendant
    assert total["find_pair", False] + total["find_pair", True] > 1000
    assert total["hub_step_pair", False] > 1000 and total["hub_step_pair", True] > 10
