"""Incremental structure-tree index: codes, buckets, degree groups.

Every mutating operation is followed by audit(), which rebuilds the
index from the live tree and compares field by field, so these tests
pin the incremental bookkeeping to the from-scratch semantics.
"""

from __future__ import annotations

import random

import pytest

from bipartite_biconnect import BipartiteGraph, decompose, pendant_records
from bipartite_biconnect.blocks import C_NODE, BlockTree
from bipartite_biconnect.bounds import eta_extended
from bipartite_biconnect.graph import caterpillar_graph, spider_graph
from bipartite_biconnect.matching import counts_of
from bipartite_biconnect.treeindex import AugTreeIndex

from .helpers import all_graphs, path_between, random_graph


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
        for comp in dec.comps:
            if len(comp) < 2:
                continue
            if not any(dec.is_cut[v] for v in comp):
                continue
            yield g, dec, BlockTree.build(g, dec, comp)


def test_fresh_index_is_self_consistent():
    for _, _, tree in needy_trees():
        AugTreeIndex(tree).audit()


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
        max_d = max(dec.branch_count(v) for v in comp)
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


def test_reroot_walk_keeps_the_index_consistent():
    rng = random.Random(8)
    for _, _, tree in needy_trees():
        index = AugTreeIndex(tree)
        live = tree.live_nodes()
        for _ in range(3):
            target = rng.choice(live)
            index.reroot_walk(target)
            assert tree.root == target
            index.audit()


def test_rebuild_reaches_any_root():
    rng = random.Random(9)
    for _, _, tree in needy_trees():
        index = AugTreeIndex(tree)
        target = rng.choice(tree.live_nodes())
        index.rebuild(target)
        assert tree.root == target
        index.audit()


def test_collapse_update_matches_fresh_build():
    # collapse any leaf pair as long as a third leaf keeps the tree
    # alive, which is the only regime the solver collapses in
    rng = random.Random(10)
    for _, _, tree in needy_trees():
        index = AugTreeIndex(tree)
        for _ in range(4):
            leaves = sorted(tree.leaves())
            if len(leaves) < 3:
                break
            n1, n2 = rng.sample(leaves, 2)
            path = path_between(tree, n1, n2)
            info = tree.collapse(path)
            index.update_after_collapse(info)
            index.audit()


def test_chain_queries_on_spider():
    g = spider_graph([1, 1, 2, 2])
    dec = decompose(g)
    tree = BlockTree.build(g, dec, dec.comps[0])
    index = AugTreeIndex(tree)
    assert tree.kind[tree.root] == C_NODE
    assert tree.payload[tree.root] == g.label_index["x"]
    # two length-one legs are chain children, the longer legs branch off
    chains = [ch for ch in tree.children[tree.root] if not index.code[ch] & 8]
    assert len(chains) >= 2
    assert index.massive_node() == tree.root


def test_choose_root_keeps_a_busy_root():
    g = spider_graph([2, 2, 2])
    dec = decompose(g)
    tree = BlockTree.build(g, dec, dec.comps[0])
    index = AugTreeIndex(tree)
    action, node = index.choose_root()
    assert action == "keep"
    assert node == tree.root


def test_find_pair_descents_start_at_root():
    g = caterpillar_graph(10)
    dec = decompose(g)
    tree = BlockTree.build(g, dec, dec.comps[0])
    index = AugTreeIndex(tree)
    action, node = index.choose_root()
    if action == "walk":
        index.reroot_walk(node)
    elif action == "rebuild":
        index.rebuild(node)
    d1, d2 = index.find_pair()
    assert tree.parent[d1[0]] == tree.root
    assert tree.parent[d2[0]] == tree.root
    assert tree.leaf_type(d1[-1]) is not None
    assert tree.leaf_type(d2[-1]) is not None


def test_descend_returns_a_path_to_the_right_type():
    for _, _, tree in needy_trees():
        index = AugTreeIndex(tree)
        root_children = sorted(tree.children[tree.root])
        for child in root_children:
            for ptype in ("A", "B", "AB"):
                code_bit = {"A": 4, "B": 2, "AB": 1}[ptype]
                if not index.code[child] & code_bit:
                    continue
                path = index.descend(child, ptype)
                assert path[0] == child
                assert tree.leaf_type(path[-1]) == ptype
                for a, b in zip(path, path[1:]):
                    assert tree.parent[b] == a
                break
