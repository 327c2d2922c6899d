"""Block structure: decomposition, pendants, and the structure tree."""

from __future__ import annotations

import random

import pytest

from bipartite_biconnect import BipartiteGraph, decompose, pendant_records
from bipartite_biconnect.blocks import (
    B_NODE,
    C_NODE,
    K_NODE,
    S_NODE,
    BlockTree,
    tree_to_dot,
)

from .helpers import (
    all_graphs,
    oracle_components,
    oracle_cut_vertices,
    oracle_nonsingular_blocks,
    oracle_pendants,
    oracle_split_count,
    path_between,
    pendant_kind,
    random_graph,
)


def small_corpus():
    for na, nb in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        yield from all_graphs(na, nb)
    rng = random.Random(77)
    for _ in range(150):
        yield random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.4)


def test_components_match_reference():
    for g in small_corpus():
        dec = decompose(g)
        assert dec.comps == oracle_components(g)


def test_cut_vertices_match_reference():
    for g in small_corpus():
        dec = decompose(g)
        assert {v for v in range(g.n) if dec.is_cut[v]} == oracle_cut_vertices(g)


def test_nonsingular_blocks_match_reference():
    for g in small_corpus():
        dec = decompose(g)
        mine = sorted(
            (frozenset(blk) for blk in dec.ns_blocks), key=sorted
        )
        assert mine == oracle_nonsingular_blocks(g)


def test_split_counts_match_reference():
    for g in small_corpus():
        dec = decompose(g)
        for v in range(g.n):
            assert dec.branch_count(v) == oracle_split_count(g, v), (
                g.edges,
                g.labels[v],
            )


def test_pendants_match_reference():
    for g in small_corpus():
        dec = decompose(g)
        mine = sorted(
            (pendant_kind(rec.ptype), rec.key, rec.ptype)
            for rec in pendant_records(g, dec)
        )
        theirs = sorted(
            (kind, min(members), ptype)
            for kind, members, ptype in oracle_pendants(g)
        )
        assert mine == theirs


def test_pendant_records_sorted_by_lowest_vertex(spider4):
    dec = decompose(spider4)
    recs = pendant_records(spider4, dec)
    keys = [rec.key for rec in recs]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# structure tree


def tree_of(g: BipartiteGraph, cid: int = 0) -> BlockTree:
    dec = decompose(g)
    return BlockTree.build(g, dec, dec.comps[cid])


def test_tree_leaves_are_exactly_the_pendants():
    for g in small_corpus():
        dec = decompose(g)
        recs = pendant_records(g, dec)
        by_comp: dict[int, list[tuple[str, int]]] = {}
        for rec in recs:
            by_comp.setdefault(rec.comp, []).append(
                (pendant_kind(rec.ptype), rec.key)
            )
        for cid, comp in enumerate(dec.comps):
            if len(comp) < 2:
                continue
            t = BlockTree.build(g, dec, comp)
            leaf_keys = sorted(
                (
                    "sv" if t.kind[x] == S_NODE else "ns",
                    min(t.payload[x].vertices()),
                )
                for x in t.leaves()
            )
            assert leaf_keys == sorted(by_comp.get(cid, []))


def test_cut_vertex_tree_degree_equals_split_count():
    for g in small_corpus():
        dec = decompose(g)
        for comp in dec.comps:
            if len(comp) < 2:
                continue
            t = BlockTree.build(g, dec, comp)
            for v in comp:
                if dec.is_cut[v]:
                    assert t.degree(t.c_node_of[v]) == dec.branch_count(v)


def test_bridge_nodes_have_degree_two():
    for g in small_corpus():
        dec = decompose(g)
        for comp in dec.comps:
            if len(comp) < 2:
                continue
            t = BlockTree.build(g, dec, comp)
            for x in t.live_nodes():
                if t.kind[x] == K_NODE:
                    assert t.degree(x) == 2


def test_tree_shape_on_path(p4):
    t = tree_of(p4)
    kinds = sorted(t.kind[x] for x in t.live_nodes())
    # three bridges, two cut vertices, two pendant vertices
    assert kinds == ["c", "c", "k", "k", "k", "s", "s"]
    assert len(t.leaves()) == 2


def test_tree_shape_on_cycle(c4):
    t = tree_of(c4)
    assert [t.kind[x] for x in t.live_nodes()] == [B_NODE]
    assert t.leaves() == []


def test_tree_roots_at_busiest_cut_vertex(spider4):
    t = tree_of(spider4)
    assert t.kind[t.root] == C_NODE
    hub = spider4.label_index["x"]
    assert t.payload[t.root] == hub


def test_collapse_merges_a_leaf_path(p4):
    t = tree_of(p4)
    leaves = sorted(t.leaves())
    path = path_between(t, leaves[0], leaves[1])
    before = len(t.live_nodes())
    info = t.collapse(path)
    assert t.kind[info.y] == B_NODE
    assert len(t.live_nodes()) < before
    # the whole path melted into one block, nothing else was live
    assert [t.kind[x] for x in t.live_nodes()] == [B_NODE]


def test_dot_export_mentions_every_vertex(p4):
    dot = tree_to_dot(p4)
    for lab in p4.labels:
        assert lab in dot
    assert dot.startswith("graph blocktree {")
    assert "shape=circle" in dot and "shape=diamond" in dot


def test_dot_export_is_deterministic(spider4):
    assert tree_to_dot(spider4) == tree_to_dot(spider4)
