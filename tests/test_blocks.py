"""Block structure: decomposition, pendants, and the structure tree."""

from __future__ import annotations

import dataclasses
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bipartite_biconnect import (
    BipartiteGraph,
    InvariantViolation,
    NoBiconnector,
    add_edges,
    augment,
    decompose,
    pendant_records,
)
from bipartite_biconnect.blocks import (
    B_NODE,
    C_NODE,
    K_NODE,
    S_NODE,
    BlockTree,
    Decomposition,
    tree_to_dot,
)
from bipartite_biconnect.graph import caterpillar_graph, parse_graph, spider_graph
from bipartite_biconnect.matching import AB, A, B
from bipartite_biconnect.stats import OpCounters

from .helpers import (
    all_graphs,
    collapse_between,
    flower_graph,
    mixed_graph,
    oracle_bridges,
    oracle_components,
    oracle_cut_vertices,
    oracle_nonsingular_blocks,
    oracle_pendants,
    oracle_split_count,
    path_graph,
    pendant_kind,
    random_graph,
    ref_build,
    ref_pendant_records,
    setup_corpus,
    tree_state,
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
        assert {v for v in range(g.n) if dec.branches[v] >= 2} == oracle_cut_vertices(g)


def test_nonsingular_blocks_match_reference():
    for g in small_corpus():
        dec = decompose(g)
        mine = sorted(
            (frozenset(blk) for blk in dec.ns_blocks), key=sorted
        )
        assert mine == oracle_nonsingular_blocks(g)


def shuffled_union(
    graphs: list[BipartiteGraph], rng: random.Random, keep_order: bool = False
) -> BipartiteGraph:
    """Disjoint union of graphs, with the vertex ids of all of them mixed;
    with keep_order each graph's own vertices keep their order."""
    verts = [(i, v) for i, h in enumerate(graphs) for v in range(h.n)]
    rng.shuffle(verts)
    if keep_order:
        taken = [0] * len(graphs)
        for x, (i, _) in enumerate(verts):
            verts[x] = (i, taken[i])
            taken[i] += 1
    where = {iv: x for x, iv in enumerate(verts)}
    return BipartiteGraph(
        [f"g{i}{graphs[i].labels[v]}" for i, v in verts],
        [graphs[i].sides[v] for i, v in verts],
        [(where[i, u], where[i, v]) for i, h in enumerate(graphs) for u, v in h.edges],
    )


def test_component_slices_partition_blocks_and_bridges():
    # each component's blocks and bridges are one sorted run of the flat
    # lists, and the runs together are the reference blocks and bridges
    rng = random.Random(78)
    unions = [
        shuffled_union([mixed_graph(rng, 7, 1.0, 2) for _ in range(3)], rng)
        for _ in range(40)
    ]
    regrouped = 0
    for g in [*small_corpus(), *unions]:
        dec = decompose(g)
        regrouped += dec.ns_blocks != sorted(dec.ns_blocks)
        n_comps = len(dec.comps)
        assert len(dec.block_starts) == len(dec.bridge_starts) == n_comps + 1
        assert dec.block_starts[-1] == len(dec.ns_blocks)
        assert dec.bridge_starts[-1] == len(dec.cut_edges)
        blocks, bridges = [], []
        for cid in range(n_comps):
            members, own_blocks, own_bridges = dec.component(cid)
            assert members == dec.comps[cid]
            assert own_blocks == sorted(own_blocks)
            assert own_bridges == sorted(own_bridges)
            assert all(dec.comp_id[v] == cid for blk in own_blocks for v in blk)
            assert all(dec.comp_id[v] == cid for e in own_bridges for v in e)
            blocks += own_blocks
            bridges += own_bridges
        assert sorted(map(frozenset, blocks), key=sorted) == oracle_nonsingular_blocks(g)
        assert sorted(bridges) == oracle_bridges(g)
    # in some graphs the grouping by component is not the global order
    assert regrouped > 0


def join_inputs(rng: random.Random):
    """(kind, graph) pairs of several components that need work: forests
    with a few cycles, flowers, or lone edges and paths, mixed with
    finished blocks and lone vertices."""
    c4 = BipartiteGraph(
        ["a1", "b1", "a2", "b2"], [0, 1, 0, 1], [(0, 1), (2, 1), (2, 3), (0, 3)]
    )
    lone = BipartiteGraph(["a1"], [0], [])
    for i in range(2_700):
        kind = ("mixed", "flowers", "paths")[i % 3]
        if kind == "mixed":
            pieces = [
                mixed_graph(
                    rng, rng.randint(5, 14), rng.choice((0.6, 0.8, 1.0)), rng.randint(0, 3)
                )
                for _ in range(rng.randint(1, 3))
            ]
        elif kind == "flowers":
            pieces = [
                flower_graph(rng, rng.randint(1, 3), rng.randint(0, 3))
                for _ in range(rng.randint(2, 4))
            ]
        else:
            pieces = [
                path_graph(rng.randint(2, 7), rng.randrange(2))
                for _ in range(rng.randint(2, 5))
            ]
        pieces += rng.choice([[], [c4], [lone], [c4, lone], [path_graph(2, 0)]])
        # a flower's hub stays the lowest vertex of its petals
        yield kind, shuffled_union(pieces, rng, keep_order=kind == "flowers")


def test_join_matches_decomposing_the_bridged_graph(monkeypatch):
    # the bridge loop's join hands the tree solver what a decomposition
    # of the bridged graph would: every vertex's branches and the merged
    # component's members, blocks and bridges; and it leaves the
    # decomposition it reads as decompose() made it
    joins = []
    real_join = Decomposition.join

    def join(dec, comps, bridges):
        out = real_join(dec, comps, bridges)
        joins.append((dec, bridges[:], out))
        return out

    monkeypatch.setattr(Decomposition, "join", join)
    rng = random.Random(79)
    joined = {"mixed": 0, "flowers": 0, "paths": 0}
    key_ties = 0
    for kind, g in join_inputs(rng):
        joins.clear()
        try:
            augment(g)
        except NoBiconnector:
            continue
        if not joins:
            continue
        ((dec, bridges, (branches, *parts)),) = joins
        ref = decompose(add_edges(g, bridges))
        assert parts == list(ref.component(ref.comp_id[parts[0][0]]))
        assert branches == ref.branches
        assert dec == decompose(g)
        joined[kind] += 1
        ptype, _, key, _, _ = pendant_records(g, dec)
        ab_keys = [k for t, k in zip(ptype, key) if t == AB]
        key_ties += len(set(ab_keys)) < len(ab_keys)
    assert sum(joined.values()) >= 2_000, joined
    assert min(joined.values()) >= 400, joined
    assert key_ties >= 100


def three_paths() -> BipartiteGraph:
    """Components 0 and 1 are paths a-b-a, whose b is a cut vertex;
    component 2 is a lone edge."""
    labels = ["a1", "b1", "a2", "a3", "b2", "a4", "a5", "b3"]
    sides = [0, 1, 0, 0, 1, 0, 0, 1]
    return BipartiteGraph(labels, sides, [(0, 1), (2, 1), (3, 4), (5, 4), (6, 7)])


@pytest.mark.parametrize("bridges", [[], [(0, 4), (2, 4)]])
def test_join_with_a_bridge_count_off_raises(bridges):
    g = three_paths()
    dec = decompose(g)
    with pytest.raises(InvariantViolation, match="join needs a bridge per component"):
        dec.join([0, 1], bridges)
    assert dec == decompose(g)


@pytest.mark.parametrize("end", [1, 7], ids=["cut vertex", "outside"])
def test_join_with_a_bridge_end_no_noncut_vertex_of_the_components_raises(end):
    # b1 is the cut vertex of component 0, b3 lies in component 2
    g = three_paths()
    dec = decompose(g)
    with pytest.raises(InvariantViolation, match=f"bridge end {end} is no noncut"):
        dec.join([0, 1], [(3, end)])
    assert dec == decompose(g)


def test_split_counts_match_reference():
    for g in small_corpus():
        dec = decompose(g)
        for v in range(g.n):
            assert dec.branches[v] == oracle_split_count(g, v), (
                g.edges,
                g.labels[v],
            )


def test_pendants_match_reference():
    for g in small_corpus():
        dec = decompose(g)
        ptype, _, key, _, _ = pendant_records(g, dec)
        mine = sorted((pendant_kind(t), k, t) for t, k in zip(ptype, key))
        theirs = sorted(
            (kind, min(members), ptype)
            for kind, members, ptype in oracle_pendants(g)
        )
        assert mine == theirs


def test_pendant_records_sorted_by_lowest_vertex(spider4):
    dec = decompose(spider4)
    keys = pendant_records(spider4, dec)[2]
    assert keys == sorted(keys)


def test_pendant_records_break_a_shared_key_by_sorted_block_order():
    # two four-cycles meet at the cut vertex 0, the smallest vertex of
    # both, and the DFS meets (0, 3, 4, 6) first, as 3 is 0's lowest
    # neighbour on a cycle; sorted block order puts (0, 2, 5, 7) first.
    # B and A pendants, on 0 and on the cut vertex 8, alternate by key
    sides = [0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0]
    edges = [(0, 5), (2, 5), (2, 7), (0, 7), (0, 3), (4, 3), (4, 6), (0, 6)]
    edges += [(0, 1), (0, 8), (9, 8), (11, 8), (0, 10)]
    g = BipartiteGraph([f"v{i}" for i in range(12)], sides, edges)
    dec = decompose(g)
    assert pendant_records(g, dec) == (
        [AB, AB, B, A, B, A],
        [0] * 6,
        [0, 0, 1, 9, 10, 11],
        [2, 4, -1, 9, -1, 11],
        [5, 3, 1, -1, 10, -1],
    )


def test_pendant_records_match_the_reference_on_the_setup_corpus():
    names = ("ptype", "comp", "key", "min_a", "min_b")
    for g in setup_corpus():
        dec = decompose(g)
        got = pendant_records(g, dec)
        recs = ref_pendant_records(g, dec)
        assert len(got) == len(names)
        for name, mine in zip(names, got):
            assert mine == [getattr(r, name) for r in recs], (name, g.labels)


# ----------------------------------------------------------------------
# structure tree


def tree_of(g: BipartiteGraph, cid: int = 0) -> BlockTree:
    dec = decompose(g)
    return BlockTree.build(g, dec.branches, *dec.component(cid))


def test_tree_leaves_are_exactly_the_pendants():
    for g in small_corpus():
        dec = decompose(g)
        ptype, comps, key, _, _ = pendant_records(g, dec)
        by_comp: dict[int, list[tuple[str, int]]] = {}
        for t, c, k in zip(ptype, comps, key):
            by_comp.setdefault(c, []).append((pendant_kind(t), k))
        for cid, comp in enumerate(dec.comps):
            if len(comp) < 2:
                continue
            t = BlockTree.build(g, dec.branches, *dec.component(cid))
            # a fresh tree's leaf payload is the pendant vertex or the
            # block's sorted vertex tuple
            leaf_keys = sorted(
                ("sv", t.payload[x]) if t.kind[x] == S_NODE else ("ns", t.payload[x][0])
                for x in t.leaves()
            )
            assert leaf_keys == sorted(by_comp.get(cid, []))


def test_build_matches_the_reference_build(monkeypatch):
    # every component of the corpus, then every tree a solve builds,
    # the components that bridges join included
    for g in setup_corpus():
        dec = decompose(g)
        for cid, comp in enumerate(dec.comps):
            if len(comp) < 2:
                continue
            parts = (g, dec.branches, *dec.component(cid))
            mine, theirs = OpCounters(), OpCounters()
            got = BlockTree.build(*parts, mine)
            assert tree_state(got) == tree_state(ref_build(*parts, theirs))
            assert mine == theirs
    real_build, real_join = BlockTree.build, Decomposition.join
    calls = {"build": 0, "join": 0}

    def build(g, branches, comp, blocks, bridges, counters=None):
        calls["build"] += 1
        t = real_build(g, branches, comp, blocks, bridges, counters)
        assert tree_state(t) == tree_state(ref_build(g, branches, comp, blocks, bridges))
        return t

    def join(dec, comps, bridges):
        calls["join"] += 1
        return real_join(dec, comps, bridges)

    monkeypatch.setattr(BlockTree, "build", staticmethod(build))
    monkeypatch.setattr(Decomposition, "join", join)
    for g in setup_corpus(max_gen=300):
        try:
            augment(g)
        except NoBiconnector:
            continue
    assert calls["build"] > calls["join"] >= 100, calls


def test_cut_vertex_tree_degree_equals_split_count():
    for g in small_corpus():
        dec = decompose(g)
        for cid, comp in enumerate(dec.comps):
            if len(comp) < 2:
                continue
            t = BlockTree.build(g, dec.branches, *dec.component(cid))
            cut_node = {t.payload[x]: x for x in t.live_nodes() if t.kind[x] == C_NODE}
            assert sorted(cut_node) == [v for v in comp if dec.branches[v] >= 2]
            for v, x in cut_node.items():
                assert t.degree(x) == dec.branches[v]


def test_bridge_nodes_have_degree_two():
    for g in small_corpus():
        dec = decompose(g)
        for cid, comp in enumerate(dec.comps):
            if len(comp) < 2:
                continue
            t = BlockTree.build(g, dec.branches, *dec.component(cid))
            for x in t.live_nodes():
                if t.kind[x] == K_NODE:
                    assert t.degree(x) == 2


class _CountingList(list):
    """A list that counts the items read from it."""

    reads = 0

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def __getitem__(self, i):
        out = super().__getitem__(i)
        self.reads += len(out) if isinstance(i, slice) else 1
        return out


def test_trees_of_many_components_read_each_record_boundedly():
    # 2,000 components, alternately a three vertex path (two bridges)
    # and a four cycle with a tail (one block, one bridge); a tree that
    # scanned every component's records would read each 2,000 times
    labels, sides, edges = [], [], []
    for i in range(2000):
        base = len(labels)
        size = 3 if i % 2 == 0 else 5
        for j in range(size):
            labels.append(f"{'ab'[j % 2]}{base + j}")
            sides.append(j % 2)
        if size == 3:
            edges += [(base, base + 1), (base + 2, base + 1)]
        else:
            edges += [(base, base + 1), (base, base + 3), (base + 2, base + 1)]
            edges += [(base + 2, base + 3), (base + 4, base + 3)]
    g = BipartiteGraph(labels, sides, edges)
    dec = decompose(g)
    dec = dataclasses.replace(
        dec, ns_blocks=_CountingList(dec.ns_blocks), cut_edges=_CountingList(dec.cut_edges)
    )
    assert len(dec.ns_blocks) == 1000 and len(dec.cut_edges) == 3000
    for cid in range(len(dec.comps)):
        BlockTree.build(g, dec.branches, *dec.component(cid))
    assert dec.ns_blocks.reads <= 2 * len(dec.ns_blocks)
    assert dec.cut_edges.reads <= 2 * len(dec.cut_edges)


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
    before = len(t.live_nodes())
    info = collapse_between(t, leaves[0], leaves[1])
    assert t.kind[info.y] == B_NODE
    assert len(t.live_nodes()) < before
    # the whole path melted into one block, nothing else was live
    assert [t.kind[x] for x in t.live_nodes()] == [B_NODE]
    # the absorbed cut vertex b1 is now the block's smallest B vertex
    ix = p4.label_index
    assert (t.min_a[info.y], t.min_b[info.y]) == (ix["a1"], ix["b1"])


def test_collapse_minima_skip_a_surviving_hub(spider4):
    t = tree_of(spider4)
    ix = spider4.label_index
    leaf_of = {t.payload[x]: x for x in t.leaves()}
    info = collapse_between(t, leaf_of[ix["a3"]], leaf_of[ix["b1"]])
    hub = next(x for x in info.path if t.kind[x] == C_NODE and t.payload[x] == ix["x"])
    assert info.survivors == [hub] and t.alive[hub]
    # the hub x has the smallest id but is still a cut vertex, so the A
    # minimum is the pendant a3; b1 beats the absorbed cut vertex b3
    assert ix["x"] < ix["a3"] and ix["b1"] < ix["b3"]
    assert (t.min_a[info.y], t.min_b[info.y]) == (ix["a3"], ix["b1"])


def live_parent(t: BlockTree, x: int) -> int:
    """x's live parent, read through retired nodes without up(), whose
    path compression would take the stale pointers away."""
    p = t.parent[x]
    while p != -1 and not t.alive[p]:
        p = t.parent[p]
    return p


def assert_buckets_from_scratch(t: BlockTree) -> None:
    """Every live node's code, bucket members, presence mask and child
    count equal what its parent links and node kinds alone give."""
    live = t.live_nodes()
    below: dict[int, list[int]] = {x: [] for x in live}
    for x in live:
        if x != t.root:
            below[live_parent(t, x)].append(x)
    order = [t.root]
    for x in order:
        order.extend(below[x])
    assert sorted(order) == live
    code: dict[int, int] = {}
    for x in reversed(order):
        if below[x]:
            code[x] = 8 if len(below[x]) >= 2 else 0
            for ch in below[x]:
                code[x] |= code[ch]
        elif t.kind[x] in (B_NODE, S_NODE):
            code[x] = {A: 4, B: 2, AB: 1}[t.leaf_type(x)]
        else:
            code[x] = 0
    for x in live:
        want: dict[int, set[int]] = {}
        for ch in below[x]:
            want.setdefault(code[ch], set()).add(ch)
        got: dict[int, set[int]] = {}
        for c in range(16):
            members = []
            ch = t.heads[t.base[x] + c]
            while ch != -1 and len(members) <= len(live):
                members.append(ch)
                ch = t.snext[ch]
            if members:
                assert len(set(members)) == len(members)
                got[c] = set(members)
        assert t.code[x] == code[x], x
        assert got == want, x
        assert t.present[x] == sum(1 << c for c in want), x
        assert t.nkids[x] == len(below[x]), x


def test_tree_keeps_codes_and_buckets_through_collapses_and_reroots():
    # the tree alone, with no index: random leaf pairs collapse while a
    # third leaf keeps the tree alive, and the root moves to random nodes
    rng = random.Random(15)
    graphs = list(small_corpus())
    graphs += [spider_graph([1, 1, 2, 2]), spider_graph([1, 2, 3, 1, 2])]
    graphs += [caterpillar_graph(12), caterpillar_graph(20)]
    graphs += [mixed_graph(rng, rng.randint(10, 24), 1.0, rng.randint(1, 4)) for _ in range(60)]
    collapses = moved = stale = 0
    for g in graphs:
        dec = decompose(g)
        for cid, comp in enumerate(dec.comps):
            if len(comp) < 2:
                continue
            t = BlockTree.build(g, dec.branches, *dec.component(cid))
            assert_buckets_from_scratch(t)
            for _ in range(4):
                leaves = sorted(t.leaves())
                if len(leaves) >= 3:
                    n1, n2 = rng.sample(leaves, 2)
                    info = collapse_between(t, n1, n2)
                    collapses += 1
                    moved += len(info.moved)
                    assert_buckets_from_scratch(t)
                stale += any(
                    t.parent[x] != -1 and not t.alive[t.parent[x]]
                    for x in t.live_nodes()
                )
                t.reroot(rng.choice(t.live_nodes()))
                assert_buckets_from_scratch(t)
    # the corpus moves children one by one and re-roots past retired nodes
    assert collapses > 100 and moved > 0 and stale > 0


def test_collapse_rejects_a_broken_path_under_python_O():
    # the tree invariants raise InvariantViolation rather than assert,
    # so an optimized interpreter still refuses a descent with a gap
    # and two descents through the same child of the root
    script = (
        "from bipartite_biconnect import InvariantViolation, decompose\n"
        "from bipartite_biconnect.blocks import BlockTree\n"
        "from bipartite_biconnect.graph import spider_graph\n"
        "g = spider_graph([1, 1, 1])\n"
        "dec = decompose(g)\n"
        "t = BlockTree.build(g, dec.branches, *dec.component(0))\n"
        "a, b = sorted(t.leaves())[:2]\n"
        "ka, kb = t.up(a), t.up(b)\n"
        "for d1, d2 in (([a], [kb, b]), ([ka, a], [ka, a])):\n"
        "    try:\n"
        "        t.collapse(d1, d2)\n"
        "    except InvariantViolation as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "collapse path must be a contiguous tree path\n"
        "collapse descents must start at two root children\n"
    )


def test_dot_export_mentions_every_vertex(p4):
    dot = tree_to_dot(p4)
    for lab in p4.labels:
        assert lab in dot
    assert dot.startswith("graph blocktree {")
    assert "shape=circle" in dot and "shape=diamond" in dot


def test_dot_export_escapes_quotes_and_backslashes():
    # a path a"1 - b1 - a\2 and a lone vertex b"2; each label is one DOT
    # quoted string, with its backslashes and quotes escaped
    g = parse_graph('A a"1 a\\2\nB b1 b"2\nE a"1 b1\nE a\\2 b1\n')
    dot = tree_to_dot(g)
    labels = re.findall(r'label=("(?:[^"\\]|\\.)*")\];\n', dot)
    assert len(labels) == dot.count("label=") == 6
    assert set(labels) == {
        r'"a\"1"',
        r'"a\\2"',
        r'"b1"',
        r'"a\"1 b1"',
        r'"a\\2 b1"',
        r'"b\"2"',
    }


def test_dot_export_is_deterministic(spider4):
    assert tree_to_dot(spider4) == tree_to_dot(spider4)
