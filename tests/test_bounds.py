"""Component census, criticality, the lower bound, and case labels."""

from __future__ import annotations

import json
import random

import pytest

from bipartite_biconnect import (
    build_graph,
    census,
    decompose,
    eta,
    pendant_records,
    serialize_graph,
)
from bipartite_biconnect.augment import analyse
from bipartite_biconnect.blocks import BlockTree
from bipartite_biconnect.bounds import eta_extended
from bipartite_biconnect.cli import main
from bipartite_biconnect.treeindex import AugTreeIndex
from bipartite_biconnect.verify import brute_force_optimal

from .helpers import all_graphs, massive_and_critical, random_graph


def test_census_counts_each_class():
    g = build_graph(
        ["a1", "a2", "a3", "a4", "a5"],
        ["b1", "b2", "b3"],
        [
            ("a1", "b1"),
            ("a2", "b1"),
            ("a2", "b2"),  # path component, needs work
            ("a3", "b3"),  # lone edge component
            ("a4", "b2"),  # extends the path component
        ],
    )
    cen = census(decompose(g))
    assert (cen.c1, cen.c2, cen.c3, cen.c_iso) == (1, 1, 0, 1)
    assert cen.c_total == 2


def test_census_on_path_plus_cycle():
    g = build_graph(
        ["a1", "a2", "a3", "a4"],
        ["b1", "b2", "b3", "b4"],
        [
            ("a1", "b1"),
            ("a2", "b1"),
            ("a2", "b2"),  # path a1-b1-a2-b2
            ("a3", "b3"),
            ("a3", "b4"),
            ("a4", "b3"),
            ("a4", "b4"),  # four cycle
        ],
    )
    cen = census(decompose(g))
    assert (cen.c1, cen.c2, cen.c3, cen.c_iso) == (1, 0, 1, 0)
    assert cen.c_total == 1


def test_census_isolated_vertices_are_inert():
    g = build_graph(["a1", "a2"], ["b1"], [])
    cen = census(decompose(g))
    assert cen.c_iso == 3
    assert cen.c_total == 0


def index_massive_and_critical(g, dec, cid):
    """Massive and critical vertices as the solver's index reports them."""
    tree = BlockTree.build(g, dec.branches, *dec.component(cid))
    index = AugTreeIndex(tree)
    hub = index.massive_node()
    massive = [] if hub == -1 else [tree.payload[hub]]
    return massive, [tree.payload[x] for x in index.critical_nodes()]


def test_criticality_on_two_hub_broom(broom2):
    dec = decompose(broom2)
    massive, critical, m, r = massive_and_critical(dec, pendant_records(broom2, dec), 0)
    assert sorted(broom2.labels[v] for v in critical) == ["a0", "b0"]
    assert massive == []
    assert m == 2 and r == 0
    assert max(dec.branches[v] for v in dec.comps[0]) == 3
    assert index_massive_and_critical(broom2, dec, 0) == (massive, critical)


def test_criticality_flags_massive_hub(spider4):
    dec = decompose(spider4)
    massive, critical, _, _ = massive_and_critical(dec, pendant_records(spider4, dec), 0)
    assert [spider4.labels[v] for v in massive] == ["x"]
    assert critical == []
    assert max(dec.branches[v] for v in dec.comps[0]) == 4
    assert index_massive_and_critical(spider4, dec, 0) == (massive, critical)


def test_eta_fixture_values(p4, c4, path5, spider4, broom2):
    assert eta(p4) == 1
    assert eta(c4) == 0
    assert eta(path5) == 2
    assert eta(spider4) == 3
    assert eta(broom2) == 2


def test_eta_rejects_disconnected():
    g = build_graph(["a1", "a2"], ["b1", "b2"], [("a1", "b1"), ("a2", "b2")])
    with pytest.raises(ValueError):
        eta(g)


def test_eta_equals_exhaustive_minimum_when_connected():
    seen = 0
    for na, nb in [(2, 2), (2, 3), (3, 3)]:
        for g in all_graphs(na, nb):
            dec = decompose(g)
            if len(dec.comps) != 1:
                continue
            seen += 1
            assert eta(g) == brute_force_optimal(g)[0], g.edges
    assert seen > 100


def test_criticality_invariants_hold_on_randoms():
    rng = random.Random(13)
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 5), rng.randint(2, 5), 0.3)
        dec = decompose(g)
        recs = pendant_records(g, dec)
        for cid, comp in enumerate(dec.comps):
            if len(comp) < 3:
                continue
            massive, critical, _, r = massive_and_critical(dec, recs, cid)
            assert len(massive) <= 1
            if recs[1].count(cid) > 3:
                assert len(critical) <= 2
            if len(critical) == 2:
                assert r == 0
            if massive:
                assert not critical
            assert index_massive_and_critical(g, dec, cid) == (massive, critical)


# ----------------------------------------------------------------------
# case labels


def test_classify_m_table():
    def label(g):
        return analyse(g).label

    assert label(build_graph([], [], [])) == "M6"
    assert label(build_graph(["a1"], ["b1"], [])) == "M6"
    assert label(build_graph(["a1", "a2"], ["b1", "b2"], [("a1", "b1")])) == "M4"
    assert (
        label(
            build_graph(
                ["a1", "a2", "a3"],
                ["b1", "b2", "b3"],
                [
                    ("a1", "b1"),
                    ("a2", "b2"),
                    ("a2", "b3"),
                    ("a3", "b2"),
                    ("a3", "b3"),
                ],
            )
        )
        == "M5"
    )
    p4 = build_graph(
        ["a1", "a2"], ["b1", "b2"], [("a1", "b1"), ("a2", "b1"), ("a2", "b2")]
    )
    assert label(p4) == "M1"
    two_stars = build_graph(
        ["a1", "a2", "a3", "a4"],
        ["b1", "b2"],
        [("a1", "b1"), ("a2", "b1"), ("a3", "b2"), ("a4", "b2")],
    )
    assert label(two_stars) == "M2"
    two_paths = build_graph(
        ["a1", "a2", "a3", "a4"],
        ["b1", "b2", "b3", "b4"],
        [
            ("a1", "b1"),
            ("a2", "b1"),
            ("a2", "b2"),
            ("a3", "b3"),
            ("a4", "b3"),
            ("a4", "b4"),
        ],
    )
    assert label(two_paths) == "M3"


def test_s_case_table(capsys, tmp_path, p4, path5, spider4, broom2):
    """The first --trace tag and the --stats s_case of a one-component graph."""

    def cases(g):
        f = tmp_path / "g.txt"
        f.write_text(serialize_graph(g))
        assert main(["augment", str(f), "--json", "--stats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        return doc["trace"][0], doc["stats"]["components"][0]["s_case"]

    assert cases(p4) == ("S1", "S1")
    assert cases(path5) == ("S1", "S1")
    assert cases(spider4) == ("S5", "S5")
    assert cases(broom2) == ("S3", "S3")
    # four leaves on one side of a spine: no pairs at all
    comb = build_graph(
        ["a1", "a2", "a3", "a4", "a5", "a6", "a7"],
        ["b1", "b2", "b3", "b4"],
        [
            ("a5", "b1"),
            ("a5", "b2"),
            ("a6", "b2"),
            ("a6", "b3"),
            ("a7", "b3"),
            ("a7", "b4"),
            ("a1", "b1"),
            ("a2", "b2"),
            ("a3", "b3"),
            ("a4", "b4"),
        ],
    )
    assert cases(comb) == ("S2", "S2")


def test_theorem_target_fixture_values(
    lone_edge_plus_isolated, lone_edge_plus_block, p4
):
    def target(g):
        return analyse(g).target

    assert target(lone_edge_plus_isolated) == 3
    assert target(lone_edge_plus_block) == 2
    assert target(build_graph(["a1"], ["b1"], [])) == 0
    assert target(p4) == 1


def test_eta_extended_matches_eta_on_connected(p4, spider4):
    for g in (p4, spider4):
        a = analyse(g)
        assert eta_extended(a.dec, a.cen, a.prof) == eta(g)
