"""End-to-end augmentation: exact outputs on fixed shapes, optimality
against exhaustive search, and the step invariants."""

from __future__ import annotations

import importlib
import random
from pathlib import Path

import pytest

from bipartite_biconnect import (
    InvariantViolation,
    NoBiconnector,
    add_edges,
    augment,
    build_graph,
    eta,
    is_componentwise_biconnected,
    parse_graph,
    verify_result,
)
from bipartite_biconnect.graph import (
    broom_graph,
    caterpillar_graph,
    generate_instance,
    spider_graph,
)
from bipartite_biconnect.stats import OpCounters
from bipartite_biconnect.verify import brute_force_optimal

from .helpers import all_graphs, random_graph


def fixed(g, self_check=True):
    res = augment(g, self_check=self_check)
    rep = verify_result(g, res)
    assert rep.passed, rep.witness
    assert res.size == res.target
    assert len(res.trace) == res.size
    return res


# ----------------------------------------------------------------------
# exact outputs on the fixture shapes


def test_path_needs_one_edge(p4):
    res = fixed(p4)
    assert res.added_edges == [("a1", "b2")]
    assert res.trace == ["S1"]


def test_cycle_needs_nothing(c4):
    res = fixed(c4)
    assert res.added_edges == []


def test_one_sided_path(path5):
    res = fixed(path5)
    assert res.added_edges == [("a1", "b2"), ("a3", "b1")]


def test_spider_hub(spider4):
    res = fixed(spider4)
    assert res.size == 3
    assert res.trace[0] == "S5"
    assert eta(spider4) == 3


def test_two_critical_hubs(broom2):
    res = fixed(broom2)
    assert res.added_edges == [("a1", "b1"), ("a2", "b2")]
    assert res.trace == ["S3", "S3"]


def test_lone_edge_among_spares(lone_edge_plus_isolated):
    res = fixed(lone_edge_plus_isolated)
    assert res.added_edges == [("a1", "b2"), ("a2", "b1"), ("a2", "b2")]
    assert res.trace == ["M4"] * 3


def test_lone_edge_next_to_block(lone_edge_plus_block):
    res = fixed(lone_edge_plus_block)
    assert res.added_edges == [("a1", "b2"), ("a2", "b1")]
    assert res.trace == ["M5"] * 2


def test_nothing_to_do_when_one_side_empty():
    res = fixed(build_graph(["a1", "a2"], [], []))
    assert res.added_edges == []
    assert res.target == 0


def test_infeasible_when_one_side_too_thin():
    g = build_graph(["a1"], ["b1", "b2"], [("a1", "b1"), ("a1", "b2")])
    with pytest.raises(NoBiconnector):
        augment(g)


def test_star_borrows_isolated_partner():
    g = build_graph(
        ["a1", "a2"],
        ["b1", "b2", "b3"],
        [("a1", "b1"), ("a1", "b2"), ("a1", "b3")],
    )
    res = fixed(g)
    assert res.added_edges == [("a2", "b1"), ("a2", "b2"), ("a2", "b3")]
    assert res.trace == ["M1"] * 3


def test_star_borrows_block_vertices():
    g = build_graph(
        ["a1", "a2", "a3"],
        ["b1", "b2", "b3", "b4", "b5"],
        [
            ("a1", "b1"),
            ("a1", "b2"),
            ("a1", "b3"),
            ("a2", "b4"),
            ("a2", "b5"),
            ("a3", "b4"),
            ("a3", "b5"),
        ],
    )
    res = fixed(g)
    assert res.size == 3
    assert res.trace == ["M1"] * 3
    # all leaves pair with block vertices, lowest ids first
    assert res.added_edges[0][1] in ("b4", "b5") or res.added_edges[0][0] in (
        "a2",
        "a3",
    )


def test_round_robin_stitch_of_uniform_components():
    g = build_graph(
        ["a1", "a2", "a3", "a4"],
        ["b1", "b2"],
        [("a1", "b1"), ("a2", "b1"), ("a3", "b2"), ("a4", "b2")],
    )
    res = fixed(g)
    assert res.size == 4
    assert res.trace == ["M2"] * 4
    assert res.added_edges == [
        ("a1", "b2"),
        ("a2", "b2"),
        ("a3", "b1"),
        ("a4", "b1"),
    ]


def test_bridge_merge_of_two_paths():
    g = build_graph(
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
    res = fixed(g)
    assert res.size == 2
    assert res.trace[0] == "M3"
    assert brute_force_optimal(g)[0] == 2


def test_bridge_merge_of_three_paths():
    parts = []
    labels_a, labels_b, edges = [], [], []
    for k in range(3):
        a1, a2 = f"a{2 * k + 1}", f"a{2 * k + 2}"
        b1, b2 = f"b{2 * k + 1}", f"b{2 * k + 2}"
        labels_a += [a1, a2]
        labels_b += [b1, b2]
        edges += [(a1, b1), (a2, b1), (a2, b2)]
    g = build_graph(labels_a, labels_b, edges)
    res = fixed(g)
    assert res.size == brute_force_optimal(g)[0]
    assert res.trace.count("M3") >= 2


def test_chain_spider_mixed_types():
    # four chains of two vertices each off one hub, ending A, A, B, AB
    g = spider_graph([2, 2, 1, 3])
    res = fixed(g)
    assert res.size == eta(g)
    assert verify_result(g, res, use_oracle=True).passed


def test_double_broom_six_leaves():
    g = broom_graph(3, 3)
    res = fixed(g)
    assert res.size == 3
    assert verify_result(g, res, use_oracle=True).passed


# ----------------------------------------------------------------------
# whole-corpus optimality


def test_matches_exhaustive_minimum_on_small_corpus():
    for na, nb in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        for g in all_graphs(na, nb):
            try:
                size_o, _ = brute_force_optimal(g)
                feasible = True
            except NoBiconnector:
                feasible = False
            if not feasible:
                with pytest.raises(NoBiconnector):
                    augment(g)
                continue
            res = augment(g, self_check=True)
            assert res.size == size_o
            assert verify_result(g, res).passed


def test_matches_exhaustive_minimum_on_randoms():
    rng = random.Random(2024)
    for _ in range(600):
        g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 4), rng.choice([0.2, 0.4, 0.7]))
        try:
            size_o, _ = brute_force_optimal(g)
        except NoBiconnector:
            with pytest.raises(NoBiconnector):
                augment(g)
            continue
        res = augment(g, self_check=True)
        assert res.size == size_o
        assert verify_result(g, res).passed


def test_connected_solves_hit_eta_exactly():
    rng = random.Random(55)
    checked = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 5), rng.randint(2, 5), 0.5)
        from bipartite_biconnect import decompose

        if len(decompose(g).comps) != 1:
            continue
        checked += 1
        res = augment(g, self_check=True)
        assert res.size == eta(g)
    assert checked > 100


SELF_CHECK_INPUTS = {
    "spider-300": lambda: generate_instance("spider", 300),
    "caterpillar-300": lambda: generate_instance("caterpillar", 300),
    "random-2000-seed0": lambda: generate_instance("random", 2000, seed=0),
    "random-2000-seed1": lambda: generate_instance("random", 2000, seed=1),
    "random_rebuild": lambda: parse_graph(
        (Path(__file__).parent / "golden" / "inputs" / "random_rebuild.txt").read_text()
    ),
}


@pytest.mark.parametrize("name", list(SELF_CHECK_INPUTS))
def test_self_check_holds_past_brute_force_sizes(name):
    """The index audit and the rebuild comparison after every solver
    step hold on inputs far too big for exhaustive search, including
    one whose solve reorients the whole tree once."""
    g = SELF_CHECK_INPUTS[name]()
    counters = OpCounters()
    res = augment(g, counters, self_check=True)
    assert res.size == res.target
    assert res.added_edges == augment(g).added_edges
    if name == "random_rebuild":
        assert counters.extra == {"index_rebuilds": 1}


# ----------------------------------------------------------------------
# behavioral properties


def test_augment_is_idempotent():
    rng = random.Random(66)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 4), rng.randint(2, 4), 0.4)
        try:
            res = augment(g)
        except NoBiconnector:
            continue
        g2 = add_edges(g, [
            (g.label_index[a], g.label_index[b]) for a, b in res.added_edges
        ])
        assert is_componentwise_biconnected(g2)
        res2 = augment(g2)
        assert res2.size == 0


def test_augment_never_mutates_its_input(p4):
    before = (p4.edges, p4.labels)
    augment(p4)
    assert (p4.edges, p4.labels) == before


def test_added_edges_are_a_side_first_and_unique():
    rng = random.Random(77)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 5), rng.randint(2, 5), 0.3)
        try:
            res = augment(g)
        except NoBiconnector:
            continue
        seen = set()
        for a, b in res.added_edges:
            assert g.sides[g.label_index[a]] == 0
            assert g.sides[g.label_index[b]] == 1
            assert (a, b) not in seen
            seen.add((a, b))


def test_trace_labels_come_from_the_case_alphabet():
    rng = random.Random(88)
    allowed = {"M1", "M2", "M3", "M4", "M5", "S1", "S2", "S3", "S4_1", "S4_2", "S5"}
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.35)
        try:
            res = augment(g)
        except NoBiconnector:
            continue
        assert set(res.trace) <= allowed


def test_counters_fill_in():
    g = caterpillar_graph(12)
    counters = OpCounters()
    augment(g, counters)
    assert counters.dfs_visits >= g.n
    assert counters.tree_nodes > 0
    assert counters.edges_added > 0


def test_deterministic_output():
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 4), rng.randint(2, 4), 0.4)
        try:
            r1 = augment(g)
            r2 = augment(g)
        except NoBiconnector:
            continue
        assert r1.added_edges == r2.added_edges
        assert r1.trace == r2.trace


def test_missed_target_raises(monkeypatch, spider4):
    # a plain raise, so the count check survives python -O
    aug = importlib.import_module("bipartite_biconnect.augment")
    true_target = aug.theorem_target
    monkeypatch.setattr(aug, "theorem_target", lambda *a: true_target(*a) + 1)
    with pytest.raises(InvariantViolation, match="emitted 3, target 4"):
        augment(spider4)
