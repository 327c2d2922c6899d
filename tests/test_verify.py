"""Independent checker and exhaustive search oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartite_biconnect import (
    AugmentationResult,
    NoBiconnector,
    add_edges,
    augment,
    build_graph,
    brute_force_optimal,
    check_componentwise_biconnected,
    is_componentwise_biconnected,
    verify_result,
)
from bipartite_biconnect.errors import CapExceeded
from bipartite_biconnect.graph import cycle_graph, generate_instance, path_graph
from bipartite_biconnect.verify import (
    _adjacency_masks,
    _masks_componentwise_ok,
    legal_nonedges,
)

from .helpers import (
    all_graphs,
    graph_from_mask,
    mixed_graph,
    oracle_components,
    oracle_componentwise_biconnected,
    oracle_cut_vertices,
    random_graph,
    reached_avoiding,
    sparse_random_graph,
)


def test_isolated_vertex_is_fine():
    g = build_graph(["a1"], [], [])
    assert is_componentwise_biconnected(g)


def test_empty_graph_is_fine():
    assert is_componentwise_biconnected(build_graph([], [], []))


def test_lone_edge_fails_with_witness():
    g = build_graph(["a1"], ["b1"], [("a1", "b1")])
    rep = check_componentwise_biconnected(g)
    assert not rep.componentwise_biconnected
    comp, reason = rep.witness
    assert comp == 0
    assert "two vertex" in reason


def test_path_fails_on_cut_vertex(p4):
    rep = check_componentwise_biconnected(p4)
    assert not rep.passed
    assert "disconnects" in rep.witness[1]


def test_cycle_passes(c4):
    rep = check_componentwise_biconnected(c4)
    assert rep.passed
    assert rep.witness is None
    assert rep.components_checked == 1


def expected_witness(g):
    """The first failing component, in order of lowest member, and what
    fails in it: its own size, or its lowest cut vertex."""
    cuts = oracle_cut_vertices(g)
    for cid, comp in enumerate(oracle_components(g)):
        if len(comp) == 2:
            return cid, "a two vertex component is never biconnected"
        mine = [v for v in comp if v in cuts]
        if mine:
            return cid, f"deleting vertex {g.labels[min(mine)]} disconnects it"
    return None


def assert_witness_and_masks_agree(g):
    rep = check_componentwise_biconnected(g)
    assert rep.witness == expected_witness(g)
    assert rep.componentwise_biconnected == (rep.witness is None)
    assert rep.components_checked == len(oracle_components(g))
    assert is_componentwise_biconnected(g) == _masks_componentwise_ok(
        _adjacency_masks(g), g.n
    )


def test_checker_matches_reference_on_everything_small():
    for na in range(1, 4):
        for nb in range(1, 4):
            for g in all_graphs(na, nb):
                assert is_componentwise_biconnected(g) == (
                    oracle_componentwise_biconnected(g)
                )
                assert_witness_and_masks_agree(g)


def test_checker_matches_reference_on_randoms():
    rng = random.Random(31)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.35)
        assert is_componentwise_biconnected(g) == (
            oracle_componentwise_biconnected(g)
        )
        assert_witness_and_masks_agree(g)


def mixed_raw(seed):
    """A seeded forest with extra edges, of 4 to 40 vertices."""
    rng = random.Random(seed)
    n = rng.randint(4, 40)
    return mixed_graph(rng, n, rng.choice([0.6, 0.85, 1.0]), rng.randint(0, n // 2))


def mixed_corpus(count):
    """The mixed_raw graphs, each raw, patched by augment, and patched
    less its last added edge."""
    for seed in range(count):
        g = mixed_raw(seed)
        yield g
        pairs = [
            (g.label_index[x], g.label_index[y]) for x, y in augment(g).added_edges
        ]
        yield add_edges(g, pairs)
        if pairs:
            yield add_edges(g, pairs[:-1])


def test_witness_is_lowest_cut_vertex_on_mixed_graphs():
    graphs = passed = 0
    for g in mixed_corpus(2000):
        assert_witness_and_masks_agree(g)
        graphs += 1
        passed += is_componentwise_biconnected(g)
    # both verdicts occur often: every patched graph passes, and most
    # raw and shortened ones fail
    assert passed >= 2000 and graphs - passed >= 2000


def test_verify_result_rows_match_the_patched_graph():
    # verify_result appends each added pair to the ends' rows, so rows
    # fall out of order; the report must still match the patched graph's
    passed = failed = 0
    for seed in range(2000):
        g = mixed_raw(seed)
        patch = augment(g).added_edges
        for pairs in (patch, patch[:-1]):
            rep = verify_result(g, pairs)
            patched = add_edges(
                g, [(g.label_index[x], g.label_index[y]) for x, y in pairs]
            )
            assert rep.witness == expected_witness(patched)
            assert rep.components_checked == (
                check_componentwise_biconnected(patched).components_checked
            )
            passed += rep.passed
            failed += not rep.passed
    assert passed >= 2000 and failed >= 1000


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_witness_property_on_random_bipartite_graphs(na, nb, data):
    mask = data.draw(st.integers(0, (1 << (na * nb)) - 1))
    assert_witness_and_masks_agree(graph_from_mask(na, nb, mask))


@pytest.mark.parametrize(
    "make",
    [
        lambda n: generate_instance("spider", n),
        lambda n: generate_instance("caterpillar", n),
        sparse_random_graph,
    ],
    ids=["spider", "caterpillar", "random"],
)
def test_verify_at_ten_thousand_vertices(make):
    g = make(10_000)
    res = augment(g)
    assert verify_result(g, res).passed
    # drop one added edge: the check fails and names a true cut vertex
    short = res.added_edges[:-1]
    rep = verify_result(g, short)
    assert not rep.passed and not rep.edge_errors
    _, why = rep.witness
    assert why.startswith("deleting vertex ") and why.endswith(" disconnects it")
    x = g.label_index[why.split()[2]]
    patched = add_edges(
        g, [(g.label_index[a], g.label_index[b]) for a, b in short]
    )
    # one BFS from a neighbour of x, with x deleted, misses another one
    reached = reached_avoiding(patched, patched.adj[x][0], x)
    assert not all(w in reached for w in patched.adj[x])


def test_deep_path_and_cycle_need_no_recursion():
    rep = check_componentwise_biconnected(path_graph(100_000))
    assert rep.witness == (0, "deleting vertex a2 disconnects it")
    assert check_componentwise_biconnected(cycle_graph(100_000)).passed


def test_report_lines_are_printable(p4):
    rep = check_componentwise_biconnected(p4)
    text = "\n".join(rep.lines())
    assert "disconnects" in text and "a2" in text


# ----------------------------------------------------------------------
# exhaustive search


def test_brute_force_on_path(p4):
    size, pairs = brute_force_optimal(p4)
    assert size == 1
    assert pairs == ((0, 3),)  # a1 - b2 is the only single-edge fix


def test_brute_force_on_cycle(c4):
    assert brute_force_optimal(c4) == (0, ())


def test_brute_force_prefers_lexicographically_first():
    # lone edge plus spares: three edges complete the four cycle, and
    # the reported set is the smallest under subset order
    g = build_graph(["a1", "a2"], ["b1", "b2"], [("a1", "b1")])
    size, pairs = brute_force_optimal(g)
    assert size == 3
    assert pairs == ((0, 3), (1, 2), (1, 3))


def test_brute_force_raises_when_infeasible():
    g = build_graph(["a1"], ["b1", "b2"], [("a1", "b1"), ("a1", "b2")])
    with pytest.raises(NoBiconnector):
        brute_force_optimal(g)


def test_brute_force_cap_exceeded_is_inconclusive(p4):
    with pytest.raises(CapExceeded):
        brute_force_optimal(p4, cap=0)


def test_brute_force_rejects_oversized_instance():
    g = build_graph(
        [f"a{i}" for i in range(8)], [f"b{j}" for j in range(8)], []
    )
    with pytest.raises(ValueError):
        brute_force_optimal(g)


def test_brute_force_rejects_cap_above_limit(p4):
    for cap in (9, -1):
        with pytest.raises(ValueError, match="cap must lie in"):
            brute_force_optimal(p4, cap=cap)


def test_legal_nonedges(p4):
    assert legal_nonedges(p4) == [(0, 3)]


# ----------------------------------------------------------------------
# result verification


def test_verify_result_accepts_good_fix(p4):
    res = AugmentationResult([("a1", "b2")], ["S1"], 1)
    rep = verify_result(p4, res)
    assert rep.passed
    assert rep.edge_errors == []


def test_verify_result_flags_wrong_fix(p4):
    res = AugmentationResult([("a1", "b1")], ["S1"], 1)  # already an edge
    rep = verify_result(p4, res)
    assert not rep.passed
    assert rep.edge_errors


def test_verify_result_flags_incomplete_fix(p4):
    res = AugmentationResult([], [], 0)
    rep = verify_result(p4, res)
    assert not rep.passed
    assert rep.witness is not None


def test_verify_result_oracle_agreement(p4):
    res = AugmentationResult([("a1", "b2")], ["S1"], 1)
    rep = verify_result(p4, res, use_oracle=True)
    assert rep.oracle_size == 1
    assert rep.agreement
    assert rep.passed


@pytest.mark.parametrize("cap", [9, -1])
def test_verify_result_rejects_a_cap_outside_the_oracle_range(p4, cap):
    # a bad cap is an error, not an unconfirmed size
    with pytest.raises(ValueError, match="cap must lie in"):
        verify_result(p4, [("a1", "b2")], use_oracle=True, cap=cap)
    # without the oracle the cap is unused
    assert verify_result(p4, [("a1", "b2")], cap=cap).passed


def test_verify_result_flags_unknown_label(p4):
    res = AugmentationResult([("a1", "b9")], ["?"], 1)
    rep = verify_result(p4, res)
    assert not rep.passed
    assert rep.edge_errors


def test_verify_result_reports_an_item_that_is_not_a_pair(p4):
    # each malformed item is one report line, also one with an
    # unhashable label; the good and bad pairs around it are still checked
    items = [("a1",), ("a1", "b1"), ("a1", "b2", "x"), None, ["a1", "b2"], 7, ("a2", "a1")]
    items += [(["a1"], "b2"), ({"x": 1}, "b2"), ("a1", ["b2"])]
    rep = verify_result(p4, items)
    assert not rep.passed
    assert rep.lines() == [
        "BAD EDGE ('a1',): not a pair of labels",
        "BAD EDGE a1 b1: duplicate edge",
        "BAD EDGE ('a1', 'b2', 'x'): not a pair of labels",
        "BAD EDGE None: not a pair of labels",
        "BAD EDGE 7: not a pair of labels",
        "BAD EDGE a2 a1: same side",
        "BAD EDGE (['a1'], 'b2'): not a pair of labels",
        "BAD EDGE ({'x': 1}, 'b2'): not a pair of labels",
        "BAD EDGE ('a1', ['b2']): not a pair of labels",
    ]
    # without the malformed items the same list is one good pair
    assert verify_result(p4, [["a1", "b2"]]).passed


def test_verify_result_oracle_flags_waste(spider4):
    # a correct but oversized edge set: the checker accepts it, the
    # exhaustive search disagrees on the count
    res = AugmentationResult(
        [("a3", "b1"), ("a4", "b2"), ("a4", "b1"), ("a3", "b2")],
        ["?"] * 4,
        4,
    )
    rep = verify_result(spider4, res, use_oracle=True)
    assert rep.componentwise_biconnected
    assert rep.oracle_size == 3
    assert not rep.agreement
    assert not rep.passed
