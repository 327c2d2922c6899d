"""End-to-end augmentation: exact outputs on fixed shapes, optimality
against exhaustive search, and the step invariants."""

from __future__ import annotations

import ast
import functools
import gc
import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bipartite_biconnect import (
    InvariantViolation,
    NoBiconnector,
    add_edges,
    augment,
    build_graph,
    decompose,
    eta,
    is_componentwise_biconnected,
    parse_graph,
    verify_result,
)
from bipartite_biconnect.augment import _State, _hub_run, analyse
from bipartite_biconnect.blocks import S_NODE, BlockTree
from bipartite_biconnect.graph import (
    broom_graph,
    caterpillar_graph,
    generate_instance,
    spider_graph,
)
from bipartite_biconnect.stats import OpCounters
from bipartite_biconnect.treeindex import AugTreeIndex
from bipartite_biconnect.verify import brute_force_optimal

from .helpers import (
    a_paths_graph,
    all_graphs,
    audited_augment,
    mixed_graph,
    one_side_hub_graph,
    random_graph,
    sparse_random_graph,
    step_by_step_augment,
    uniform_spider_graph,
)
from .test_acceptance import disjoint_paths_graph


def fixed(g):
    res, _ = audited_augment(g)
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


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_INPUTS.glob("*.txt")))
def test_every_golden_input_is_decomposed_once(name):
    """One decomposition serves the whole solve: the round robin stitch
    works from the bridge loop's own records, and the join hands the
    component the bridges leave to the tree solver."""
    g = parse_graph((GOLDEN_INPUTS / f"{name}.txt").read_text())
    counters = OpCounters()
    try:
        augment(g, counters)
    except NoBiconnector:
        pass
    assert counters.dfs_visits == g.n


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
            res, _ = audited_augment(g)
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
        res, _ = audited_augment(g)
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
        res, _ = audited_augment(g)
        assert res.size == eta(g)
    assert checked > 100


AUDIT_INPUTS = {
    "spider-300": lambda: generate_instance("spider", 300),
    "caterpillar-300": lambda: generate_instance("caterpillar", 300),
    "random-2000-seed0": lambda: generate_instance("random", 2000, seed=0),
    "random-2000-seed1": lambda: generate_instance("random", 2000, seed=1),
    "random_rebuild": lambda: parse_graph(
        (Path(__file__).parent / "golden" / "inputs" / "random_rebuild.txt").read_text()
    ),
}


@pytest.mark.parametrize("name", list(AUDIT_INPUTS))
def test_self_check_holds_past_brute_force_sizes(name):
    """The index audit and the rebuild comparison after every iterative
    step hold on inputs far too big for exhaustive search, including
    one whose branch step re-roots at a critical cut vertex; the audits
    ran once per S5 and S4_2 step and leave the output unchanged."""
    g = AUDIT_INPUTS[name]()
    res, audits = audited_augment(g)
    assert res.size == res.target
    assert res.added_edges == augment(g).added_edges
    assert audits == res.trace.count("S5") + res.trace.count("S4_2") > 0


def test_self_check_holds_on_the_seeded_corpus(monkeypatch):
    # every branch step re-roots by the walk; the audits after every
    # step hold, also on the inputs whose walk goes to a critical cut
    # vertex below the root
    real = AugTreeIndex.choose_root
    critical = 0

    def choose_root(index):
        nonlocal critical
        node = real(index)
        if node != index.tree.root and index.max_cdeg == index.m_plus_r() + 1:
            assert node == index.critical_head()
            critical += 1
        return node

    monkeypatch.setattr(AugTreeIndex, "choose_root", choose_root)
    rng = random.Random(31)
    graphs = [
        mixed_graph(rng, rng.randint(4, 40), rng.choice((0.6, 0.9, 1.0)), rng.randint(0, 8))
        for _ in range(2000)
    ]
    graphs += [
        random_graph(rng, rng.randint(2, 8), rng.randint(2, 8), rng.choice((0.2, 0.3, 0.4)))
        for _ in range(500)
    ]
    graphs += [
        generate_instance(kind, size, seed=seed)
        for kind in ("spider", "caterpillar", "broom", "random", "path")
        for size in (30, 300)
        for seed in range(3 if kind == "random" else 1)
    ]
    for g in graphs:
        try:
            res, _ = audited_augment(g)
        except NoBiconnector:
            continue
        assert res.size == res.target
    assert critical > 0


def test_step_audit_raises_under_python_O():
    # the audits raise InvariantViolation rather than assert, so an
    # optimized interpreter still catches a drifted leaf census at the
    # first audit, not only at the final bound check
    script = (
        "from bipartite_biconnect import InvariantViolation\n"
        "from bipartite_biconnect.graph import generate_instance\n"
        "from bipartite_biconnect.treeindex import AugTreeIndex\n"
        "from tests.helpers import audited_augment\n"
        "AugTreeIndex.counts = lambda self: (9, 9, 9)\n"
        "try:\n"
        "    audited_augment(generate_instance('spider', 40))\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(root / "src"), str(root)))},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "leaf census drifted from rebuild\n"


def test_hub_runs_match_the_step_by_step_hub():
    # a hub run fuses chains in place and checks per run what the step
    # by step hub step checked per step; both add the same edges in the
    # same order, also where a run starts with pairs into branches with
    # more than one pendant and then resumes with chains
    graphs = [
        generate_instance(kind, n, seed=seed)
        for kind in ("spider", "broom", "caterpillar", "random", "path")
        for n in (12, 60, 300, 2000, 20_000)
        for seed in (0, 1)
    ]
    graphs += [uniform_spider_graph(k) for k in (2, 6, 50)]
    graphs += [a_paths_graph(k) for k in (2, 6, 50)]
    rng = random.Random(2929)
    graphs += [
        one_side_hub_graph(rng, rng.randint(3, 8), rng.randint(1, 4)) for _ in range(300)
    ]
    for _ in range(1200):
        n = rng.randint(4, 40)
        graphs.append(mixed_graph(rng, n, rng.random(), rng.randint(0, n // 3)))
    mod = importlib.import_module("bipartite_biconnect.augment")
    runs: list[str] = []  # per hub run, C for a chain pair, S for another
    real_run, real_fuse, real_join = mod._hub_run, mod._fuse_chains, mod._join_and_collapse

    def hub_run(*args):
        runs.append("")
        real_run(*args)

    def fuse_chains(*args):
        runs[-1] += "C"
        real_fuse(*args)

    def join_and_collapse(*args):
        if args[-1] == "S5":
            runs[-1] += "S"
        real_join(*args)

    for g in graphs:
        try:
            want = step_by_step_augment(g)
        except NoBiconnector:
            continue
        mod._hub_run, mod._fuse_chains = hub_run, fuse_chains
        mod._join_and_collapse = join_and_collapse
        try:
            got = augment(g)
        finally:
            mod._hub_run, mod._fuse_chains = real_run, real_fuse
            mod._join_and_collapse = real_join
        assert (got.added_edges, got.trace) == (want.added_edges, want.trace)
    assert sum(run.count("C") for run in runs) > 1000
    assert any("SC" in run for run in runs)


def _spider_at_its_hub():
    """A spider's state at its first hub step: the tree, its index and
    the root's first chain pair."""
    g = generate_instance("spider", 40)
    dec = decompose(g)
    tree = BlockTree.build(g, dec.branches, *dec.component(0))
    index = AugTreeIndex(tree)
    assert index.s_case() == "S5"
    return g, tree, index, index.chain_pair()


def test_hub_run_at_a_forked_chain_raises():
    # a plain raise, so python -O keeps it
    g, tree, index, (x1, _, _, _) = _spider_at_its_hub()
    tree.nkids[x1] = 2
    with pytest.raises(InvariantViolation, match="has 2 children"):
        _hub_run(_State(g, OpCounters()), tree, index)


def test_hub_run_at_a_chain_ending_in_the_wrong_type_raises():
    g, tree, index, (x1, _, t1, _) = _spider_at_its_hub()
    leaf = x1
    while tree.nkids[leaf]:
        (leaf,) = tree.kids(leaf)
    assert tree.kind[leaf] == S_NODE and tree.leaf_type(leaf) == t1
    tree.min_a[leaf], tree.min_b[leaf] = tree.min_b[leaf], tree.min_a[leaf]
    with pytest.raises(InvariantViolation, match="not a"):
        _hub_run(_State(g, OpCounters()), tree, index)


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


def test_every_iterative_and_bridging_case_runs_at_1e4():
    # M1 labels every one-component input, and M4 and M5 are of constant
    # size; every other case must show up in a 1e4-vertex family, with
    # each solve at the closed form target and checked independently
    families = {
        kind: functools.partial(generate_instance, kind)
        for kind in ("spider", "caterpillar", "broom")
    }
    families["random"] = sparse_random_graph
    families["paths"] = disjoint_paths_graph
    families["uniform spider"] = lambda n: uniform_spider_graph(n // 3)
    families["a-paths"] = lambda n: a_paths_graph(n // 3)
    seen = set()
    for kind, make in families.items():
        g = make(10_000)
        res = augment(g)
        assert res.size == analyse(g).target, kind
        rep = verify_result(g, res)
        assert rep.passed, (kind, rep.witness)
        seen.update(res.trace)
    assert seen >= {"M2", "M3", "S1", "S2", "S3", "S4_1", "S4_2", "S5"}, seen


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


def test_package_signals_faults_without_assert():
    # python -O strips assert statements, so a solver invariant written
    # as one would vanish there; every fault is an InvariantViolation
    src = Path(__file__).parent.parent / "src" / "bipartite_biconnect"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_missed_target_raises(monkeypatch, spider4):
    # a plain raise, so the count check survives python -O
    aug = importlib.import_module("bipartite_biconnect.augment")
    true_target = aug.theorem_target
    monkeypatch.setattr(aug, "theorem_target", lambda *a: true_target(*a) + 1)
    with pytest.raises(InvariantViolation, match="emitted 3, target 4"):
        augment(spider4)


@pytest.mark.parametrize(
    "ends, what",
    [
        (("a1", "b1"), "edge already present"),
        (("a1", "a2"), "edge within one side"),
        # -1 is the no vertex mark; as an index it would read the last vertex
        ((None, "a1"), "edge end out of range"),
    ],
)
def test_illegal_edge_raises(monkeypatch, p4, ends, what):
    # plain raises as well, so every added edge is checked under python -O
    aug = importlib.import_module("bipartite_biconnect.augment")
    edge = tuple(p4.label_index.get(lab, -1) for lab in ends)
    monkeypatch.setattr(aug, "_binding_edge", lambda *a: edge)
    with pytest.raises(InvariantViolation, match=what):
        augment(p4)


def _gen0_collections_during_augment(g) -> int:
    """Generation-0 collections the collector starts during one solve."""
    starts = 0

    def count(phase, info):
        nonlocal starts
        if phase == "start" and info["generation"] == 0:
            starts += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        augment(g)
    finally:
        gc.callbacks.remove(count)
    return starts


def test_solve_runs_few_collections():
    # The collector runs a generation-0 pass per 700 net container
    # allocations, so its count measures the containers a solve keeps
    # alive.  Structure trees and their index hold flat int lists, with
    # no container per node; with a set, a dict and a tuple per node,
    # these solves ran 465 (spider) and 306 (random) such passes.  The
    # random solve decomposes its graph once and joins the bridged
    # components into that decomposition; a second graph and a second
    # decomposition of it doubled its passes.
    assert gc.isenabled()
    spider = generate_instance("spider", 20_000)
    assert _gen0_collections_during_augment(spider) <= 465 // 3
    sparse = sparse_random_graph(20_000)
    assert _gen0_collections_during_augment(sparse) <= 306 // 5
