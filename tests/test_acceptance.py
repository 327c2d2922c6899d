"""Release gate.

One test per shipping criterion; each prints a single
"ACCEPTANCE criterion N: PASS/FAIL" line (visible with -s).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import random
import signal
import statistics
import time
from typing import Callable

import pytest

from bipartite_biconnect import (
    BipartiteGraph,
    NoBiconnector,
    add_edges,
    augment,
    build_graph,
    decompose,
    eta,
    is_componentwise_biconnected,
    profile,
    verify_result,
)
from bipartite_biconnect.blocks import S_NODE, BlockTree, pendant_records
from bipartite_biconnect.cli import main
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
    all_graphs,
    audited_augment,
    massive_and_critical,
    oracle_max_matching,
    oracle_pendants,
    oracle_split_count,
    pendant_kind,
    random_graph,
    sparse_random_graph,
)


@contextlib.contextmanager
def criterion(n: int, desc: str):
    """Print the criterion's PASS/FAIL line; notes the body appends to
    the yielded list are printed on the same line after desc."""
    notes: list[str] = []
    try:
        yield notes
    except BaseException:
        print(f"ACCEPTANCE criterion {n}: FAIL ({'; '.join([desc, *notes])})")
        raise
    print(f"ACCEPTANCE criterion {n}: PASS ({'; '.join([desc, *notes])})")


def apply_result(g, res):
    return add_edges(
        g, [(g.label_index[a], g.label_index[b]) for a, b in res.added_edges]
    )


def solve_or_none(g):
    try:
        return augment(g)
    except NoBiconnector:
        return None


# ----------------------------------------------------------------------


def test_criterion_1_minimality_vs_exhaustive_search():
    with criterion(1, "optimal on every small graph and 10000 randoms"):
        start = time.perf_counter()

        def check(g):
            try:
                size_o, _ = brute_force_optimal(g)
            except NoBiconnector:
                assert solve_or_none(g) is None
                return
            res = augment(g)
            assert res.size == size_o
            rep = verify_result(g, res)
            assert rep.passed, rep.witness

        for k in (1, 2, 3):
            for g in all_graphs(k, k):
                check(g)

        rng = random.Random(20260819)
        for _ in range(10000):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            check(random_graph(rng, na, nb, rng.choice([0.15, 0.3, 0.5, 0.75])))

        assert time.perf_counter() - start < 300


def test_criterion_2_disconnected_driver_table(
    lone_edge_plus_isolated, lone_edge_plus_block
):
    with criterion(2, "fixed outcomes for the lone edge and empty cases"):
        assert augment(lone_edge_plus_isolated).size == 3
        assert augment(lone_edge_plus_block).size == 2
        assert augment(build_graph([], [], [])).size == 0
        assert augment(build_graph(["a1"], ["b1"], [])).size == 0
        thin = build_graph(["a1"], ["b1", "b2"], [("a1", "b1"), ("a1", "b2")])
        with pytest.raises(NoBiconnector):
            augment(thin)


def test_criterion_3_connected_solutions_meet_the_lower_bound():
    with criterion(3, "connected graphs get exactly the lower bound"):
        rng = random.Random(31)
        checked = 0
        for _ in range(2000):
            g = random_graph(rng, rng.randint(2, 6), rng.randint(2, 6), 0.4)
            if len(decompose(g).comps) != 1:
                continue
            checked += 1
            assert augment(g).size == eta(g)
        assert checked > 400
        for g in (
            spider_graph([1, 1, 2, 2, 3]),
            broom_graph(4, 6),
            caterpillar_graph(40),
            generate_instance("random", 60, seed=5),
        ):
            if len(decompose(g).comps) == 1:
                assert augment(g).size == eta(g)


def test_criterion_4_matching_formula_is_exact():
    with criterion(4, "closed form pair count equals exhaustive matching"):
        for n_a in range(7):
            for n_b in range(7):
                for n_ab in range(7):
                    prof = profile(n_a, n_b, n_ab)
                    best = oracle_max_matching(n_a, n_b, n_ab)
                    assert prof.m == best
                    assert prof.r == n_a + n_b + n_ab - 2 * best


def test_criterion_5_structure_lemmas_hold():
    with criterion(5, "leaf, split, collapse and step invariants"):
        rng = random.Random(47)
        corpus = [g for g in all_graphs(2, 3)] + [
            random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.35)
            for _ in range(500)
        ]

        for g in corpus:
            dec = decompose(g)
            recs = pendant_records(g, dec)

            # tree leaves are exactly the pendants, types included
            triples = sorted(
                (kind, min(mem), pt) for kind, mem, pt in oracle_pendants(g)
            )
            assert (
                sorted((pendant_kind(p.ptype), p.key, p.ptype) for p in recs)
                == triples
            )
            got = set()
            for cid, comp in enumerate(dec.comps):
                if len(comp) < 2:
                    continue
                tree = BlockTree.build(g, dec.branches, *dec.component(cid))
                for x in tree.leaves():
                    # a fresh tree's leaf payload is the pendant vertex
                    # or the block's sorted vertex tuple
                    key = tree.payload[x]
                    got.add(("sv", key) if tree.kind[x] == S_NODE else ("ns", key[0]))
            assert got == {(kind, key) for kind, key, _ in triples}

            # split counts match vertex deletion
            for v in range(g.n):
                assert dec.branches[v] == oracle_split_count(g, v)

            # criticality census invariants; the solver's index finds
            # the same massive and critical vertices
            for cid, comp in enumerate(dec.comps):
                massive, critical, _, r = massive_and_critical(dec, recs, cid)
                lam = sum(1 for p in recs if p.comp == cid)
                assert len(massive) <= 1
                if lam > 3:
                    assert len(critical) <= 2
                if len(critical) == 2:
                    assert r == 0
                if massive:
                    assert not critical
                if len(comp) < 2:
                    continue
                tree = BlockTree.build(g, dec.branches, *dec.component(cid))
                index = AugTreeIndex(tree)
                hub = index.massive_node()
                assert massive == ([] if hub == -1 else [tree.payload[hub]])
                assert critical == [tree.payload[x] for x in index.critical_nodes()]

        # collapse bookkeeping equals recomputation inside real solves
        for g in corpus[:200]:
            solve_or_none(g)
        for g in (
            spider_graph([1, 1, 2, 2, 3]),
            spider_graph([2] * 6),
            broom_graph(3, 5),
            caterpillar_graph(14),
        ):
            audited_augment(g)

        # every edge of a connected solve lowers the bound by exactly one
        stepped = 0
        families = [
            spider_graph([1, 1, 2, 2]),
            spider_graph([1, 2, 3]),
            spider_graph([2, 2, 2, 2]),
            caterpillar_graph(9),
            caterpillar_graph(13),
            broom_graph(2, 4),
            broom_graph(3, 3),
        ]
        while len(families) < 80:
            g = random_graph(rng, rng.randint(3, 6), rng.randint(3, 6), 0.5)
            if len(decompose(g).comps) == 1:
                families.append(g)
        for g in corpus + families:
            if len(decompose(g).comps) != 1:
                continue
            res = solve_or_none(g)
            if res is None or res.size == 0:
                continue
            stepped += 1
            base = eta(g)
            cur = g
            for i, (a, b) in enumerate(res.added_edges, start=1):
                cur = add_edges(cur, [(cur.label_index[a], cur.label_index[b])])
                if i < res.size:
                    assert eta(cur) == base - i
            assert is_componentwise_biconnected(cur)

            # hub steps also shave the hub's split degree by one
            if res.trace[0] == "S5":
                dec0 = decompose(g)
                tree0 = BlockTree.build(g, dec0.branches, *dec0.component(0))
                hub = tree0.payload[AugTreeIndex(tree0).massive_node()]
                d_prev = dec0.branches[hub]
                cur = g
                for (a, b), tag in zip(res.added_edges, res.trace):
                    if tag != "S5":
                        break
                    cur = add_edges(
                        cur, [(cur.label_index[a], cur.label_index[b])]
                    )
                    d_now = decompose(cur).branches[hub]
                    assert d_now == d_prev - 1
                    d_prev = d_now
        assert stepped > 100


def speed_probe() -> float:
    """Seconds a fixed bit of interpreter work takes: a sample of how
    fast the core runs at this moment."""
    t0 = time.perf_counter()
    d = {}
    for i in range(300):
        d[i & 63] = i * 7
    return time.perf_counter() - t0


def scaled_solve(g, counters) -> float:
    """Seconds augment(g, counters) takes, rescaled to a fixed core speed.

    On a shared machine the speed of a core drifts by up to 2x, over
    any span from a tenth of a second to minutes.  A timer samples
    speed_probe() every 5 ms while the solve runs (SIGALRM, so Unix and
    the main thread only); the wall time times the mean probe rate
    counts the solve in units of probe work, which a slow spell during
    the solve does not change.  The probes cost about one percent of
    the solve, the same share at every size.
    """
    rates = [1 / speed_probe()]

    def on_alarm(signum, frame):
        rates.append(1 / speed_probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.005, 0.005)
    try:
        t0 = time.perf_counter()
        augment(g, counters)
        wall = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return wall * statistics.fmean(rates)


def disjoint_paths_graph(n: int) -> BipartiteGraph:
    """Disjoint paths of 3, 5, 4 and 6 vertices in turn, each starting
    on the side the one before did not, until there are n vertices.

    Every four paths carry four A and four B pendants (two A ends, two
    B ends, then two mixed paths), so the bridges join all components
    into one before the one component solver finishes.
    """
    a: list[str] = []
    b: list[str] = []
    edges: list[tuple[str, str]] = []
    k = 0
    while len(a) + len(b) < n:
        prev = None
        for i in range((3, 5, 4, 6)[k % 4]):
            here = (k + i) % 2
            names = a if here == 0 else b
            lab = f"{'ab'[here]}{len(names) + 1}"
            names.append(lab)
            if prev is not None:
                edges.append((lab, prev) if here == 0 else (prev, lab))
            prev = lab
        k += 1
    return build_graph(a, b, edges)


def doubling_ratios(make: Callable[[int], BipartiteGraph], sizes: list[int]):
    """Time ratios and counter ratios of each doubling in sizes, on the
    graphs make(size).

    Each of three rounds solves each size once, ascending in even
    rounds and descending in odd ones, so the two solves of a doubling
    always run back to back, and a doubling's ratio is taken within one
    round from their scaled_solve times.  Each graph is generated right before its
    solve, so the heap holds no other size's graph, and the collector
    runs first, so no solve pays for the garbage of the one before it;
    it stays on during the solve, since collection is part of the
    solver's cost.

    Returns, per doubling, the list of its time ratios over the rounds,
    and the ratio of OpCounters.total(), which does not vary between
    runs.
    """
    rounds = 3
    scaled = [[0.0] * len(sizes) for _ in range(rounds)]
    totals = [0] * len(sizes)
    for r in range(rounds):
        order = range(len(sizes)) if r % 2 == 0 else reversed(range(len(sizes)))
        for i in order:
            g = make(sizes[i])
            counters = OpCounters()
            gc.collect()
            scaled[r][i] = scaled_solve(g, counters)
            totals[i] = counters.total()
    steps = range(1, len(sizes))
    times = [[s[i] / s[i - 1] for s in scaled] for i in steps]
    works = [totals[i] / totals[i - 1] for i in steps]
    return times, works


def test_criterion_6_linear_scaling():
    desc = "doubling the input costs <=2.2x counters and <=2.5x time"
    with criterion(6, desc) as notes:
        sizes = [10_000, 20_000, 40_000, 80_000]
        rows = []
        families = {
            kind: functools.partial(generate_instance, kind)
            for kind in ("spider", "caterpillar", "broom")
        }
        # thousands of components: the bridge loop of the M3 case
        families["paths"] = disjoint_paths_graph
        # one giant component whose merged block keeps growing
        families["random"] = sparse_random_graph
        for kind, make in families.items():
            times, works = doubling_ratios(make, sizes)
            rows += [
                (f"{kind} {a // 1000}k->{b // 1000}k", statistics.median(rounds), rounds, work)
                for a, b, rounds, work in zip(sizes, sizes[1:], times, works)
            ]
        notes.extend(
            f"{name} time x{med:.2f} (rounds {'/'.join(f'{r:.2f}' for r in rounds)})"
            f" counters x{work:.2f}"
            for name, med, rounds, work in rows
        )
        report = "; ".join(notes)
        for name, med, _, work in rows:
            assert med <= 2.5, (name, report)
            assert work <= 2.2, (name, report)


def test_criterion_7_byte_identical_output(capsys, tmp_path):
    with criterion(7, "every subcommand reruns byte for byte"):
        f = tmp_path / "g.txt"
        f.write_text(
            "A a1 a2 a3\nB b1 b2\nE a1 b1\nE a2 b1\nE a2 b2\nE a3 b2\n"
        )
        patch = tmp_path / "patch.txt"
        patch.write_text("ADD a1 b2\nADD a3 b1\n")
        runs = [
            ["augment", str(f)],
            ["augment", str(f), "--trace", "--stats"],
            ["augment", str(f), "--json", "--stats", "--verify"],
            ["verify", str(f)],
            ["verify", str(f), "--edges", str(patch), "--oracle"],
            ["oracle", str(f)],
            ["tree", str(f)],
            ["gen", "--kind", "spider", "--size", "50"],
            ["gen", "--kind", "random", "--size", "50", "--seed", "11"],
            ["bench", "--kind", "broom", "--sizes", "40,80"],
        ]
        for argv in runs:
            rc1 = main(argv)
            out1 = capsys.readouterr().out
            rc2 = main(argv)
            out2 = capsys.readouterr().out
            assert rc1 == rc2, argv
            assert out1 == out2, argv
            assert out1, argv


def test_criterion_8_idempotence():
    with criterion(8, "augmenting an augmented graph adds nothing"):
        rng = random.Random(83)
        for _ in range(1500):
            g = random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.3)
            res = solve_or_none(g)
            if res is None:
                continue
            g2 = apply_result(g, res)
            assert is_componentwise_biconnected(g2)
            assert augment(g2).size == 0
        for g in (
            spider_graph([1, 2, 3, 4]),
            broom_graph(5, 5),
            caterpillar_graph(30),
        ):
            g2 = apply_result(g, augment(g))
            assert augment(g2).size == 0
