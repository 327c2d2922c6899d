"""Minimum augmentation to componentwise biconnectivity.

The driver classifies the whole graph first: nothing to do, too thin
to fix (one side has fewer than two vertices), one of two special
shapes built around a lone edge, or the general shapes.  Disconnected
graphs are merged component by component with bridge edges that each
lower the remaining demand by one, after which a single component
remains and the tree based solver finishes it.

The connected solver walks the structure tree: terminal cases emit all
their edges at once, iterative cases add one edge, collapse the tree
path it closes, and reclassify.  Every added edge is checked legal on
the way out and the final count is checked against the closed form
target; a miss raises InvariantViolation, also under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import (
    C_NODE,
    S_NODE,
    BlockRec,
    BlockTree,
    Decomposition,
    PendantRec,
    decompose,
    pendant_records,
)
from .bounds import (
    BLOCK,
    EDGE,
    NEEDY,
    ComponentCensus,
    census,
    classify_m,
    theorem_target,
)
from .errors import ClingPartitionViolation, InvariantViolation, NoBiconnector
from .graph import BipartiteGraph
from .matching import counts_of, maximum_legal_matching, pick_cross_pair, profile
from .stats import OpCounters
from .treeindex import AugTreeIndex


@dataclass
class AugmentationResult:
    added_edges: list[tuple[str, str]]  # label pairs, A side first
    trace: list[str]  # per edge case tag
    target: int

    @property
    def size(self) -> int:
        return len(self.added_edges)


class _State:
    """Mutable view of the graph while edges are being added."""

    def __init__(self, g: BipartiteGraph, counters: OpCounters):
        self.g = g
        self.adj: list[list[int]] = [list(nb) for nb in g.adj]
        self.edge_set: set[tuple[int, int]] = set(g.edge_set)
        self.added: list[tuple[int, int]] = []
        self.cases: list[str] = []
        self.counters = counters

    def add_edge(self, u: int, v: int, case: str) -> None:
        if self.g.sides[u] == 1:
            u, v = v, u
        assert self.g.sides[u] == 0 and self.g.sides[v] == 1, "edge within one side"
        assert (u, v) not in self.edge_set, "edge already present"
        self.edge_set.add((u, v))
        self.adj[u].append(v)
        self.adj[v].append(u)
        self.added.append((u, v))
        self.cases.append(case)
        self.counters.edges_added += 1

    def current_graph(self) -> BipartiteGraph:
        return BipartiteGraph(self.g.labels, self.g.sides, self.edge_set)


def _binding_edge(
    r1: BlockRec | PendantRec, t1: str, k1: int, r2: BlockRec | PendantRec, t2: str, k2: int
) -> tuple[int, int]:
    """Edge between noncut vertices of two pendant blocks, A side first.

    For two nonsingular pendants the A endpoint comes from the lower
    keyed block, so repeated runs pick identical vertices.
    """
    if t1 == "A" or (t1 == "AB" and t2 == "B"):
        ra, rb = r1, r2
    elif t2 == "A" or (t2 == "AB" and t1 == "B"):
        ra, rb = r2, r1
    else:
        assert t1 == t2 == "AB"
        ra, rb = (r1, r2) if k1 <= k2 else (r2, r1)
    u, v = ra.min_nc[0], rb.min_nc[1]
    assert u is not None and v is not None, "pendant lacks a noncut vertex"
    return u, v


def augment(
    g: BipartiteGraph,
    counters: OpCounters | None = None,
    self_check: bool = False,
) -> AugmentationResult:
    """Compute a smallest set of side respecting edges whose addition
    makes every component a block or a lone vertex.

    Raises NoBiconnector when work is needed but one side has fewer
    than two vertices.  With self_check the incremental structures are
    audited against a rebuild after every solver step; slow, test only.
    """
    counters = counters if counters is not None else OpCounters()
    dec = decompose(g, counters)
    cen = census(dec)
    recs = pendant_records(g, dec)
    target = theorem_target(g, dec, recs)
    label = classify_m(cen, profile(*counts_of([p.ptype for p in recs])).m)
    if label == "M6":
        return AugmentationResult([], [], 0)
    na = sum(1 for s in g.sides if s == 0)
    nb = g.n - na
    if na < 2 or nb < 2:
        raise NoBiconnector(
            f"a side with {min(na, nb)} vertices cannot anchor any cycle"
        )
    st = _State(g, counters)
    if label == "M4":
        _case_m4(st, dec, cen)
    elif label == "M5":
        _case_m5(st, g, dec, cen)
    elif label == "M1":
        _case_m1(st, g, dec, cen, self_check)
    elif label == "M2":
        _case_m2(st, g, dec, cen, recs)
    else:
        _case_m3(st, cen, recs, self_check)
    _check(len(st.added) == target, f"emitted {len(st.added)}, target {target}")
    added_labels = [(g.labels[u], g.labels[v]) for u, v in st.added]
    return AugmentationResult(added_labels, st.cases, target)


# ----------------------------------------------------------------------
# whole graph cases


def _case_m4(st: _State, dec: Decomposition, cen: ComponentCensus) -> None:
    """A lone edge among lone vertices: close a four cycle through it."""
    g = st.g
    edge_comp = next(
        comp for comp, cls in zip(dec.comps, cen.comp_classes) if cls == EDGE
    )
    u, v = edge_comp
    r, c = (u, v) if g.sides[u] == 0 else (v, u)
    spare_a = min(
        x for x in range(g.n) if g.sides[x] == 0 and dec.degree[x] == 0
    )
    spare_b = min(
        x for x in range(g.n) if g.sides[x] == 1 and dec.degree[x] == 0
    )
    st.add_edge(r, spare_b, "M4")
    st.add_edge(spare_a, c, "M4")
    st.add_edge(spare_a, spare_b, "M4")


def _case_m5(
    st: _State, g: BipartiteGraph, dec: Decomposition, cen: ComponentCensus
) -> None:
    """A lone edge next to finished blocks: hang it off the first block."""
    edge_comp = next(
        comp for comp, cls in zip(dec.comps, cen.comp_classes) if cls == EDGE
    )
    u, v = edge_comp
    r, c = (u, v) if g.sides[u] == 0 else (v, u)
    host = next(
        comp for comp, cls in zip(dec.comps, cen.comp_classes) if cls == BLOCK
    )
    host_a = min(x for x in host if g.sides[x] == 0)
    host_b = min(x for x in host if g.sides[x] == 1)
    st.add_edge(r, host_b, "M5")
    st.add_edge(host_a, c, "M5")


def _case_m1(
    st: _State,
    g: BipartiteGraph,
    dec: Decomposition,
    cen: ComponentCensus,
    self_check: bool = False,
) -> None:
    """One component needs work; everything else is already finished."""
    cid = cen.comp_classes.index(NEEDY)
    comp = dec.comps[cid]
    a_in = [x for x in comp if g.sides[x] == 0]
    b_in = [x for x in comp if g.sides[x] == 1]
    if len(a_in) >= 2 and len(b_in) >= 2:
        _solve_connected(st, g, dec, cid, self_check)
        return
    # the component is a star: one hub on the thin side, all other
    # members are its leaves; borrow opposite side vertices from outside
    if len(b_in) == 1:
        leaves, out_side = a_in, 1
    else:
        assert len(a_in) == 1
        leaves, out_side = b_in, 0
    isolated = [
        x
        for x in range(g.n)
        if g.sides[x] == out_side and dec.degree[x] == 0
    ]
    if isolated:
        w = min(isolated)
        for leaf in leaves:
            st.add_edge(leaf, w, "M1")
        return
    host = next(
        comp2 for comp2, cls in zip(dec.comps, cen.comp_classes) if cls == BLOCK
    )
    side_vs = [x for x in host if g.sides[x] == out_side]
    w1, w2 = side_vs[0], side_vs[1]
    st.add_edge(leaves[0], w1, "M1")
    for leaf in leaves[1:]:
        st.add_edge(leaf, w2, "M1")


def _case_m2(
    st: _State,
    g: BipartiteGraph,
    dec: Decomposition,
    cen: ComponentCensus,
    recs: list[PendantRec],
) -> None:
    """Several components, all pendants one type: round robin stitch.

    Every pendant vertex of component i gets an edge to the lowest
    opposite side vertex of the next component in order.
    """
    cids = [
        cid
        for cid, cls in enumerate(cen.comp_classes)
        if cls in (NEEDY, EDGE)
    ]
    assert len(cids) >= 2
    types = {p.ptype for p in recs}
    assert types in ({"A"}, {"B"}), f"uniform case saw pendant types {types}"
    side = 0 if types == {"A"} else 1
    anchors = {}
    for cid in cids:
        anchors[cid] = min(
            x for x in dec.comps[cid] if g.sides[x] == 1 - side
        )
    by_comp: dict[int, list[PendantRec]] = {cid: [] for cid in cids}
    for p in recs:
        by_comp[p.comp].append(p)
    for pos, cid in enumerate(cids):
        nxt = cids[(pos + 1) % len(cids)]
        for p in by_comp[cid]:
            st.add_edge(p.key, anchors[nxt], "M2")


def _case_m3(
    st: _State,
    cen: ComponentCensus,
    recs: list[PendantRec],
    self_check: bool = False,
) -> None:
    """Several components and pairable pendants: bridge them together.

    Each bridge joins the first live component (component ids follow
    the smallest vertex, and this one absorbs every other) to the rest
    through a pair that lowers the pair count by exactly one, so the
    remaining demand falls by one per edge.  Finishes with the one
    component case, or the uniform stitch if pairs run out first.
    """
    live = [
        cid
        for cid, cls in enumerate(cen.comp_classes)
        if cls in (NEEDY, EDGE)
    ]
    pend: dict[int, dict[str, list[PendantRec]]] = {
        cid: {"A": [], "B": [], "AB": []} for cid in live
    }
    for p in recs:
        pend[p.comp][p.ptype].append(p)  # recs arrive sorted by key
    w1 = live[0]
    total = list(counts_of([p.ptype for p in recs]))
    slot = {"A": 0, "B": 1, "AB": 2}

    while len(live) > 1 and profile(*total).m > 0:
        c1 = (
            len(pend[w1]["A"]),
            len(pend[w1]["B"]),
            len(pend[w1]["AB"]),
        )
        c2 = tuple(t - o for t, o in zip(total, c1))
        t1, t2 = pick_cross_pair(c1, c2)
        rep1 = pend[w1][t1].pop(0)
        rep2 = None
        w2 = -1
        for cid in live:
            if cid == w1 or not pend[cid][t2]:
                continue
            cand = pend[cid][t2][0]
            if rep2 is None or cand.key < rep2.key:
                rep2, w2 = cand, cid
        assert rep2 is not None
        pend[w2][t2].pop(0)
        u, v = _binding_edge(rep1, t1, rep1.key, rep2, t2, rep2.key)
        st.add_edge(u, v, "M3")
        total[slot[t1]] -= 1
        total[slot[t2]] -= 1
        # merge w2 into w1
        for t in ("A", "B", "AB"):
            merged = pend[w1][t] + pend[w2][t]
            merged.sort(key=lambda p: p.key)
            pend[w1][t] = merged
        live.remove(w2)

    g2 = st.current_graph()
    dec2 = decompose(g2, st.counters)
    cen2 = census(dec2)
    recs2 = pendant_records(g2, dec2)
    if len(live) == 1:
        assert cen2.c_total == 1
        _case_m1(st, g2, dec2, cen2, self_check)
    else:
        _case_m2(st, g2, dec2, cen2, recs2)


# ----------------------------------------------------------------------
# connected component solver


def _solve_connected(
    st: _State,
    gcur: BipartiteGraph,
    dec: Decomposition,
    cid: int,
    self_check: bool = False,
) -> None:
    comp = dec.comps[cid]
    tree = BlockTree.build(gcur, dec, comp, st.counters)
    index = AugTreeIndex(tree, st.counters)
    eta0 = index.eta_now()
    start = len(st.added)
    while index.leaf_total() > 0:
        case = index.s_case()
        if case == "S5":
            _hub_step(st, tree, index)
        elif case == "S4_2":
            _branch_step(st, tree, index)
        else:
            _TERMINAL[case](st, tree, index)
            break
        if self_check:
            _audit_against_rebuild(st, comp[0], index)
    _check(len(st.added) - start == eta0, "connected solve missed its bound")


def _check(ok: bool, what: str) -> None:
    """An invariant check that python -O keeps."""
    if not ok:
        raise InvariantViolation(what)


def _audit_against_rebuild(st: _State, anchor: int, index: AugTreeIndex) -> None:
    """Compare the incrementally maintained state with a from-scratch
    decomposition of the graph as it stands now."""
    index.audit()
    g2 = st.current_graph()
    dec2 = decompose(g2)
    cid2 = dec2.comp_id[anchor]
    types = [p.ptype for p in pendant_records(g2, dec2) if p.comp == cid2]
    counts = counts_of(types)
    assert index.counts() == counts, "leaf census drifted from rebuild"
    max_d = max(dec2.branch_count(v) for v in dec2.comps[cid2])
    assert index.max_cdeg == max_d, "split degree drifted from rebuild"
    prof = profile(*counts)
    assert index.eta_now() == max(max_d - 1, prof.m + prof.r, 0)


def _emit_leaf_pair(st: _State, tree: BlockTree, n1: int, n2: int, case: str) -> None:
    r1, r2 = tree.payload[n1], tree.payload[n2]
    t1, t2 = tree.leaf_type(n1), tree.leaf_type(n2)
    u, v = _binding_edge(r1, t1, n1, r2, t2, n2)
    st.add_edge(u, v, case)


def _terminal_small(st: _State, tree: BlockTree, index: AugTreeIndex) -> None:
    """At most three pendants left."""
    leaves = sorted(tree.leaves())
    if len(leaves) == 2:
        t1, t2 = tree.leaf_type(leaves[0]), tree.leaf_type(leaves[1])
        if t1 == t2 and t1 in ("A", "B"):
            _terminal_uniform(st, tree, index, case="S1")
        else:
            _emit_leaf_pair(st, tree, leaves[0], leaves[1], "S1")
        return
    assert len(leaves) == 3
    if index.m_value() == 0:
        _terminal_uniform(st, tree, index, case="S1")
    else:
        _terminal_one_branch(st, tree, index, case="S1")


def _terminal_uniform(
    st: _State, tree: BlockTree, index: AugTreeIndex, case: str = "S2"
) -> None:
    """All pendants are single vertices on one side.

    Every pendant hangs off some cut vertex by a bridge.  All pendants
    on the first bridge head's side of the graph go to the first bridge
    head, the rest to a second one, which yields a cycle through every
    former bridge.
    """
    leaves = sorted(tree.leaves())
    assert all(tree.kind[x] == S_NODE for x in leaves)
    pvs: list[int] = []
    partners: list[int] = []
    for x in leaves:
        rec: BlockRec = tree.payload[x]
        v = rec.parts[0]
        knode = tree.parent[x] if tree.parent[x] != -1 else next(iter(tree.children[x]))
        assert tree.kind[knode] == "k"
        a, b = tree.payload[knode]
        pvs.append(v)
        partners.append(b if a == v else a)
    x1 = partners[0]
    xj = next((p for p in partners if p != x1), None)
    assert xj is not None, "all pendants share one bridge head"
    # component of the current graph minus x1 that contains xj
    seen = {x1, xj}
    queue = [xj]
    while queue:
        cur = queue.pop()
        for nb in st.adj[cur]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    seen.discard(x1)
    for v, partner in zip(pvs, partners):
        target = x1 if v in seen else xj
        st.add_edge(v, target, case)


def _terminal_two_critical(st: _State, tree: BlockTree, index: AugTreeIndex) -> None:
    """Two cut vertices each split the graph into half the pendants."""
    crits = sorted(index.critical_nodes())
    assert len(crits) == 2
    u1, u2 = crits
    sides: dict[int, list[int]] = {u1: [], u2: []}
    for leaf in sorted(tree.leaves()):
        prev, cur = leaf, tree.neighbors(leaf)[0]
        while tree.degree(cur) == 2:
            nxt = next(nb for nb in tree.neighbors(cur) if nb != prev)
            prev, cur = cur, nxt
        if cur not in sides:
            raise ClingPartitionViolation(
                f"pendant {leaf} walks to node {cur}, not a critical vertex"
            )
        sides[cur].append(leaf)
    if len(sides[u1]) != len(sides[u2]):
        raise ClingPartitionViolation(
            f"pendant split {len(sides[u1])} vs {len(sides[u2])} is not even"
        )
    buckets1: dict[str, list[int]] = {"A": [], "B": [], "AB": []}
    buckets2: dict[str, list[int]] = {"A": [], "B": [], "AB": []}
    for leaf in sides[u1]:
        buckets1[tree.leaf_type(leaf)].append(leaf)
    for leaf in sides[u2]:
        buckets2[tree.leaf_type(leaf)].append(leaf)
    used1 = {"A": 0, "B": 0, "AB": 0}
    used2 = {"A": 0, "B": 0, "AB": 0}
    for _ in range(len(sides[u1])):
        c1 = tuple(len(buckets1[t]) - used1[t] for t in ("A", "B", "AB"))
        c2 = tuple(len(buckets2[t]) - used2[t] for t in ("A", "B", "AB"))
        t1, t2 = pick_cross_pair(c1, c2)
        n1 = buckets1[t1][used1[t1]]
        n2 = buckets2[t2][used2[t2]]
        used1[t1] += 1
        used2[t2] += 1
        _emit_leaf_pair(st, tree, n1, n2, "S3")


def _terminal_one_branch(
    st: _State, tree: BlockTree, index: AugTreeIndex, case: str = "S4_1"
) -> None:
    """A single branching node: pair up pendants, then attach leftovers
    to already matched pendants."""
    leaves = sorted(tree.leaves())
    pairs, leftovers = maximum_legal_matching(
        [(x, tree.leaf_type(x)) for x in leaves]
    )
    matched: list[int] = []
    for n1, n2 in pairs:
        _emit_leaf_pair(st, tree, n1, n2, case)
        matched.extend((n1, n2))
    matched.sort()
    first_partner = {
        t: next(
            (x for x in matched if not (t == tree.leaf_type(x) and t in ("A", "B"))),
            -1,
        )
        for t in ("A", "B", "AB")
    }
    for lone in leftovers:
        partner = first_partner[tree.leaf_type(lone)]
        assert partner != -1, "leftover pendant has no matched partner"
        _emit_leaf_pair(st, tree, lone, partner, case)


def _hub_step(st: _State, tree: BlockTree, index: AugTreeIndex) -> None:
    """One reduction at a cut vertex splitting harder than pairs can pay."""
    root = tree.root
    assert tree.kind[root] == C_NODE
    eta_before = index.eta_now()
    deg_before = tree.degree(root)
    path1, path2 = index.hub_step_pair()
    n1, n2 = path1[-1], path2[-1]
    _emit_leaf_pair(st, tree, n1, n2, "S5")
    full = list(reversed(path1)) + [root] + path2
    info = tree.collapse(full, st.counters)
    index.update_after_collapse(info)
    assert tree.degree(root) == deg_before - 1, "hub degree must drop by one"
    _check(index.eta_now() == eta_before - 1, "demand must drop by one")


def _branch_step(st: _State, tree: BlockTree, index: AugTreeIndex) -> None:
    """One reduction across the root: pick, join, collapse."""
    action, node = index.choose_root()
    if action == "rebuild":
        index.rebuild(node)
        if st.counters:
            st.counters.bump("index_rebuilds")
    elif action == "walk":
        index.reroot_walk(node)
    root = tree.root
    eta_before = index.eta_now()
    path1, path2 = index.find_pair()
    n1, n2 = path1[-1], path2[-1]
    _emit_leaf_pair(st, tree, n1, n2, "S4_2")
    full = list(reversed(path1)) + [root] + path2
    info = tree.collapse(full, st.counters)
    index.update_after_collapse(info)
    _check(index.eta_now() == eta_before - 1, "demand must drop by one")


# terminal cases by the tag AugTreeIndex.s_case() gives them
_TERMINAL = {
    "S1": _terminal_small,
    "S2": _terminal_uniform,
    "S3": _terminal_two_critical,
    "S4_1": _terminal_one_branch,
}
