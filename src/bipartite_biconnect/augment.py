"""Minimum augmentation to componentwise biconnectivity.

`analyse` decomposes the whole graph once, takes its census, counts
and pairs its pendants by type, and so fixes the case and the closed
form target; `solve` works from that record, as `augment --stats`
reports it.  The case is nothing to do, too thin to fix (one side has
fewer than two vertices), one of two special shapes built around a
lone edge, or the general shapes.  Several components
needing work are joined to the first one by bridge edges that each
lower the remaining demand by one, in O(1) amortized per bridge.  If
one component is left, the first decomposition's join hands its parts
to the tree based solver; if the pendant pairs run out first, the
bridge loop's own records finish the job with a round robin stitch in
O(n).  Either way each input is decomposed once.

The connected solver walks the structure tree: terminal cases emit all
their edges at once, iterative cases add one edge, collapse the tree
path it closes, and reclassify.  Every added edge is checked legal on
the way out and the final count is checked against the closed form
target; a miss raises InvariantViolation, also under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .blocks import (
    C_NODE,
    K_NODE,
    S_NODE,
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
from .errors import InvariantViolation, NoBiconnector, check
from .graph import BipartiteGraph
from .matching import (
    AB,
    TYPES,
    A,
    B,
    MatchingProfile,
    counts_of,
    joinable,
    maximum_legal_matching,
    pair_count,
    pick_cross_pair,
    profile,
)
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
        self.added: list[tuple[int, int]] = []
        self.added_set: set[tuple[int, int]] = set()
        self.cases: list[str] = []
        self.counters = counters

    def add_edge(self, u: int, v: int, case: str) -> None:
        n = self.g.n
        if not (0 <= u < n and 0 <= v < n):
            raise InvariantViolation(f"edge end out of range: {u} {v}")
        if self.g.sides[u] == 1:
            u, v = v, u
        if self.g.sides[u] != 0 or self.g.sides[v] != 1:
            raise InvariantViolation("edge within one side")
        if self.g.has_edge(u, v) or (u, v) in self.added_set:
            raise InvariantViolation("edge already present")
        self.added_set.add((u, v))
        self.added.append((u, v))
        self.cases.append(case)
        self.counters.edges_added += 1


def _binding_edge(
    a1: int, b1: int, t1: int, k1: int, a2: int, b2: int, t2: int, k2: int
) -> tuple[int, int]:
    """Edge between noncut vertices of two pendant blocks, A side first.

    a1, b1 and a2, b2 are the pendants' smallest noncut vertices on side
    A and on side B, -1 for none.  For two nonsingular pendants the A
    endpoint comes from the lower keyed block, so repeated runs pick
    identical vertices.
    """
    first_is_a = k1 <= k2 if t1 == t2 == AB else t1 == A or t2 == B
    return (a1, b2) if first_is_a else (a2, b1)


@dataclass(slots=True)
class Analysis:
    """The whole graph as the solver reads it before it adds any edge."""

    dec: Decomposition
    cen: ComponentCensus
    recs: list[PendantRec]
    counts: tuple[int, int, int]
    prof: MatchingProfile
    label: str
    target: int


def analyse(g: BipartiteGraph, counters: OpCounters | None = None) -> Analysis:
    """Decompose g once, counting into counters, and fix its case and target."""
    dec = decompose(g, counters)
    cen = census(dec)
    recs = pendant_records(g, dec)
    counts = counts_of([p.ptype for p in recs])
    prof = profile(*counts)
    label = classify_m(cen, prof.m)
    target = theorem_target(label, dec, cen, prof)
    return Analysis(dec, cen, recs, counts, prof, label, target)


def augment(g: BipartiteGraph, counters: OpCounters | None = None) -> AugmentationResult:
    """Compute a smallest set of side respecting edges whose addition
    makes every component a block or a lone vertex.

    Raises NoBiconnector when work is needed but one side has fewer
    than two vertices.  counters, when given, accumulates the solve's
    work counts.
    """
    counters = counters if counters is not None else OpCounters()
    return solve(g, analyse(g, counters), counters)


def solve(g: BipartiteGraph, a: Analysis, counters: OpCounters) -> AugmentationResult:
    """augment(g) from g's analysis a; counters accumulates the work."""
    if a.label == "M6":
        return AugmentationResult([], [], 0)
    thin = min(g.sides.count(0), g.sides.count(1))
    if thin < 2:
        raise NoBiconnector(f"a side with {thin} vertices cannot anchor any cycle")
    st = _State(g, counters)
    _WHOLE[a.label](st, a)
    if len(st.added) != a.target:
        raise InvariantViolation(f"emitted {len(st.added)}, target {a.target}")
    added_labels = [(g.labels[u], g.labels[v]) for u, v in st.added]
    return AugmentationResult(added_labels, st.cases, a.target)


# ----------------------------------------------------------------------
# whole graph cases


def _case_m4(st: _State, a: Analysis) -> None:
    """A lone edge among lone vertices: close a four cycle through it."""
    g = st.g
    u, v = a.dec.comps[a.cen.comp_classes.index(EDGE)]
    r, c = (u, v) if g.sides[u] == 0 else (v, u)
    spare_a = min(x for x in range(g.n) if g.sides[x] == 0 and not g.adj[x])
    spare_b = min(x for x in range(g.n) if g.sides[x] == 1 and not g.adj[x])
    st.add_edge(r, spare_b, "M4")
    st.add_edge(spare_a, c, "M4")
    st.add_edge(spare_a, spare_b, "M4")


def _case_m5(st: _State, a: Analysis) -> None:
    """A lone edge next to finished blocks: hang it off the first block."""
    g, dec, classes = st.g, a.dec, a.cen.comp_classes
    u, v = dec.comps[classes.index(EDGE)]
    r, c = (u, v) if g.sides[u] == 0 else (v, u)
    host = dec.comps[classes.index(BLOCK)]
    host_a = min(x for x in host if g.sides[x] == 0)
    host_b = min(x for x in host if g.sides[x] == 1)
    st.add_edge(r, host_b, "M5")
    st.add_edge(host_a, c, "M5")


def _case_m1(st: _State, a: Analysis) -> None:
    """One component needs work; everything else is already finished."""
    g, dec = st.g, a.dec
    cid = a.cen.comp_classes.index(NEEDY)
    comp = dec.comps[cid]
    a_in = [x for x in comp if g.sides[x] == 0]
    b_in = [x for x in comp if g.sides[x] == 1]
    if len(a_in) >= 2 and len(b_in) >= 2:
        _solve_connected(st, dec.branches, *dec.component(cid))
        return
    # the component is a star: one hub on the thin side, all other
    # members are its leaves; borrow opposite side vertices from outside
    if len(b_in) == 1:
        leaves, out_side = a_in, 1
    else:
        check(len(a_in) == 1, "a star needs a hub on one side")
        leaves, out_side = b_in, 0
    isolated = [x for x in range(g.n) if g.sides[x] == out_side and not g.adj[x]]
    if isolated:
        w = min(isolated)
        for leaf in leaves:
            st.add_edge(leaf, w, "M1")
        return
    host = dec.comps[a.cen.comp_classes.index(BLOCK)]
    side_vs = [x for x in host if g.sides[x] == out_side]
    w1, w2 = side_vs[0], side_vs[1]
    st.add_edge(leaves[0], w1, "M1")
    for leaf in leaves[1:]:
        st.add_edge(leaf, w2, "M1")


def _case_m3(st: _State, a: Analysis) -> None:
    """Several components need work: bridge them, then stitch or solve.

    Each bridge joins the first component w1 (component ids follow the
    smallest vertex, and this one absorbs every other) to the rest
    through a pair that lowers the pair count m by exactly one, so the
    remaining demand falls by one per edge and m is carried, not
    recomputed.  An input with no pairs gets no bridges.

    A bridge costs O(1) amortized plus one heap pop, and each pendant
    is pushed at most once.  w1's end of the bridge is the first of its
    unused pendants of the chosen type, kept in a heap per type; the
    partner is the first pendant of its type outside w1, found by a
    cursor per type over recs that only moves forward, since a used
    pendant always lies in w1 and joining w1 is permanent.  "First"
    means first in recs, which is sorted by key: keys tie only between
    AB pendants of one component, and recs order breaks those ties.

    A bridge uses up one pendant on each side and leaves every other
    pendant a pendant.  So if the pairs run out with two or more
    components left, w1's heaps and the untouched components' records
    hold every pendant, all single vertices of one side, and a round
    robin stitch finishes in O(n): each pendant gets an edge to the
    smallest opposite side vertex of the next group, w1 with all it
    joined being one group.  If one component is left, the join hands
    it to the tree solver: a bridge between two pendants makes each end
    a cut vertex with one more piece and one more edge and changes no
    block, so the joined components' parts, with the bridges, are those
    of the bridged graph's decomposition.
    """
    dec, recs = a.dec, a.recs
    order: list[list[int]] = [[], [], []]  # recs indices per type
    members: dict[int, list[int]] = {}  # recs indices per component
    for i, p in enumerate(recs):  # recs arrive sorted by key
        order[p.ptype].append(i)
        members.setdefault(p.comp, []).append(i)
    # components still to join w1; left counts them and w1
    outside = [cls in (NEEDY, EDGE) for cls in a.cen.comp_classes]
    left = sum(outside)
    w1 = outside.index(True)
    outside[w1] = False
    joined = [w1]  # w1 and every component it absorbed
    own: list[list[int]] = [[], [], []]  # heaps of w1's unused pendants
    for i in members[w1]:
        own[recs[i].ptype].append(i)  # ascending, so already heaps
    cursor = [0, 0, 0]
    total = [len(ids) for ids in order]
    m = pair_count(*total)

    while left > 1 and m > 0:
        c1 = (len(own[0]), len(own[1]), len(own[2]))
        c2 = tuple(t - o for t, o in zip(total, c1))
        t1, t2 = pick_cross_pair(c1, c2)
        rep1 = recs[heappop(own[t1])]
        ids, pos = order[t2], cursor[t2]
        while not outside[recs[ids[pos]].comp]:
            pos += 1
        cursor[t2] = pos + 1
        rep2 = recs[ids[pos]]
        u, v = _binding_edge(
            rep1.min_a, rep1.min_b, t1, rep1.key, rep2.min_a, rep2.min_b, t2, rep2.key
        )
        st.add_edge(u, v, "M3")
        total[t1] -= 1
        total[t2] -= 1
        m -= 1
        # join rep2's component to w1
        outside[rep2.comp] = False
        joined.append(rep2.comp)
        left -= 1
        for i in members[rep2.comp]:
            if i != ids[pos]:
                heappush(own[recs[i].ptype], i)

    if left == 1:
        # bridges joined everything, so the component has two vertices
        # on each side and is no star
        _solve_connected(st, *dec.join(joined, st.added))
        return
    side = A if total[A] else B  # a single vertex pendant's type is its side
    check(total[1 - side] == total[AB] == 0, "stitch saw pendants of two types")
    groups = [(sorted(own[side]), joined)]
    groups += [(members[cid], [cid]) for cid, out in enumerate(outside) if out]
    sides = st.g.sides
    anchors = [
        min(next(x for x in dec.comps[cid] if sides[x] != side) for cid in comps)
        for _, comps in groups
    ]
    for pos, (pendants, _) in enumerate(groups):
        nxt = anchors[(pos + 1) % len(groups)]
        for i in pendants:
            st.add_edge(recs[i].key, nxt, "M2")


# ----------------------------------------------------------------------
# connected component solver


def _solve_connected(
    st: _State, branches: list[int], comp: list[int], blocks: list, bridges: list
) -> None:
    # the build reads only the sides of the graph, which bridges keep
    tree = BlockTree.build(st.g, branches, comp, blocks, bridges, st.counters)
    index = AugTreeIndex(tree, st.counters)
    eta = eta0 = index.eta_now()
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
        # each iterative step adds one edge and must lower the demand by one
        eta -= 1
        if index.eta_now() != eta:
            raise InvariantViolation("demand must drop by one")
    check(len(st.added) - start == eta0, "connected solve missed its bound")


def _emit_leaf_pair(
    st: _State, tree: BlockTree, n1: int, n2: int, t1: int, t2: int, case: str
) -> None:
    """Add the binding edge between leaves n1 and n2 of types t1 and t2."""
    a, b = tree.min_a, tree.min_b
    u, v = _binding_edge(a[n1], b[n1], t1, n1, a[n2], b[n2], t2, n2)
    st.add_edge(u, v, case)


def _terminal_small(st: _State, tree: BlockTree, index: AugTreeIndex) -> None:
    """At most three pendants left: none pair up, or one branch pairs
    them and attaches the leftover."""
    if index.m_value() == 0:
        _terminal_uniform(st, tree, index, case="S1")
    else:
        _terminal_one_branch(st, tree, index, case="S1")


def _terminal_uniform(
    st: _State, tree: BlockTree, index: AugTreeIndex, case: str = "S2"
) -> None:
    """All pendants are single vertices on one side.

    Every pendant hangs off some cut vertex, its head, by a bridge.
    All pendants on the second head's side of the first head go to the
    first head, the rest to the second head, which yields a cycle
    through every former bridge.  The split is read off the structure
    tree: a pendant is on the second head's side when its walk toward
    the root enters the first head's node from the same child as the
    second head's walk, or misses that node as the second head's does.
    """
    leaves = sorted(tree.leaves())
    check(all(tree.kind[x] == S_NODE for x in leaves), "a pendant is not a vertex")
    heads: list[int] = []
    for x in leaves:
        knode = tree.next_along(x, -1)
        check(tree.kind[knode] == K_NODE, "a pendant hangs by no bridge")
        heads.append(tree.next_along(knode, x))
    h1 = heads[0]
    hj = next((h for h in heads if h != h1), None)
    check(hj is not None, "all pendants share one bridge head")
    # each node's side is the child of h1 its walk enters h1 from, or
    # -1 for a walk that misses h1; every node is walked once
    side = {h1: h1, -1: -1}

    def side_of(v: int) -> int:
        trail = []
        while v not in side:
            trail.append(v)
            v = tree.up(v)
        s = trail[-1] if v == h1 else side[v]
        for u in trail:
            side[u] = s
        return s

    hj_side = side_of(hj)
    x1, xj = tree.payload[h1], tree.payload[hj]
    for x in leaves:
        st.add_edge(tree.payload[x], x1 if side_of(x) == hj_side else xj, case)


def _terminal_two_critical(st: _State, tree: BlockTree, index: AugTreeIndex) -> None:
    """Two cut vertices each split the graph into half the pendants."""
    crits = sorted(index.critical_nodes())
    check(len(crits) == 2, "two critical cases need two critical nodes")
    u1, u2 = crits
    sides: dict[int, list[int]] = {u1: [], u2: []}
    for leaf in sorted(tree.leaves()):
        prev, cur = leaf, tree.next_along(leaf, -1)
        while tree.degree(cur) == 2:
            prev, cur = cur, tree.next_along(cur, prev)
        if cur not in sides:
            raise InvariantViolation(
                f"pendant {leaf} walks to node {cur}, not a critical vertex"
            )
        sides[cur].append(leaf)
    if len(sides[u1]) != len(sides[u2]):
        raise InvariantViolation(
            f"pendant split {len(sides[u1])} vs {len(sides[u2])} is not even"
        )
    # per side and type, a stack that pops its leaves in ascending order
    stacks: list[list[list[int]]] = [[[], [], []], [[], [], []]]
    for stack, u in zip(stacks, crits):
        for leaf in reversed(sides[u]):
            stack[tree.leaf_type(leaf)].append(leaf)
    own, far = stacks
    for _ in range(len(sides[u1])):
        t1, t2 = pick_cross_pair(tuple(map(len, own)), tuple(map(len, far)))
        _emit_leaf_pair(st, tree, own[t1].pop(), far[t2].pop(), t1, t2, "S3")


def _terminal_one_branch(
    st: _State, tree: BlockTree, index: AugTreeIndex, case: str = "S4_1"
) -> None:
    """A single branching node: pair up pendants, then attach leftovers
    to already matched pendants."""
    types = {x: tree.leaf_type(x) for x in sorted(tree.leaves())}
    pairs, leftovers = maximum_legal_matching(list(types.items()))
    matched: list[int] = []
    for n1, n2 in pairs:
        _emit_leaf_pair(st, tree, n1, n2, types[n1], types[n2], case)
        matched.extend((n1, n2))
    matched.sort()
    first_partner = [
        next((x for x in matched if joinable(t, types[x])), -1) for t in TYPES
    ]
    for lone in leftovers:
        partner = first_partner[types[lone]]
        check(partner != -1, "leftover pendant has no matched partner")
        _emit_leaf_pair(st, tree, lone, partner, types[lone], types[partner], case)


def _join_and_collapse(
    st: _State,
    tree: BlockTree,
    index: AugTreeIndex,
    path1: list[int],
    path2: list[int],
    t1: int,
    t2: int,
    case: str,
) -> None:
    """Join the two leaves of types t1 and t2 that end the descent paths
    from the root, then collapse the tree path the new edge closes."""
    _emit_leaf_pair(st, tree, path1[-1], path2[-1], t1, t2, case)
    index.update_after_collapse(tree.collapse(path1, path2, st.counters), t1, t2)


def _hub_step(st: _State, tree: BlockTree, index: AugTreeIndex) -> None:
    """One reduction at a cut vertex splitting harder than pairs can pay."""
    root = tree.root
    if tree.kind[root] != C_NODE:
        raise InvariantViolation("hub step at a root that is no cut vertex")
    deg_before = tree.degree(root)
    _join_and_collapse(st, tree, index, *index.hub_step_pair(), "S5")
    if tree.degree(root) != deg_before - 1:
        raise InvariantViolation("hub degree must drop by one")


def _branch_step(st: _State, tree: BlockTree, index: AugTreeIndex) -> None:
    """One reduction across the root: pick, join, collapse."""
    node = index.choose_root()
    if node != tree.root:
        index.reroot_walk(node)
    _join_and_collapse(st, tree, index, *index.find_pair(), "S4_2")


# whole graph cases by the label classify_m gives them; M6 needs no edge
_WHOLE = {"M1": _case_m1, "M2": _case_m3, "M3": _case_m3, "M4": _case_m4, "M5": _case_m5}

# terminal cases by the tag AugTreeIndex.s_case() gives them
_TERMINAL = {
    "S1": _terminal_small,
    "S2": _terminal_uniform,
    "S3": _terminal_two_critical,
    "S4_1": _terminal_one_branch,
}
