"""Slow, definition-level reference implementations used to pin down
expected values.  Everything here is written straight from first
principles (path enumeration, exhaustive search) so it shares no code
with the package under test, except the step audits, which crosscheck
the solver's incremental structures from inside a solve, the step by
step hub step, which runs inside the solver as the reference for its
hub runs, the reference pair searches, which read the same tree, and
the set-up references at the end: the pendant records, the structure
tree build and the index fill as they were written before they went
flat, kept to pin the set-up to them field by field."""

from __future__ import annotations

import importlib
import random
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

from bipartite_biconnect import (
    BipartiteGraph,
    InvariantViolation,
    add_edges,
    decompose,
    pendant_records,
)
from bipartite_biconnect.blocks import (
    B_NODE,
    C_NODE,
    K_NODE,
    LEAF_CODE,
    S_NODE,
    SLOTS,
    BlockTree,
    walk_list,
)
from bipartite_biconnect.errors import check
from bipartite_biconnect.graph import generate_instance, parse_graph
from bipartite_biconnect.matching import (
    AB,
    CROSS_ORDER,
    LEGAL_COMBOS,
    TYPES,
    A,
    B,
    counts_of,
    is_decrementing,
    joinable,
    pair_count,
)
from bipartite_biconnect.treeindex import AugTreeIndex


# ----------------------------------------------------------------------
# instance construction


def labels_for(na: int, nb: int) -> tuple[list[str], list[int]]:
    labels = [f"a{i + 1}" for i in range(na)] + [f"b{j + 1}" for j in range(nb)]
    return labels, [0] * na + [1] * nb


def graph_from_mask(na: int, nb: int, mask: int) -> BipartiteGraph:
    labels, sides = labels_for(na, nb)
    cells = [(i, na + j) for i in range(na) for j in range(nb)]
    edges = {cells[k] for k in range(len(cells)) if mask >> k & 1}
    return BipartiteGraph(labels, sides, edges)


def all_graphs(na: int, nb: int):
    for mask in range(1 << (na * nb)):
        yield graph_from_mask(na, nb, mask)


def random_graph(rng: random.Random, na: int, nb: int, p: float) -> BipartiteGraph:
    labels, sides = labels_for(na, nb)
    edges = {
        (i, na + j)
        for i in range(na)
        for j in range(nb)
        if rng.random() < p
    }
    return BipartiteGraph(labels, sides, edges)


def mixed_graph(rng: random.Random, n: int, join: float, extra: int) -> BipartiteGraph:
    """A forest plus extra edges: each new vertex joins a random earlier
    vertex of the other side with probability join, else starts a new
    component; then extra random A-B edges close cycles (repeats are
    dropped).  Both sides get at least two vertices."""
    sides = [0, 1, 0, 1] + [rng.randrange(2) for _ in range(n - 4)]
    labels = []
    by_side: list[list[int]] = [[], []]
    edges = set()
    for v, s in enumerate(sides):
        labels.append(f"{'ab'[s]}{len(by_side[s]) + 1}")
        other = by_side[1 - s]
        if other and rng.random() < join:
            u = rng.choice(other)
            edges.add((v, u) if s == 0 else (u, v))
        by_side[s].append(v)
    for _ in range(extra):
        edges.add((rng.choice(by_side[0]), rng.choice(by_side[1])))
    return BipartiteGraph(labels, sides, edges)


def flower_graph(rng: random.Random, petals: int, tails: int) -> BipartiteGraph:
    """Four-cycles through one hub, vertex 0, plus tails hung off random
    vertices.  The hub is the smallest vertex of every petal, so the
    petals that stay pendant blocks tie on their key."""
    hub = rng.randrange(2)
    sides = [hub]
    edges = []
    for _ in range(petals):
        x = len(sides)
        sides += [1 - hub, hub, 1 - hub]
        edges += [(0, x), (x, x + 1), (x + 1, x + 2), (x + 2, 0)]
    for _ in range(tails):
        u = rng.randrange(len(sides))
        edges.append((u, len(sides)))
        sides.append(1 - sides[u])
    return BipartiteGraph([f"v{i}" for i in range(len(sides))], sides, edges)


def path_graph(n: int, first_side: int) -> BipartiteGraph:
    """A path of n vertices starting on first_side; n = 2 is a lone edge."""
    sides = [(first_side + i) % 2 for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return BipartiteGraph([f"v{i}" for i in range(n)], sides, edges)


def sparse_random_graph(n: int) -> BipartiteGraph:
    """G(n/2, n/2) with average degree 2, seeded by n: the generator's
    random family, which draws it in O(n) by geometric skipping."""
    return generate_instance("random", n, seed=n)


def uniform_spider_graph(k: int) -> BipartiteGraph:
    """A B hub with k chains hub-a-b-a: every leaf is an A vertex, so one
    component's pendants pair up nowhere, the S2 case."""
    sides = [1] + [0, 1, 0] * k
    edges = []
    for x in range(1, 3 * k, 3):
        edges += [(x, 0), (x, x + 1), (x + 2, x + 1)]
    return BipartiteGraph([f"v{i}" for i in range(len(sides))], sides, edges)


def one_side_hub_graph(rng: random.Random, chains: int, branches: int) -> BipartiteGraph:
    """A B hub with chains A pendants and branches random subtrees, each
    hung from an A vertex next to the hub and 2 to 4 vertices larger.
    The hub's chains mostly hold one type, so a hub step often has to
    find the partner in a branch with more than one pendant."""
    sides = [1] + [0] * chains
    edges = [(x, 0) for x in range(1, chains + 1)]
    for _ in range(branches):
        members = [len(sides)]
        edges.append((len(sides), 0))
        sides.append(0)
        for _ in range(rng.randint(2, 4)):
            u = rng.choice(members)
            v = len(sides)
            sides.append(1 - sides[u])
            edges.append((u, v) if sides[u] == 0 else (v, u))
            members.append(v)
    return BipartiteGraph([f"v{i}" for i in range(len(sides))], sides, edges)


def a_paths_graph(k: int) -> BipartiteGraph:
    """k disjoint paths a-b-a: every pendant is an A vertex, so the
    components' pendants pair up nowhere, the M2 case."""
    edges = [(x + d, x + 1) for x in range(0, 3 * k, 3) for d in (0, 2)]
    return BipartiteGraph([f"v{i}" for i in range(3 * k)], [0, 1, 0] * k, edges)


# ----------------------------------------------------------------------
# connectivity from scratch


def oracle_components(g: BipartiteGraph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def _connected_avoiding(g: BipartiteGraph, u: int, v: int, banned: int) -> bool:
    """Is there a u..v path avoiding the banned vertex?"""
    if u == banned or v == banned:
        return False
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            return True
        for y in g.adj[x]:
            if y != banned and y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def reached_avoiding(g: BipartiteGraph, start: int, banned: int) -> set[int]:
    """Vertices reachable from start without passing the banned vertex."""
    seen = {start}
    queue = deque([start])
    while queue:
        for y in g.adj[queue.popleft()]:
            if y != banned and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def oracle_cut_vertices(g: BipartiteGraph) -> set[int]:
    cuts = set()
    for comp in oracle_components(g):
        if len(comp) < 3:
            continue
        for v in comp:
            start = comp[1] if v == comp[0] else comp[0]
            if len(reached_avoiding(g, start, v)) < len(comp) - 1:
                cuts.add(v)
    return cuts


def oracle_on_common_cycle(g: BipartiteGraph, u: int, v: int) -> bool:
    """Two distinct vertices lie on a common simple cycle exactly when
    two internally disjoint paths join them."""
    if u == v:
        return False
    if not _connected_avoiding(g, u, v, -1):
        return False
    if g.has_edge(u, v):
        # the edge is one path; any second path avoids no vertex in
        # particular, so look for a u..v walk not using the edge
        return _joined_without_edge(g, u, v)
    return all(
        _connected_avoiding(g, u, v, w)
        for w in range(g.n)
        if w not in (u, v)
    )


def _joined_without_edge(g: BipartiteGraph, u: int, v: int) -> bool:
    """Is there a u..v walk that does not use the edge between them?"""
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.adj[x]:
            if x == u and y == v:
                continue
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def oracle_bridges(g: BipartiteGraph) -> list[tuple[int, int]]:
    """Edges on no cycle, A end first and ascending."""
    return [(u, v) for u, v in g.edges if not _joined_without_edge(g, u, v)]


def oracle_nonsingular_blocks(g: BipartiteGraph) -> list[frozenset[int]]:
    """Maximal sets of pairwise cycle-sharing vertices, one per
    cycle-bearing edge class.  Exponential; keep graphs tiny."""
    related = {
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if oracle_on_common_cycle(g, u, v)
    }
    blocks: set[frozenset[int]] = set()
    for u, v in related:
        members = {u, v}
        for w in range(g.n):
            if w in (u, v):
                continue
            if all(
                tuple(sorted((w, x))) in related for x in members
            ):
                members.add(w)
        blocks.add(frozenset(members))
    # drop non-maximal leftovers from greedy growth order
    return sorted(
        (b for b in blocks if not any(b < other for other in blocks)),
        key=lambda b: sorted(b),
    )


def oracle_split_count(g: BipartiteGraph, u: int) -> int:
    """Components the removal of u leaves behind, within u's component."""
    comp = next(c for c in oracle_components(g) if u in c)
    if len(comp) == 1:
        return 0
    rest = [x for x in comp if x != u]
    seen: set[int] = set()
    pieces = 0
    for s in rest:
        if s in seen:
            continue
        pieces += 1
        queue = deque([s])
        seen.add(s)
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if y != u and y not in seen:
                    seen.add(y)
                    queue.append(y)
    return pieces


def oracle_component_biconnected(g: BipartiteGraph, comp: list[int]) -> bool:
    if len(comp) == 1:
        return True
    if len(comp) == 2:
        return False
    return all(oracle_split_count(g, v) == 1 for v in comp)


def oracle_componentwise_biconnected(g: BipartiteGraph) -> bool:
    return all(
        oracle_component_biconnected(g, comp) for comp in oracle_components(g)
    )


def oracle_pendants(g: BipartiteGraph) -> list[tuple[str, frozenset[int], int]]:
    """(kind, vertex set, type) for every pendant, sorted by lowest member.

    A pendant is a degree one vertex, or a cycle-closed block attached
    to the rest of its component through exactly one cut vertex.
    """
    cuts = oracle_cut_vertices(g)
    out = []
    for v in range(g.n):
        if g.degree(v) == 1:
            out.append(("sv", frozenset([v]), (A, B)[g.sides[v]]))
    for blk in oracle_nonsingular_blocks(g):
        comp = next(c for c in oracle_components(g) if next(iter(blk)) in c)
        if oracle_component_biconnected(g, comp):
            continue
        if len(blk & cuts) == 1:
            out.append(("ns", blk, AB))
    return sorted(out, key=lambda rec: min(rec[1]))


def pendant_kind(ptype: int) -> str:
    """The oracle_pendants kind of a pendant of this type: a single
    vertex ("sv") is of type A or B, a nonsingular block ("ns") is AB."""
    return "ns" if ptype == AB else "sv"


def oracle_max_matching(n_a: int, n_b: int, n_ab: int) -> int:
    """Largest number of disjoint pairs with both members not of one
    single-side type, by exhaustive search over pair type counts."""
    best = 0
    for x1 in range(min(n_a, n_b) + 1):  # A with B
        for x2 in range(n_a - x1 + 1):  # A with AB
            for x3 in range(n_b - x1 + 1):  # B with AB
                if x2 + x3 > n_ab:
                    continue
                x4 = (n_ab - x2 - x3) // 2  # AB with AB
                best = max(best, x1 + x2 + x3 + x4)
    return best


def massive_and_critical(dec, recs, cid: int) -> tuple[list[int], list[int], int, int]:
    """Massive and critical cut vertices of component cid, then its m and r.

    A cut vertex is massive when deleting it leaves more pieces than
    one more than the component's pair count m plus leftover count r,
    and critical when it leaves exactly that many.  Both lists ascend.
    """
    n = [0, 0, 0]
    for ptype, comp in zip(recs[0], recs[1]):
        if comp == cid:
            n[(A, B, AB).index(ptype)] += 1
    m = oracle_max_matching(*n)
    r = sum(n) - 2 * m
    cuts = [v for v in dec.comps[cid] if dec.branches[v] >= 2]
    massive = [v for v in cuts if dec.branches[v] - 1 > m + r]
    critical = [v for v in cuts if dec.branches[v] - 1 == m + r]
    return massive, critical, m, r


# ----------------------------------------------------------------------
# structure tree walks


def path_between(tree, x: int, y: int) -> list[int]:
    """Tree path from node x to node y via parent pointers."""
    mark = set()
    cur = x
    while cur != -1:
        mark.add(cur)
        cur = tree.up(cur)
    lca = y
    while lca not in mark:
        lca = tree.up(lca)
    up = []
    cur = x
    while cur != lca:
        up.append(cur)
        cur = tree.up(cur)
    down = []
    cur = y
    while cur != lca:
        down.append(cur)
        cur = tree.up(cur)
    return up + [lca] + list(reversed(down))


def collapse_between(tree, n1: int, n2: int, counters=None):
    """Collapse the tree path between leaves n1 and n2 as the solver
    does: hang the tree from an interior node of the path, the topmost
    one unless that is an end, and fuse the two descents from it."""
    path = path_between(tree, n1, n2)
    last = len(path) - 1
    top = next((i for i in range(last) if tree.up(path[i]) != path[i + 1]), last)
    k = min(max(top, 1), last - 1)
    tree.reroot(path[k])
    return tree.collapse(path[k - 1 :: -1], path[k + 1 :], counters)


# ----------------------------------------------------------------------
# step audits: every check raises InvariantViolation, also under python -O


def audit_tree(t) -> None:
    """Crosscheck every parent link, child count, code, bucket and
    presence mask of a structure tree against a from-scratch pass over
    up() that reads no bucket."""
    live = t.live_nodes()
    below: dict[int, list[int]] = {x: [] for x in live}
    for x in live:
        p = t.up(x)
        if x == t.root:
            check(p == -1, "root has a parent")
        else:
            if p == -1 or not t.alive[p]:
                raise InvariantViolation(f"parent link broken at {x}")
            below[p].append(x)
    order = [t.root]
    for x in order:
        order += below[x]
    check(len(order) == len(live), "a live node hangs below no root")
    code: dict[int, int] = {}
    for x in reversed(order):
        kids = below[x]
        code[x] = t._leaf_code(x) if not kids else 8 if len(kids) >= 2 else 0
        for ch in kids:
            code[x] |= code[ch]
    for x in live:
        want: dict[int, set[int]] = {}
        for ch in below[x]:
            want.setdefault(code[ch], set()).add(ch)
        heads = t.heads[t.base[x] : t.base[x] + SLOTS]
        got = [walk_list(h, t.snext, len(live)) for h in heads]
        if t.code[x] != code[x]:
            raise InvariantViolation(f"code mismatch at {x}")
        if t.nkids[x] != len(below[x]):
            raise InvariantViolation(f"child count wrong at {x}")
        if t.present[x] != sum(1 << c for c in want):
            raise InvariantViolation(f"presence mask wrong at {x}")
        buckets = {c: set(m) for c, m in enumerate(got) if m}
        if buckets != want or sum(map(len, got)) != len(below[x]):
            raise InvariantViolation(f"bucket mismatch at {x}")


def _list_sets(heads: dict[int, int], nxt: list[int]) -> dict[int, set[int]]:
    """Members of each linked list, by the key of its head."""
    return {k: set(walk_list(h, nxt, len(nxt))) for k, h in heads.items()}


def audit_index(index: AugTreeIndex) -> None:
    """Crosscheck the tree, then every count and degree group of its
    index against a fresh index."""
    audit_tree(index.tree)
    fresh = AugTreeIndex(index.tree)
    check(index.leaf_counts == fresh.leaf_counts, "leaf counts mismatch")
    check(
        (index._total, index._m, index._mr) == (fresh._total, fresh._m, fresh._mr),
        "pair counts mismatch",
    )
    check(index.cnt_branching == fresh.cnt_branching, "branching count mismatch")
    check(index.max_cdeg == fresh.max_cdeg, "max split degree mismatch")
    check(
        _list_sets(index.grp_head, index.gnext)
        == _list_sets(fresh.grp_head, fresh.gnext),
        "degree group mismatch",
    )


def audit_against_rebuild(
    g: BipartiteGraph, added: list[tuple[int, int]], anchor: int, index: AugTreeIndex
) -> None:
    """Audit the index, then compare it with a from-scratch
    decomposition of g plus the edges added so far, in the component
    of vertex anchor."""
    audit_index(index)
    g2 = add_edges(g, added)
    dec2 = decompose(g2)
    cid2 = dec2.comp_id[anchor]
    ptype, comp = pendant_records(g2, dec2)[:2]
    types = [t for t, c in zip(ptype, comp) if c == cid2]
    counts = counts_of(types)
    check(index.counts() == counts, "leaf census drifted from rebuild")
    max_d = max(dec2.branches[v] for v in dec2.comps[cid2])
    check(index.max_cdeg == max_d, "split degree drifted from rebuild")
    check(
        index.eta_now() == max(max_d - 1, sum(counts) - pair_count(*counts), 0),
        "demand drifted from rebuild",
    )


def _augment_module():
    """The augment module; the package's __init__ shadows its name with
    the function, so it is looked up by its full name."""
    return importlib.import_module("bipartite_biconnect.augment")


def _with_steps(g: BipartiteGraph, **steps):
    """augment(g) with the augment module's functions of these names
    swapped for the given ones, for this call only."""
    mod = _augment_module()
    real = {name: getattr(mod, name) for name in steps}
    for name, fn in steps.items():
        setattr(mod, name, fn)
    try:
        return mod.augment(g)
    finally:
        for name, fn in real.items():
            setattr(mod, name, fn)


def audited_augment(g: BipartiteGraph):
    """augment(g) with every audit above run after each pair of the
    iterative cases (S5 and S4_2); returns the result and the number of
    audits run.

    Each such pair either joins two leaves and collapses the path
    between them in _join_and_collapse, or fuses two chains of the hub
    in _fuse_chains, so the module's bindings of both names are swapped
    for ones that audit after them."""
    mod = _augment_module()
    audits = 0

    def audited(real):
        def step(st, tree, index, *args) -> None:
            nonlocal audits
            real(st, tree, index, *args)
            audit_against_rebuild(st.g, st.added, st.added[-1][0], index)
            audits += 1

        return step

    res = _with_steps(
        g,
        _join_and_collapse=audited(mod._join_and_collapse),
        _fuse_chains=audited(mod._fuse_chains),
    )
    return res, audits


def _ref_hub_step(st, tree, index) -> None:
    """The hub step as one pair per call, each through hub_step_pair and
    the general collapse, checked as it was before hub runs."""
    root = tree.root
    if tree.kind[root] != C_NODE:
        raise InvariantViolation("hub step at a root that is no cut vertex")
    deg_before = tree.degree(root)
    _augment_module()._join_and_collapse(st, tree, index, *index.hub_step_pair(), "S5")
    if tree.degree(root) != deg_before - 1:
        raise InvariantViolation("hub degree must drop by one")


def step_by_step_augment(g: BipartiteGraph):
    """augment(g) with each hub step a single pair through the general
    collapse, the solver's case loop asking for the case after every
    pair: the reference for the hub runs, which fuse chains in place."""
    return _with_steps(g, _hub_run=_ref_hub_step)


# ----------------------------------------------------------------------
# reference pair searches: the branch and hub step searches as written
# before they shared one scan of the root's buckets, each on its own
# helpers, kept to pin the shared search to them step by step


def _ref_child_with(index, p, ptype, many_only=False, exclude=(), need=1):
    """Up to need children of p whose subtree holds a ptype pendant,
    optionally only subtrees with more than one pendant, skipping the
    excluded nodes; buckets in ascending code order."""
    out = []
    many = tuple(c for c in range(8, 16) if c & LEAF_CODE[ptype])
    codes = many if many_only else (LEAF_CODE[ptype], *many)
    t = index.tree
    for c in codes:
        x = t.heads[t.base[p] + c]
        while x != -1 and len(out) < need:
            if x not in exclude:
                out.append(x)
            x = t.snext[x]
        if len(out) >= need:
            return out
    return out


def _ref_chain_children(index, p, code, need=1):
    t = index.tree
    return walk_list(t.heads[t.base[p] + code], t.snext, need)


def ref_find_pair(index):
    """AugTreeIndex.find_pair as it was: the two children in id order at a
    root of degree two, else up to two first ends per combo."""
    t = index.tree
    root = t.root
    counts = index.counts()
    combos = (c for c in CROSS_ORDER if is_decrementing(counts, *c))
    if t.degree(root) == 2:
        k1, k2 = sorted(t.kids(root))
        for t1, t2 in combos:
            b1, b2 = LEAF_CODE[t1], LEAF_CODE[t2]
            if t.code[k1] & b1 and t.code[k2] & b2:
                return index.descend(k1, t1), index.descend(k2, t2), t1, t2
            if t.code[k2] & b1 and t.code[k1] & b2:
                return index.descend(k2, t1), index.descend(k1, t2), t1, t2
        raise InvariantViolation("no pairable pendants across the two root branches")
    for t1, t2 in combos:
        for x in _ref_child_with(index, root, t1, many_only=True, need=2):
            others = _ref_child_with(index, root, t2, exclude=(x,))
            if others:
                return index.descend(x, t1), index.descend(others[0], t2), t1, t2
    raise InvariantViolation("no pairable pendants across root branches")


def ref_hub_step_pair(index):
    """AugTreeIndex.hub_step_pair as it was: two chain branches of legal
    types, else the first chain type's partner in a branching branch."""
    root = index.tree.root
    for t1, t2 in LEGAL_COMBOS:
        c1, c2 = LEAF_CODE[t1], LEAF_CODE[t2]
        if c1 == c2:
            first = _ref_chain_children(index, root, c1, need=2)
            if len(first) == 2:
                return index.descend(first[0], t1), index.descend(first[1], t2), t1, t2
            continue
        first = _ref_chain_children(index, root, c1)
        second = _ref_chain_children(index, root, c2)
        if first and second:
            return index.descend(first[0], t1), index.descend(second[0], t2), t1, t2
    chain = []
    for t1 in TYPES:
        chain = _ref_chain_children(index, root, LEAF_CODE[t1])
        if chain:
            break
    if not chain:
        raise InvariantViolation("overloaded hub without chain branches")
    for t2 in TYPES:
        if not joinable(t1, t2):
            continue
        others = _ref_child_with(index, root, t2, many_only=True, exclude=(chain[0],))
        if others:
            return index.descend(chain[0], t1), index.descend(others[0], t2), t1, t2
    raise InvariantViolation("no legal partner for the chain leaves")


def pair_searches_checked_augment(g: BipartiteGraph):
    """augment(g) with every pick of find_pair and hub_step_pair, and of
    the hub run's chain pairs, checked against the reference search on
    the same, live index.  Returns the result and a Counter of the picks
    checked, keyed by the method name and by whether the second end
    came from a root branch with more than one pendant; a chain pair
    counts as hub_step_pair's."""
    checked: Counter = Counter()
    refs = {"find_pair": ref_find_pair, "hub_step_pair": ref_hub_step_pair}
    real = {name: getattr(AugTreeIndex, name) for name in refs}

    def compare(name, index, got):
        want = refs[name](index)
        if got != want:
            raise InvariantViolation(f"{name} gave {got}, the reference {want}")
        checked[name, bool(index.tree.code[got[1][0]] & 8)] += 1

    def checked_search(name):
        def search(index):
            got = real[name](index)
            compare(name, index, got)
            return got

        return search

    real_fuse = _augment_module()._fuse_chains

    def fuse_chains(st, tree, index, x1, x2, t1, t2) -> None:
        # the run fuses the two chains that hub_step_pair would descend
        compare("hub_step_pair", index, (_chain(tree, x1), _chain(tree, x2), t1, t2))
        real_fuse(st, tree, index, x1, x2, t1, t2)

    for name in refs:
        setattr(AugTreeIndex, name, checked_search(name))
    try:
        res = _with_steps(g, _fuse_chains=fuse_chains)
    finally:
        for name, fn in real.items():
            setattr(AugTreeIndex, name, fn)
    return res, checked


def _chain(tree, x: int) -> list[int]:
    """x and the nodes below it down to a leaf, x's subtree a chain."""
    path = [x]
    while tree.nkids[x]:
        (x,) = tree.kids(x)
        path.append(x)
    return path


# ----------------------------------------------------------------------
# set-up references


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def setup_corpus(max_gen: int = 2_000):
    """The graphs the set-up references are checked on: every golden
    input, every generator kind at 12 to max_gen vertices (seeds 0 and
    1), and 1,200 small forests with cycles (mixed_graph)."""
    for path in sorted(GOLDEN_INPUTS.glob("*.txt")):
        yield parse_graph(path.read_text())
    for kind in ("spider", "broom", "caterpillar", "random", "path"):
        for n in (12, 60, 300, 2_000):
            if n <= max_gen:
                for seed in (0, 1):
                    yield generate_instance(kind, n, seed=seed)
    rng = random.Random(3030)
    for _ in range(1200):
        n = rng.randint(4, 40)
        yield mixed_graph(rng, n, rng.random(), rng.randint(0, n // 3))


@dataclass
class PendantRec:
    """One pendant block as seen right after decomposition: a single
    vertex of type A or B, or a nonsingular block of type AB."""

    ptype: int  # matching's A, B or AB
    comp: int
    key: int  # smallest member vertex, used for deterministic ordering
    # smallest noncut member vertex on side A and on side B, -1 for none
    min_a: int
    min_b: int


def ref_pendant_records(g: BipartiteGraph, dec) -> list[PendantRec]:
    """pendant_records as it was, one object per pendant: all pendant
    blocks, ordered by smallest member vertex, ties in sorted block
    order."""
    recs: list[PendantRec] = []
    branches = dec.branches
    for blk in dec.ns_blocks:
        cuts = [v for v in blk if branches[v] >= 2]
        if len(cuts) != 1:
            continue
        mins = [-1, -1]
        for v in blk:
            if branches[v] < 2 and mins[g.sides[v]] == -1:
                mins[g.sides[v]] = v
        recs.append(PendantRec(AB, dec.comp_id[blk[0]], blk[0], mins[0], mins[1]))
    for v in range(g.n):
        if len(g.adj[v]) == 1 and branches[v] < 2:
            if g.sides[v] == 0:
                recs.append(PendantRec(A, dec.comp_id[v], v, v, -1))
            else:
                recs.append(PendantRec(B, dec.comp_id[v], v, -1, v))
    recs.sort(key=lambda r: r.key)
    return recs


def ref_build(g: BipartiteGraph, branches, comp, blocks, bridges, counters=None):
    """BlockTree.build with a list of nodes in peeling order, one pass
    over it that settles every code, and a _link call per node."""
    if len(comp) < 2:
        raise ValueError("structure tree needs a component with >= 2 vertices")
    adj, sides = g.adj, g.sides
    pend = [v for v in comp if len(adj[v]) == 1 and branches[v] < 2]
    cuts = [v for v in comp if branches[v] >= 2]
    c_first = len(blocks) + len(pend)
    k_first = c_first + len(cuts)
    n = k_first + len(bridges)
    vnode = dict(zip(pend, range(len(blocks), c_first)))
    vnode.update(zip(cuts, range(c_first, k_first)))
    deg = [0] * n
    nbx = [0] * n

    pendant_blocks = 0
    blk_a = [-1] * len(blocks)
    blk_b = [-1] * len(blocks)
    for x, blk in enumerate(blocks):
        ma = mb = -1
        for v in blk:
            if branches[v] >= 2:
                y = vnode[v]
                deg[x] += 1
                deg[y] += 1
                nbx[x] ^= y
                nbx[y] ^= x
            elif sides[v] == 0:
                if ma == -1:
                    ma = v
            elif mb == -1:
                mb = v
        blk_a[x], blk_b[x] = ma, mb
        if deg[x] == 1:
            pendant_blocks += 1
    for x, edge in enumerate(bridges, k_first):
        for v in edge:
            y = vnode[v]
            deg[x] += 1
            deg[y] += 1
            nbx[x] ^= y
            nbx[y] ^= x

    t = BlockTree(n + len(pend) + pendant_blocks)
    t.sides = sides
    t.size = n
    t.kind[:n] = (
        [B_NODE] * len(blocks)
        + [S_NODE] * len(pend)
        + [C_NODE] * len(cuts)
        + [K_NODE] * len(bridges)
    )
    t.payload[:n] = blocks + pend + cuts + bridges
    t.alive[:n] = [True] * n
    t.min_a[: len(blocks)] = blk_a
    t.min_b[: len(blocks)] = blk_b
    for x, v in enumerate(pend, len(blocks)):
        if sides[v] == 0:
            t.min_a[x] = v
        else:
            t.min_b[x] = v
    if counters:
        counters.tree_nodes += n
        counters.index_updates += n

    if cuts:
        root, most = -1, -1
        for x, v in enumerate(cuts, c_first):
            if branches[v] > most:
                root, most = x, branches[v]
    else:
        root = n - 1 if bridges else 0
    stack = [x for x in range(n) if deg[x] == 1 and x != root]
    order = []
    parent = t.parent
    while stack:
        x = stack.pop()
        if deg[x] != 1:
            continue
        p = nbx[x]
        parent[x] = p
        order.append(x)
        nbx[p] ^= x
        deg[p] -= 1
        if deg[p] == 1 and p != root:
            stack.append(p)
    order.append(root)
    check(len(order) == n, "structure tree is not connected")
    t.root = root
    code = t.code
    kids = [0] * n
    for x in order:
        k = kids[x]
        c = (code[x] | (8 if k >= 2 else 0)) if k else t._leaf_code(x)
        code[x] = c
        p = parent[x]
        if p != -1:
            code[p] |= c
            kids[p] += 1
    t.base[:n] = range(0, n * SLOTS, SLOTS)
    t.heads = array("i", [-1]) * (n * SLOTS)
    for x in range(n - 1, -1, -1):
        if x != root:
            t._link(parent[x], x)
    return t


TREE_FIELDS = (
    "capacity", "size", "root", "sides", "kind", "payload", "min_a", "min_b",
    "alive", "parent", "code", "nkids", "base", "heads", "present", "sprev", "snext",
)


def tree_state(t) -> dict:
    """Every field of a structure tree, by name."""
    return {name: getattr(t, name) for name in TREE_FIELDS}


def ref_aug_tree_index(tree, counters=None) -> AugTreeIndex:
    """AugTreeIndex(tree) filled by one _group_add call per live cut
    node, in descending id order, and leaf_type per leaf."""
    self = AugTreeIndex.__new__(AugTreeIndex)
    self.tree = t = tree
    self.counters = counters
    n = t.capacity
    self.leaf_counts = leaf_counts = [0, 0, 0]
    self.grp_head = {}
    self.gprev = [-1] * n
    self.gnext = [-1] * n
    self.grp_of = [-1] * n
    self._max_top = 0
    self.cnt_branching = 0
    kind, parent, nkids, alive = t.kind, t.parent, t.nkids, t.alive
    for x in range(t.size - 1, -1, -1):
        if not alive[x]:
            continue
        d = nkids[x] + (parent[x] != -1)
        if d >= 3:
            self.cnt_branching += 1
        if kind[x] == C_NODE:
            self._group_add(x, d)
        elif d <= 1 and kind[x] in (B_NODE, S_NODE):
            leaf_counts[t.leaf_type(x)] += 1
    self._settle_counts()
    return self


def index_state(index: AugTreeIndex) -> dict:
    """An index's state: each degree group as a list from its head, the
    group links, the counts, and max_cdeg, m and m + r."""
    return {
        "groups": {d: walk_list(h, index.gnext, len(index.gnext)) for d, h in index.grp_head.items()},
        "gprev": index.gprev,
        "gnext": index.gnext,
        "grp_of": index.grp_of,
        "leaf_counts": index.leaf_counts,
        "cnt_branching": index.cnt_branching,
        "max_cdeg": index.max_cdeg,
        "m": index.m_value(),
        "m_plus_r": index.m_plus_r(),
        "total": index.leaf_total(),
    }


__all__ = [name for name in dir() if not name.startswith("_")]
