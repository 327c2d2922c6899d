"""Slow, definition-level reference implementations used to pin down
expected values.  Everything here is written straight from first
principles (path enumeration, exhaustive search) so it shares no code
with the package under test, except the step audits, which crosscheck
the solver's incremental structures from inside a solve, and the
reference pair searches at the end, which read the same tree."""

from __future__ import annotations

import importlib
import random
from collections import Counter, deque

from bipartite_biconnect import (
    BipartiteGraph,
    InvariantViolation,
    add_edges,
    augment,
    decompose,
    pendant_records,
)
from bipartite_biconnect.blocks import LEAF_CODE, SLOTS, walk_list
from bipartite_biconnect.errors import check
from bipartite_biconnect.graph import generate_instance
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
    for p in recs:
        if p.comp == cid:
            n[(A, B, AB).index(p.ptype)] += 1
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
    types = [p.ptype for p in pendant_records(g2, dec2) if p.comp == cid2]
    counts = counts_of(types)
    check(index.counts() == counts, "leaf census drifted from rebuild")
    max_d = max(dec2.branches[v] for v in dec2.comps[cid2])
    check(index.max_cdeg == max_d, "split degree drifted from rebuild")
    check(
        index.eta_now() == max(max_d - 1, sum(counts) - pair_count(*counts), 0),
        "demand drifted from rebuild",
    )


def audited_augment(g: BipartiteGraph):
    """augment(g) with every audit above run after each iterative step
    (S5 and S4_2); returns the result and the number of audits run.

    Each such step joins two leaves and collapses the path between them
    in _join_and_collapse, so the module's binding of that name is
    swapped for one that audits after it, for this call only.  The
    package's __init__ shadows the module name with the function, so
    the module is looked up by its full name."""
    mod = importlib.import_module("bipartite_biconnect.augment")
    real = mod._join_and_collapse
    audits = 0

    def join_and_collapse(st, tree, index, *args) -> None:
        nonlocal audits
        real(st, tree, index, *args)
        audit_against_rebuild(st.g, st.added, st.added[-1][0], index)
        audits += 1

    mod._join_and_collapse = join_and_collapse
    try:
        res = mod.augment(g)
    finally:
        mod._join_and_collapse = real
    return res, audits


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
    """augment(g) with every call of find_pair and hub_step_pair checked
    against the reference search on the same index.  Returns the result
    and a Counter of the calls checked, keyed by the method name and by
    whether the second end came from a root branch with more than one
    pendant."""
    checked: Counter = Counter()
    refs = {"find_pair": ref_find_pair, "hub_step_pair": ref_hub_step_pair}
    real = {name: getattr(AugTreeIndex, name) for name in refs}

    def checked_search(name):
        def search(index):
            want = refs[name](index)
            got = real[name](index)
            if got != want:
                raise InvariantViolation(f"{name} gave {got}, the reference {want}")
            checked[name, bool(index.tree.code[got[1][0]] & 8)] += 1
            return got

        return search

    for name in refs:
        setattr(AugTreeIndex, name, checked_search(name))
    try:
        res = augment(g)
    finally:
        for name, fn in real.items():
            setattr(AugTreeIndex, name, fn)
    return res, checked


__all__ = [name for name in dir() if not name.startswith("_")]
