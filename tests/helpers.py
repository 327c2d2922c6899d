"""Slow, definition-level reference implementations used to pin down
expected values.  Everything here is written straight from first
principles (path enumeration, exhaustive search) so it shares no code
with the package under test."""

from __future__ import annotations

import itertools
import random
from collections import deque

from bipartite_biconnect import BipartiteGraph, build_graph


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


def oracle_cut_vertices(g: BipartiteGraph) -> set[int]:
    cuts = set()
    for comp in oracle_components(g):
        if len(comp) < 3:
            continue
        for v in comp:
            rest = [x for x in comp if x != v]
            if not all(
                _connected_avoiding(g, rest[0], x, v) for x in rest[1:]
            ):
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
    return all(
        _connected_avoiding(g, u, v, w)
        for w in range(g.n)
        if w not in (u, v)
    )


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


def oracle_pendants(g: BipartiteGraph) -> list[tuple[str, frozenset[int], str]]:
    """(kind, vertex set, type) for every pendant, sorted by lowest member.

    A pendant is a degree one vertex, or a cycle-closed block attached
    to the rest of its component through exactly one cut vertex.
    """
    cuts = oracle_cut_vertices(g)
    out = []
    for v in range(g.n):
        if g.degree(v) == 1:
            out.append(("sv", frozenset([v]), "AB"[g.sides[v]]))
    for blk in oracle_nonsingular_blocks(g):
        comp = next(c for c in oracle_components(g) if next(iter(blk)) in c)
        if oracle_component_biconnected(g, comp):
            continue
        if len(blk & cuts) == 1:
            out.append(("ns", blk, "AB"))
    return sorted(out, key=lambda rec: min(rec[1]))


def pendant_kind(ptype: str) -> str:
    """The oracle_pendants kind of a pendant of this type: a single
    vertex ("sv") is of type A or B, a nonsingular block ("ns") is AB."""
    return "ns" if ptype == "AB" else "sv"


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
            n[("A", "B", "AB").index(p.ptype)] += 1
    m = oracle_max_matching(*n)
    r = sum(n) - 2 * m
    cuts = [v for v in dec.comps[cid] if dec.is_cut[v]]
    massive = [v for v in cuts if dec.branch_count(v) - 1 > m + r]
    critical = [v for v in cuts if dec.branch_count(v) - 1 == m + r]
    return massive, critical, m, r


# ----------------------------------------------------------------------
# structure tree walks


def path_between(tree, x: int, y: int) -> list[int]:
    """Tree path from node x to node y via parent pointers."""
    mark = set()
    cur = x
    while cur != -1:
        mark.add(cur)
        cur = tree.parent[cur]
    lca = y
    while lca not in mark:
        lca = tree.parent[lca]
    up = []
    cur = x
    while cur != lca:
        up.append(cur)
        cur = tree.parent[cur]
    down = []
    cur = y
    while cur != lca:
        down.append(cur)
        cur = tree.parent[cur]
    return up + [lca] + list(reversed(down))


__all__ = [name for name in dir() if not name.startswith("_")]
