"""Independent feasibility checker and exhaustive reference solver.

Everything here is kept deliberately independent of the block
decomposition so it can referee the solver.  A component passes when it
is a single vertex, or has at least three vertices and no cut vertex.
Two vertex components always fail.

The checker finds cut vertices in linear time by Schmidt's chain
decomposition ("A simple test on 2-vertex- and 2-edge-connectivity",
IPL 2013), which shares no code with the solver's lowpoint pass.  Its
one DFS per component is the only traversal, and a patch is checked on
the input's own rows with the added pairs appended.  The exhaustive
search tests its candidate subsets by plain reachability over bit
masks, deleting one vertex at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .errors import CapExceeded, NoBiconnector
from .graph import BipartiteGraph

MAX_CAP = 8  # deepest exhaustive search supported


def _reach(masks: Sequence[int], alive: int, start_bit: int) -> int:
    """Vertices reachable from start_bit inside the alive set, as a mask."""
    reach = start_bit
    frontier = start_bit
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= masks[low.bit_length() - 1]
            f ^= low
        nxt &= alive & ~reach
        reach |= nxt
        frontier = nxt
    return reach


def _connected(masks: Sequence[int], alive: int) -> bool:
    if alive == 0:
        return True
    return _reach(masks, alive, alive & -alive) == alive


def _adjacency_masks(g: BipartiteGraph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _component_ok(masks: list[int], comp_mask: int, size: int) -> bool:
    """Does the component survive every single vertex deletion connected?"""
    if size == 1:
        return True
    if size == 2:
        return False
    c = comp_mask
    while c:
        low = c & -c
        c ^= low
        if not _connected(masks, comp_mask ^ low):
            return False
    return True


@dataclass
class VerifyReport:
    componentwise_biconnected: bool
    witness: Optional[tuple[int, str]]  # (component index, what fails)
    oracle_size: Optional[int] = None
    agreement: bool = True
    edge_errors: list[str] = field(default_factory=list)
    components_checked: int = 0

    @property
    def passed(self) -> bool:
        return (
            self.componentwise_biconnected
            and self.agreement
            and not self.edge_errors
        )

    def lines(self) -> list[str]:
        out = []
        for err in self.edge_errors:
            out.append(f"BAD EDGE {err}")
        if self.witness is not None:
            cid, why = self.witness
            out.append(f"BAD COMPONENT {cid}: {why}")
        if self.oracle_size is not None and not self.agreement:
            out.append(f"SIZE MISMATCH oracle wants {self.oracle_size}")
        if not out:
            out.append(f"OK ({self.components_checked} components checked)")
        return out


def _lowest_cut_vertex(
    adj: Sequence[Sequence[int]],
    root: int,
    pre: list[int],
    parent: list[int],
    pos: list[int],
    chained: list[int],
) -> tuple[int, int]:
    """Lowest cut vertex of root's component (-1 if none) and its size.

    A chain decomposition: one DFS numbers the component in preorder;
    then, for each vertex v in preorder and each back edge from v down
    to a descendant w, the chain runs v, w and up the tree from w until
    it meets a vertex an earlier chain (or v itself) reached.  A vertex
    is a cut vertex exactly when it has degree two or more and ends a
    tree edge no chain covers (a bridge), or when it starts a chain that
    closes a cycle and is not the first chain.

    The four lists hold one slot per vertex of the whole graph, and
    pre is -1 on every vertex no earlier call reached.  They are not
    reset: components are disjoint, so each slot is written by
    one component only.  chained[x] is 0 until a chain reaches x, 1 when
    x only starts chains, and 2 once the tree edge from x to its parent
    lies on a chain.
    """
    order = [root]
    pre[root] = 0
    stack = [root]
    while stack:
        v = stack[-1]
        nbrs = adj[v]
        i = pos[v]
        if i == len(nbrs):
            stack.pop()
            continue
        pos[v] = i + 1
        w = nbrs[i]
        if pre[w] < 0:
            pre[w] = len(order)
            parent[w] = v
            order.append(w)
            stack.append(w)

    cut = len(pre)
    first = True
    for v in order:
        pv = pre[v]
        for w in adj[v]:
            if pre[w] <= pv or parent[w] == v:
                continue  # not a back edge down from v
            if not chained[v]:
                chained[v] = 1
            x = w
            while not chained[x]:
                chained[x] = 2
                x = parent[x]
            if x == v and not first and v < cut:
                cut = v
            first = False
    for x in order[1:]:
        if chained[x] != 2:
            p = parent[x]
            if len(adj[x]) >= 2 and x < cut:
                cut = x
            if len(adj[p]) >= 2 and p < cut:
                cut = p
    return (cut if cut < len(pre) else -1), len(order)


def _check_rows(adj: Sequence[Sequence[int]], labels: Sequence[str]) -> VerifyReport:
    """check_componentwise_biconnected on rows in any order.

    Each vertex not reached yet, in ascending order, starts a component;
    every component is walked, also after a failure, so all are counted.
    """
    n = len(adj)
    pre = [-1] * n
    parent = [-1] * n
    pos = [0] * n
    chained = [0] * n
    witness = None
    cid = 0
    for s in range(n):
        if pre[s] >= 0:
            continue
        cut, size = _lowest_cut_vertex(adj, s, pre, parent, pos, chained)
        if witness is None:
            if size == 2:
                witness = (cid, "a two vertex component is never biconnected")
            elif cut >= 0:
                witness = (cid, f"deleting vertex {labels[cut]} disconnects it")
        cid += 1
    return VerifyReport(
        componentwise_biconnected=witness is None,
        witness=witness,
        components_checked=cid,
    )


def check_componentwise_biconnected(g: BipartiteGraph) -> VerifyReport:
    """Is every component an isolated vertex or a biconnected set?

    Linear time.  The witness names the lowest cut vertex of the first
    failing component, with components numbered by smallest vertex.
    """
    return _check_rows(g.adj, g.labels)


def is_componentwise_biconnected(g: BipartiteGraph) -> bool:
    return check_componentwise_biconnected(g).componentwise_biconnected


def verify_result(
    g: BipartiteGraph,
    result,
    use_oracle: bool = False,
    cap: int = MAX_CAP,
) -> VerifyReport:
    """Check a proposed augmentation against the original graph.

    `result` is an AugmentationResult or any iterable of label pairs.
    Item failures (not a pair, unknown vertex, same side, duplicate)
    and structural failures end up in the report, never as exceptions.
    With use_oracle, additionally confirm the size is minimum whenever
    the instance fits the exhaustive search guards; a cap outside
    [0, MAX_CAP] raises ValueError.
    """
    if use_oracle:
        _check_cap(cap)
    pairs = (
        list(result.added_edges)
        if hasattr(result, "added_edges")
        else list(result)
    )
    edge_errors: list[str] = []
    added: set[tuple[int, int]] = set()
    for p in pairs:
        try:
            x, y = p
            # an unhashable label raises TypeError here
            u, v = g.label_index.get(x, -1), g.label_index.get(y, -1)
        except (TypeError, ValueError):
            edge_errors.append(f"{p!r}: not a pair of labels")
            continue
        if u == -1 or v == -1:
            edge_errors.append(f"{x} {y}: unknown vertex {x if u == -1 else y}")
            continue
        if g.sides[u] == g.sides[v]:
            edge_errors.append(f"{x} {y}: same side")
            continue
        if g.sides[u] == 1:
            u, v = v, u
        if g.has_edge(u, v) or (u, v) in added:
            edge_errors.append(f"{x} {y}: duplicate edge")
            continue
        added.add((u, v))
    if edge_errors:
        return VerifyReport(
            componentwise_biconnected=False,
            witness=None,
            agreement=False,
            edge_errors=edge_errors,
        )
    # the input's rows with each added pair appended at both ends; the
    # check reads rows in any order
    rows = [list(row) for row in g.adj]
    for u, v in added:
        rows[u].append(v)
        rows[v].append(u)
    rep = _check_rows(rows, g.labels)
    if use_oracle:
        try:
            oracle_size, _ = brute_force_optimal(g, cap)
            rep.oracle_size = oracle_size
            rep.agreement = rep.componentwise_biconnected and len(pairs) == oracle_size
        except NoBiconnector:
            rep.agreement = False
        except (CapExceeded, ValueError):
            pass  # too many candidates or cap too low; size stays unconfirmed
    return rep


def legal_nonedges(g: BipartiteGraph) -> list[tuple[int, int]]:
    """All missing A to B index pairs, ascending."""
    out = []
    for u in g.a_vertices():
        for v in g.b_vertices():
            if not g.has_edge(u, v):
                out.append((u, v))
    return out


def _masks_componentwise_ok(masks: list[int], n: int) -> bool:
    seen = 0
    for s in range(n):
        sb = 1 << s
        if seen & sb:
            continue
        comp_mask = _reach(masks, (1 << n) - 1, sb)
        seen |= comp_mask
        size = bin(comp_mask).count("1")
        if not _component_ok(masks, comp_mask, size):
            return False
    return True


def _check_cap(cap: int) -> None:
    if not 0 <= cap <= MAX_CAP:
        raise ValueError(f"cap must lie in [0, {MAX_CAP}], got {cap}")


def brute_force_optimal(
    g: BipartiteGraph, cap: int = MAX_CAP
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Smallest augmentation by exhaustive subset search.

    Tries every candidate subset in increasing size then lexicographic
    order, so the answer is deterministic.  Returns (size, index pairs).
    Raises NoBiconnector when the full candidate set is exhausted
    without success, CapExceeded when only subsets up to cap were ruled
    out, and ValueError when cap lies outside [0, MAX_CAP] or the
    instance is too big to search at all.
    """
    _check_cap(cap)
    # edges are distinct A to B pairs, so this counts the candidates
    # exactly, in O(n) however large the graph
    na = g.sides.count(0)
    if na * (g.n - na) - g.m > 30:
        raise ValueError("too many candidate pairs for exhaustive search")
    legal = legal_nonedges(g)
    base = _adjacency_masks(g)
    limit = min(cap, len(legal))
    for k in range(limit + 1):
        for subset in combinations(legal, k):
            masks = list(base)
            for u, v in subset:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            if _masks_componentwise_ok(masks, g.n):
                return k, subset
    if limit == len(legal):
        raise NoBiconnector("exhaustive search proves no augmentation exists")
    raise CapExceeded(f"no augmentation of size <= {cap} found")
