"""Block decomposition and the mutable structure tree.

decompose() runs one iterative lowpoint pass and reports, per
component: the maximal biconnected vertex sets of size three or more
(called nonsingular blocks), bridge edges, cut vertices, and how many
pieces deleting each vertex leaves behind.  A vertex on no nonsingular
block forms a block of its own; such a vertex with degree one is a
pendant, with degree zero it is already a finished component.

BlockTree models one component as a tree over block, pendant vertex,
cut vertex and bridge nodes.  Its collapse() applies the effect of one
binding edge: the whole tree path between the two paired nodes fuses
into a single new block node, degree two cut vertices on the path stop
being cut vertices, and higher degree ones survive with their degree
reduced by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import BipartiteGraph
from .stats import OpCounters


class BlockRec:
    """Vertex bag for one block, mergeable in O(1).

    parts holds plain vertex ints and absorbed child BlockRecs; the
    actual vertex set is only materialized on demand.  min_nc tracks
    the smallest noncut member per side, which is all a binding edge
    needs.
    """

    __slots__ = ("singular", "parts", "min_nc", "node")

    def __init__(self, singular: bool, parts: list, min_nc: list):
        self.singular = singular
        self.parts = parts
        self.min_nc: list[Optional[int]] = min_nc
        self.node = -1

    def vertices(self) -> list[int]:
        out: list[int] = []
        stack = [self.parts]
        while stack:
            parts = stack.pop()
            for p in parts:
                if isinstance(p, BlockRec):
                    stack.append(p.parts)
                else:
                    out.append(p)
        return out

    def absorb_min(self, side: int, v: Optional[int]) -> None:
        if v is None:
            return
        cur = self.min_nc[side]
        if cur is None or v < cur:
            self.min_nc[side] = v


@dataclass
class PendantRec:
    """One pendant block as seen right after decomposition."""

    kind: str  # "sv" singular vertex, "ns" nonsingular
    ptype: str  # "A", "B", or "AB"
    comp: int
    key: int  # smallest member vertex, used for deterministic ordering
    min_nc: tuple[Optional[int], Optional[int]]
    partner: Optional[int] = None  # sv only: other endpoint of its bridge


@dataclass
class Decomposition:
    comp_id: list[int]
    comps: list[list[int]]
    comp_root: list[int]
    split: list[int]
    is_cut: list[bool]
    ns_blocks: list[tuple[int, ...]]
    cut_edges: list[tuple[int, int]]
    degree: list[int]

    def branch_count(self, u: int) -> int:
        """Number of components deleting u leaves behind in its component."""
        if self.degree[u] == 0:
            return 0
        if self.comp_root[self.comp_id[u]] == u:
            return self.split[u]
        return self.split[u] + 1


def decompose(g: BipartiteGraph, counters: OpCounters | None = None) -> Decomposition:
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    split = [0] * n
    comp_id = [-1] * n
    comps: list[list[int]] = []
    comp_root: list[int] = []
    ns_blocks: list[tuple[int, ...]] = []
    cut_edges: list[tuple[int, int]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0

    for s in range(n):
        if disc[s] != -1:
            continue
        cid = len(comps)
        comp = [s]
        comp_root.append(s)
        comp_id[s] = cid
        disc[s] = low[s] = timer
        timer += 1
        if counters:
            counters.dfs_visits += 1
        frames: list[tuple[int, Iterable[int]]] = [(s, iter(g.adj[s]))]
        while frames:
            v, it = frames[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    comp_id[w] = cid
                    comp.append(w)
                    edge_stack.append((v, w))
                    frames.append((w, iter(g.adj[w])))
                    if counters:
                        counters.dfs_visits += 1
                    advanced = True
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            frames.pop()
            if not frames:
                continue
            u = frames[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                split[u] += 1
                bcc = []
                while True:
                    e = edge_stack.pop()
                    bcc.append(e)
                    if e == (u, v):
                        break
                if len(bcc) == 1:
                    a, b = bcc[0]
                    if g.sides[a] == 1:
                        a, b = b, a
                    cut_edges.append((a, b))
                else:
                    vset = set()
                    for a, b in bcc:
                        vset.add(a)
                        vset.add(b)
                    ns_blocks.append(tuple(sorted(vset)))
        comps.append(sorted(comp))

    ns_blocks.sort(key=lambda blk: blk[0])
    cut_edges.sort()
    degree = [len(g.adj[v]) for v in range(n)]
    dec = Decomposition(
        comp_id=comp_id,
        comps=comps,
        comp_root=comp_root,
        split=split,
        is_cut=[False] * n,
        ns_blocks=ns_blocks,
        cut_edges=cut_edges,
        degree=degree,
    )
    for u in range(n):
        dec.is_cut[u] = dec.branch_count(u) >= 2
    return dec


def pendant_type(side_or_ns: int | None) -> str:
    if side_or_ns is None:
        return "AB"
    return "A" if side_or_ns == 0 else "B"


def pendant_records(g: BipartiteGraph, dec: Decomposition) -> list[PendantRec]:
    """All pendant blocks, ordered by smallest member vertex."""
    recs: list[PendantRec] = []
    for blk in dec.ns_blocks:
        cuts = [v for v in blk if dec.is_cut[v]]
        if len(cuts) != 1:
            continue
        mins: list[Optional[int]] = [None, None]
        for v in blk:
            if not dec.is_cut[v]:
                s = g.sides[v]
                if mins[s] is None:
                    mins[s] = v
        recs.append(
            PendantRec(
                kind="ns",
                ptype="AB",
                comp=dec.comp_id[blk[0]],
                key=blk[0],
                min_nc=(mins[0], mins[1]),
            )
        )
    for v in range(g.n):
        if dec.degree[v] == 1 and not dec.is_cut[v]:
            side = g.sides[v]
            recs.append(
                PendantRec(
                    kind="sv",
                    ptype="A" if side == 0 else "B",
                    comp=dec.comp_id[v],
                    key=v,
                    min_nc=(v, None) if side == 0 else (None, v),
                    partner=g.adj[v][0],
                )
            )
    recs.sort(key=lambda r: r.key)
    return recs


# Tree node kinds.
B_NODE = "b"  # nonsingular or merged block
S_NODE = "s"  # singular pendant vertex
C_NODE = "c"  # cut vertex
K_NODE = "k"  # bridge edge

_DOT_SHAPE = {B_NODE: "box", S_NODE: "box", C_NODE: "circle", K_NODE: "diamond"}


def tree_to_dot(g: BipartiteGraph) -> str:
    """Structure trees of all components as one DOT forest.

    Blocks and pendant vertices render as boxes, cut vertices as
    circles, bridges as diamonds.  Output is deterministic.
    """
    dec = decompose(g)
    lines = ["graph blocktree {"]
    for cid, comp in enumerate(dec.comps):
        if len(comp) == 1:
            lab = g.labels[comp[0]]
            lines.append(f'  c{cid}_n0 [shape=box, label="{lab}"];')
            continue
        t = BlockTree.build(g, dec, comp)
        for x in t.live_nodes():
            kind = t.kind[x]
            if kind == B_NODE:
                rec: BlockRec = t.payload[x]
                lab = " ".join(g.labels[v] for v in sorted(rec.vertices()))
            elif kind == S_NODE:
                lab = g.labels[t.payload[x].parts[0]]
            elif kind == C_NODE:
                lab = g.labels[t.payload[x]]
            else:
                a, b = t.payload[x]
                lab = f"{g.labels[a]} {g.labels[b]}"
            lines.append(
                f'  c{cid}_n{x} [shape={_DOT_SHAPE[kind]}, label="{lab}"];'
            )
        for x in t.live_nodes():
            for ch in sorted(t.children[x]):
                lines.append(f"  c{cid}_n{x} -- c{cid}_n{ch};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class CollapseInfo:
    y: int
    path: list[int]
    absorbed: list[int]
    survivors: list[int]
    top: int
    top_survived: bool
    parent_of_y: int
    removed_leaf_types: list[str]
    y_is_leaf: bool
    old_degrees: dict[int, int]
    survivor_lost_children: dict[int, list[int]]


class BlockTree:
    """Structure tree of one connected component with >= 2 vertices."""

    def __init__(self) -> None:
        self.kind: list[str] = []
        self.payload: list = []  # BlockRec | vertex int | (a, b) pair
        self.alive: list[bool] = []
        self.parent: list[int] = []
        self.children: list[set[int]] = []
        self.root = -1
        self.c_node_of: dict[int, int] = {}
        self.sides: tuple[int, ...] = ()

    def new_node(self, kind: str, payload) -> int:
        node = len(self.kind)
        self.kind.append(kind)
        self.payload.append(payload)
        self.alive.append(True)
        self.parent.append(-1)
        self.children.append(set())
        if isinstance(payload, BlockRec):
            payload.node = node
        return node

    def degree(self, x: int) -> int:
        return len(self.children[x]) + (1 if self.parent[x] != -1 else 0)

    def neighbors(self, x: int) -> list[int]:
        out = sorted(self.children[x])
        if self.parent[x] != -1:
            out.append(self.parent[x])
        return out

    def leaf_type(self, x: int) -> str:
        k = self.kind[x]
        if k == B_NODE:
            return "AB"
        if k == S_NODE:
            rec: BlockRec = self.payload[x]
            return "A" if rec.min_nc[0] is not None else "B"
        raise ValueError(f"node {x} has no pendant type")

    def live_nodes(self) -> list[int]:
        return [x for x in range(len(self.kind)) if self.alive[x]]

    def leaves(self) -> list[int]:
        return [
            x
            for x in self.live_nodes()
            if self.degree(x) == 1 and self.kind[x] in (B_NODE, S_NODE)
        ]

    @staticmethod
    def build(
        g: BipartiteGraph,
        dec: Decomposition,
        comp: list[int],
        counters: OpCounters | None = None,
    ) -> "BlockTree":
        if len(comp) < 2:
            raise ValueError("structure tree needs a component with >= 2 vertices")
        t = BlockTree()
        t.sides = g.sides
        cid = dec.comp_id[comp[0]]
        undirected: list[tuple[int, int]] = []

        for blk in dec.ns_blocks:
            if dec.comp_id[blk[0]] != cid:
                continue
            mins: list[Optional[int]] = [None, None]
            parts: list = []
            for v in blk:
                parts.append(v)
                if not dec.is_cut[v]:
                    s = g.sides[v]
                    if mins[s] is None:
                        mins[s] = v
            node = t.new_node(B_NODE, BlockRec(False, parts, mins))
            for v in blk:
                if dec.is_cut[v]:
                    undirected.append((node, ("c", v)))
        for v in comp:
            if dec.degree[v] == 1 and not dec.is_cut[v]:
                side = g.sides[v]
                mins = [v, None] if side == 0 else [None, v]
                t.new_node(S_NODE, BlockRec(True, [v], mins))
        svnode = {
            t.payload[x].parts[0]: x
            for x in range(len(t.kind))
            if t.kind[x] == S_NODE
        }
        for v in comp:
            if dec.is_cut[v]:
                t.c_node_of[v] = t.new_node(C_NODE, v)
        for a, b in dec.cut_edges:
            if dec.comp_id[a] != cid:
                continue
            node = t.new_node(K_NODE, (a, b))
            for e in (a, b):
                if dec.is_cut[e]:
                    undirected.append((node, ("c", e)))
                else:
                    undirected.append((node, ("s", svnode[e])))
        if counters:
            counters.tree_nodes += len(t.kind)

        adj: list[list[int]] = [[] for _ in t.kind]
        for x, ref in undirected:
            y = t.c_node_of[ref[1]] if ref[0] == "c" else ref[1]
            adj[x].append(y)
            adj[y].append(x)

        # Root at the cut vertex splitting the component the most, ties to
        # the lowest vertex; bridge-only two vertex components root at the
        # bridge node, single block components at the block.
        cut_in_comp = [v for v in comp if dec.is_cut[v]]
        if cut_in_comp:
            best = max(cut_in_comp, key=lambda v: (dec.branch_count(v), -v))
            t.root = t.c_node_of[best]
        elif any(t.kind[x] == K_NODE for x in range(len(t.kind))):
            t.root = next(x for x in range(len(t.kind)) if t.kind[x] == K_NODE)
        else:
            t.root = 0

        seen = [False] * len(t.kind)
        seen[t.root] = True
        stack = [t.root]
        placed = 1
        while stack:
            x = stack.pop()
            for y in sorted(adj[x]):
                if not seen[y]:
                    seen[y] = True
                    t.parent[y] = x
                    t.children[x].add(y)
                    stack.append(y)
                    placed += 1
        if placed != len(t.kind):
            raise AssertionError("structure tree is not connected")
        return t

    def collapse(
        self, path: list[int], counters: OpCounters | None = None
    ) -> CollapseInfo:
        """Fuse the tree path between two paired block nodes.

        Both path ends must be block or pendant vertex nodes.  Returns
        what changed, so index structures can update incrementally.
        """
        assert len(path) >= 3
        assert self.kind[path[0]] in (B_NODE, S_NODE)
        assert self.kind[path[-1]] in (B_NODE, S_NODE)
        removed_leaf_types = [self.leaf_type(path[0]), self.leaf_type(path[-1])]
        pathset = set(path)
        absorbed: list[int] = []
        survivors: list[int] = []
        old_degrees: dict[int, int] = {}
        for x in path:
            old_degrees[x] = self.degree(x)
            if self.kind[x] == C_NODE and self.degree(x) >= 3:
                survivors.append(x)
            else:
                absorbed.append(x)
        tops = [x for x in path if self.parent[x] == -1 or self.parent[x] not in pathset]
        assert len(tops) == 1, "collapse path must be a contiguous tree path"
        top = tops[0]
        top_survived = top in survivors
        survivor_lost_children: dict[int, list[int]] = {}
        for i, x in enumerate(path):
            if x not in survivors:
                continue
            lost = []
            for j in (i - 1, i + 1):
                if 0 <= j < len(path) and self.parent[path[j]] == x:
                    lost.append(path[j])
            survivor_lost_children[x] = lost

        parts: list = []
        mins: list[Optional[int]] = [None, None]
        rec = BlockRec(False, parts, mins)
        for x in absorbed:
            if self.kind[x] in (B_NODE, S_NODE):
                child_rec: BlockRec = self.payload[x]
                parts.append(child_rec)
                rec.absorb_min(0, child_rec.min_nc[0])
                rec.absorb_min(1, child_rec.min_nc[1])
            elif self.kind[x] == C_NODE:
                v = self.payload[x]
                parts.append(v)
                # absorbed cut vertices stop being cut, so they become
                # noncut members of the merged block
                rec.absorb_min(self.sides[v], v)
        y = self.new_node(B_NODE, rec)
        if counters:
            counters.tree_nodes += 1
            counters.collapse_steps += len(absorbed)

        for c in survivors:
            parts.append(self.payload[c])

        moved: list[int] = []
        for x in absorbed:
            for ch in self.children[x]:
                if ch not in pathset:
                    moved.append(ch)
        for ch in moved:
            self.parent[ch] = y
            self.children[y].add(ch)
        for c in survivors:
            self.children[c] -= pathset
            if c != top:
                self.parent[c] = y
                self.children[y].add(c)
        if top_survived:
            self.children[top].add(y)
            self.parent[y] = top
        else:
            p = self.parent[top]
            self.parent[y] = p
            if p != -1:
                self.children[p].discard(top)
                self.children[p].add(y)
        for x in absorbed:
            self.alive[x] = False
            self.children[x] = set()
            self.parent[x] = -1
            if self.kind[x] == C_NODE:
                del self.c_node_of[self.payload[x]]
        if not self.alive[self.root]:
            self.root = y

        return CollapseInfo(
            y=y,
            path=path,
            absorbed=absorbed,
            survivors=survivors,
            top=top,
            top_survived=top_survived,
            parent_of_y=self.parent[y],
            removed_leaf_types=removed_leaf_types,
            y_is_leaf=self.degree(y) == 1,
            old_degrees=old_degrees,
            survivor_lost_children=survivor_lost_children,
        )
