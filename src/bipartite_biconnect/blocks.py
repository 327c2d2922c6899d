"""Block decomposition and the mutable structure tree.

decompose() runs one iterative lowpoint pass and reports, per
component: the maximal biconnected vertex sets of size three or more
(called nonsingular blocks), bridge edges, cut vertices, and how many
pieces deleting each vertex leaves behind.  A vertex on no nonsingular
block forms a block of its own; such a vertex with degree one is a
pendant, with degree zero it is already a finished component.
Blocks and bridges are grouped by component, and each component's
group is sorted (blocks by vertex tuple, bridges by pair), as are the
members of each block and component.  A structure tree is thus a
function of the sorted block set, not of the order the DFS met them in,
and it reads only its own component's group.

BlockTree models one component as a tree over block, pendant vertex,
cut vertex and bridge nodes.  Its collapse() applies the effect of one
binding edge: the whole tree path between the two paired nodes fuses
into a single new block node, degree two cut vertices on the path stop
being cut vertices, and higher degree ones survive with their degree
reduced by one.  The new node takes over the child set of the absorbed
node with the most children as it is, so a collapse costs the path plus
the other children it moves, not the size of the merged block.  The
adopted children keep pointing at the retired node; up() resolves such
stale parent pointers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import check
from .graph import BipartiteGraph
from .stats import OpCounters


# smallest noncut vertex of a block on side A and on side B
MinPair = tuple[Optional[int], Optional[int]]


@dataclass
class PendantRec:
    """One pendant block as seen right after decomposition: a single
    vertex of type A or B, or a nonsingular block of type AB."""

    ptype: str  # "A", "B", or "AB"
    comp: int
    key: int  # smallest member vertex, used for deterministic ordering
    min_nc: MinPair


@dataclass
class Decomposition:
    comp_id: list[int]
    comps: list[list[int]]
    branches: list[int]  # pieces deleting a vertex leaves in its component
    is_cut: list[bool]
    # grouped by component and sorted within each group; component c's
    # blocks are ns_blocks[block_starts[c]:block_starts[c + 1]], its
    # bridges cut_edges[bridge_starts[c]:bridge_starts[c + 1]]
    ns_blocks: list[tuple[int, ...]]
    cut_edges: list[tuple[int, int]]
    block_starts: list[int]
    bridge_starts: list[int]
    degree: list[int]


def decompose(g: BipartiteGraph, counters: OpCounters | None = None) -> Decomposition:
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    branches = [1] * n
    comp_id = [-1] * n
    comps: list[list[int]] = []
    ns_blocks: list[tuple[int, ...]] = []
    cut_edges: list[tuple[int, int]] = []
    block_starts = [0]
    bridge_starts = [0]
    edge_stack: list[tuple[int, int]] = []
    timer = 0

    for s in range(n):
        if disc[s] != -1:
            continue
        cid = len(comps)
        comp = [s]
        branches[s] = 0  # the root has no piece above it
        comp_id[s] = cid
        disc[s] = low[s] = timer
        timer += 1
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
                branches[u] += 1
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
        # every vertex of the component was expanded exactly once, and
        # its blocks and bridges are the ones found since it started
        if counters:
            counters.dfs_visits += len(comp)
        comps.append(sorted(comp))
        ns_blocks[block_starts[-1]:] = sorted(ns_blocks[block_starts[-1]:])
        cut_edges[bridge_starts[-1]:] = sorted(cut_edges[bridge_starts[-1]:])
        block_starts.append(len(ns_blocks))
        bridge_starts.append(len(cut_edges))

    return Decomposition(
        comp_id=comp_id,
        comps=comps,
        branches=branches,
        is_cut=[b >= 2 for b in branches],
        ns_blocks=ns_blocks,
        cut_edges=cut_edges,
        block_starts=block_starts,
        bridge_starts=bridge_starts,
        degree=[len(g.adj[v]) for v in range(n)],
    )


def _noncut_minima(g: BipartiteGraph, dec: Decomposition, blk: tuple) -> MinPair:
    """Smallest noncut vertex on each side of the sorted block blk."""
    mins: list[Optional[int]] = [None, None]
    for v in blk:
        if not dec.is_cut[v]:
            s = g.sides[v]
            if mins[s] is None:
                mins[s] = v
    return mins[0], mins[1]


def pendant_records(g: BipartiteGraph, dec: Decomposition) -> list[PendantRec]:
    """All pendant blocks, ordered by smallest member vertex."""
    recs: list[PendantRec] = []
    for blk in dec.ns_blocks:
        cuts = [v for v in blk if dec.is_cut[v]]
        if len(cuts) != 1:
            continue
        recs.append(
            PendantRec(
                ptype="AB",
                comp=dec.comp_id[blk[0]],
                key=blk[0],
                min_nc=_noncut_minima(g, dec, blk),
            )
        )
    for v in range(g.n):
        if dec.degree[v] == 1 and not dec.is_cut[v]:
            side = g.sides[v]
            recs.append(
                PendantRec(
                    ptype="A" if side == 0 else "B",
                    comp=dec.comp_id[v],
                    key=v,
                    min_nc=(v, None) if side == 0 else (None, v),
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
                lab = " ".join(g.labels[v] for v in t.payload[x])
            elif kind in (S_NODE, C_NODE):
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
    """One collapse: the merged node y, the fused path with its top
    node, and what the tree no longer shows afterwards: the retired
    nodes, the surviving cut vertices and the degrees before.  y took
    over the children of the absorbed node adopted; moved lists the
    off-path children of the other absorbed nodes, now y's too."""

    y: int
    path: list[int]
    absorbed: list[int]
    survivors: list[int]
    top: int
    old_degrees: dict[int, int]
    adopted: int
    moved: list[int]


class BlockTree:
    """Structure tree of one connected component with >= 2 vertices."""

    def __init__(self) -> None:
        self.kind: list[str] = []
        # the sorted vertices of a decomposed block, None for a merged
        # block, the vertex of a pendant or cut node, a bridge's (a, b)
        self.payload: list = []
        # a block or pendant node's smallest noncut vertex per side, all a
        # binding edge reads; (None, None) on cut vertex and bridge nodes
        self.min_nc: list[MinPair] = []
        self.alive: list[bool] = []
        # a live node's parent, or a retired node that up() resolves to
        # it; a retired node's parent is the node that absorbed it
        self.parent: list[int] = []
        self.children: list[set[int]] = []
        self.root = -1
        self.sides: tuple[int, ...] = ()

    def new_node(self, kind: str, payload, min_nc: MinPair = (None, None)) -> int:
        node = len(self.kind)
        self.kind.append(kind)
        self.payload.append(payload)
        self.min_nc.append(min_nc)
        self.alive.append(True)
        self.parent.append(-1)
        self.children.append(set())
        return node

    def up(self, x: int) -> int:
        """x's live parent, or -1 at the root.

        A stale pointer leads through retired nodes, each pointing at
        the node that absorbed it; the walk points every node on it
        straight at the live end, so later reads are one step.
        """
        parent, alive = self.parent, self.alive
        p = parent[x]
        if p == -1 or alive[p]:
            return p
        top = p
        while not alive[top]:
            top = parent[top]
        while p != top:
            parent[p], p = top, parent[p]
        parent[x] = top
        return top

    def degree(self, x: int) -> int:
        # a stale parent pointer is never -1, so no need to resolve it
        return len(self.children[x]) + (1 if self.parent[x] != -1 else 0)

    def neighbors(self, x: int) -> list[int]:
        out = sorted(self.children[x])
        p = self.up(x)
        if p != -1:
            out.append(p)
        return out

    def leaf_type(self, x: int) -> str:
        k = self.kind[x]
        if k == B_NODE:
            return "AB"
        if k == S_NODE:
            return "A" if self.min_nc[x][0] is not None else "B"
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
        undirected: list[tuple[int, tuple[str, int]]] = []
        cut_node: dict[int, int] = {}

        for blk in dec.ns_blocks[dec.block_starts[cid] : dec.block_starts[cid + 1]]:
            node = t.new_node(B_NODE, blk, _noncut_minima(g, dec, blk))
            for v in blk:
                if dec.is_cut[v]:
                    undirected.append((node, ("c", v)))
        svnode: dict[int, int] = {}
        for v in comp:
            if dec.degree[v] == 1 and not dec.is_cut[v]:
                mins = (v, None) if g.sides[v] == 0 else (None, v)
                svnode[v] = t.new_node(S_NODE, v, mins)
        for v in comp:
            if dec.is_cut[v]:
                cut_node[v] = t.new_node(C_NODE, v)
        bridges = dec.cut_edges[dec.bridge_starts[cid] : dec.bridge_starts[cid + 1]]
        for a, b in bridges:
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
            y = cut_node[ref[1]] if ref[0] == "c" else ref[1]
            adj[x].append(y)
            adj[y].append(x)

        # Root at the cut vertex splitting the component the most, ties to
        # the lowest vertex; bridge-only two vertex components root at the
        # bridge node, single block components at the block.
        if cut_node:
            root = cut_node[max(cut_node, key=lambda v: (dec.branches[v], -v))]
        else:
            root = len(t.kind) - 1 if bridges else 0
        # a tree hangs from its root in one way: every neighbour of a node
        # but its parent is its child
        stack = [root]
        placed = 1
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y != t.parent[x]:
                    t.parent[y] = x
                    t.children[x].add(y)
                    stack.append(y)
                    placed += 1
        t.root = root
        if placed != len(t.kind):
            raise AssertionError("structure tree is not connected")
        return t

    def reroot(self, target: int) -> list[int]:
        """Hang the tree from target by reversing the tree path to it from
        the root, in O(path); returns that path, root first.  Parent
        pointers off the path stay as they are, stale ones included."""
        path = []
        x = target
        while x != -1:
            path.append(x)
            x = self.up(x)
        check(path[-1] == self.root, "reroot target is not below the root")
        path.reverse()
        parent, children = self.parent, self.children
        for a, b in zip(path, path[1:]):
            children[a].discard(b)
            parent[a] = b
            children[b].add(a)
        parent[target] = -1
        self.root = target
        return path

    def collapse(
        self, path: list[int], counters: OpCounters | None = None
    ) -> CollapseInfo:
        """Fuse the tree path between two paired block nodes.

        Both path ends must be block or pendant vertex nodes.  Returns
        what changed, so index structures can update incrementally.
        """
        check(len(path) >= 3, "collapse path needs three nodes or more")
        kind, parent, alive = self.kind, self.parent, self.alive
        children = self.children
        check(
            kind[path[0]] in (B_NODE, S_NODE) and kind[path[-1]] in (B_NODE, S_NODE),
            "collapse path must end in block or pendant nodes",
        )
        pathset = set(path)
        absorbed: list[int] = []
        survivors: list[int] = []
        old_degrees: dict[int, int] = {}
        tops: list[int] = []
        # y adopts the child set of the absorbed node with the most
        # children, the first on the path among equals
        adopted, most = -1, -1
        for x in path:
            p = parent[x]
            kids_n = len(children[x])
            d = kids_n + (1 if p != -1 else 0)
            old_degrees[x] = d
            if kind[x] == C_NODE and d >= 3:
                survivors.append(x)
            else:
                absorbed.append(x)
                if kids_n > most:
                    adopted, most = x, kids_n
            if p != -1 and not alive[p]:
                p = self.up(x)
            if p == -1 or p not in pathset:
                tops.append(x)
        check(len(tops) == 1, "collapse path must be a contiguous tree path")
        top = tops[0]

        mins: list[Optional[int]] = [None, None]
        for x in absorbed:
            if kind[x] == C_NODE:
                # absorbed cut vertices stop being cut, so they become
                # noncut members of the merged block
                v = self.payload[x]
                pair = (v, None) if self.sides[v] == 0 else (None, v)
            else:
                pair = self.min_nc[x]
            for s in (0, 1):
                v = pair[s]
                if v is not None and (mins[s] is None or v < mins[s]):
                    mins[s] = v
        y = self.new_node(B_NODE, None, (mins[0], mins[1]))

        # the adopted children keep their parent pointers, which reach y
        # through the retired node; only the others move
        kids = children[adopted]
        kids -= pathset
        children[y] = kids
        moved: list[int] = []
        for x in absorbed:
            if x != adopted:
                for ch in children[x]:
                    if ch not in pathset:
                        moved.append(ch)
        for ch in moved:
            parent[ch] = y
            kids.add(ch)
        if counters:
            counters.tree_nodes += 1
            counters.collapse_steps += len(absorbed) + len(moved)
        for c in survivors:
            children[c] -= pathset
            if c != top:
                parent[c] = y
                kids.add(c)
        if top in survivors:
            children[top].add(y)
            parent[y] = top
        else:
            p = self.up(top)
            parent[y] = p
            if p != -1:
                children[p].discard(top)
                children[p].add(y)
        for x in absorbed:
            alive[x] = False
            children[x] = set()
            parent[x] = y
        if not alive[self.root]:
            self.root = y

        return CollapseInfo(
            y=y,
            path=path,
            absorbed=absorbed,
            survivors=survivors,
            top=top,
            old_degrees=old_degrees,
            adopted=adopted,
            moved=moved,
        )
