"""Block decomposition and the mutable structure tree.

decompose() runs one iterative lowpoint pass and reports, per
component: the maximal biconnected vertex sets of size three or more
(called nonsingular blocks), bridge edges, cut vertices, and how many
pieces deleting each vertex leaves behind.  A vertex on no nonsingular
block forms a block of its own; such a vertex with degree one is a
pendant, with degree zero it is already a finished component.
Blocks and bridges are grouped by component, and each component's
group is sorted (blocks by vertex tuple, bridges by pair), as are the
members of each block and component.  Decomposition.component() gives
one component's members, blocks and bridges, and BlockTree.build() takes
them, so a structure tree is a function of the sorted block set, not of
the order the DFS met them in.  Decomposition.join() gives the parts,
and the branches, of the one component that bridges between noncut
vertices make of several, so a bridged graph needs no second
decomposition.  Nothing writes a decomposition after decompose().
pendant_records() reads every pendant block off a decomposition as five
parallel int lists, type, component, key (the smallest member vertex)
and smallest noncut vertex per side, in key order: no object per
pendant.

BlockTree models one component as a tree over block, pendant vertex,
cut vertex and bridge nodes.  Its collapse() applies the effect of one
binding edge: the whole tree path between the two paired nodes fuses
into a single new block node, degree two cut vertices on the path stop
being cut vertices, and higher degree ones survive with their degree
reduced by one.  The path is given as it is found, as two descents
from different children of the root to the two leaves, so the root is
always its top and each path node's parent on the path is the node
before it in its descent.  The new node takes over the children of the
absorbed node with the most children at once, so a collapse costs the
path plus the other children it moves, not the size of the merged
block.  The adopted children keep pointing at the retired node; up()
resolves such stale parent pointers.  fuse_chains() is the collapse of
the path between the pendants of two chains of the root: both chains
retire whole and no child moves, so it needs no path check or search.

Every node carries a four bit code describing its subtree: bit 8 says
the subtree holds more than one pendant, bits 4, 2, 1 say it holds a
pendant of type A, B, AB.  A pendant type is matching's int A, B or AB,
and the tuple LEAF_CODE = (4, 2, 1), indexed by type, is the one map
from type to code.  A node's children sit in buckets, one intrusive
list per child code, and these are the tree's only child lists: "a
child whose subtree holds a type B pendant" is a head lookup, and
collapse() and reroot() keep every code and bucket current.  The
bucket heads sit in one flat array of sixteen slots per node, beside a
bit mask per node of the codes whose bucket is not empty; a merged node
takes over the slots of the node it adopts.  Every per-node field is a
flat list sized once, at build, so building, collapsing and re-rooting
allocate no container per node.

A build hangs the tree from its root in two passes: a peel, which
takes every node after its children and so settles the node's code as
it takes it, then one pass that fills every bucket in descending node
id order, so each head starts as the lowest id in its bucket; later
pushes put single nodes at the heads.  Every push is a function of the
tree, and so of the input alone: repeated runs make identical choices.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from .errors import InvariantViolation, check
from .graph import BipartiteGraph
from .matching import AB, A, B
from .stats import OpCounters


@dataclass(frozen=True)
class Decomposition:
    """What decompose() found, never written afterwards: component()
    reads one component's sorted members, blocks and bridges, and join()
    those the bridges make of several, with a copy of branches."""

    comp_id: list[int]
    comps: list[list[int]]
    # pieces deleting a vertex leaves in its component: 2 or more on a
    # cut vertex
    branches: list[int]
    # grouped by component and sorted within each group; component c's
    # blocks are ns_blocks[block_starts[c]:block_starts[c + 1]], its
    # bridges cut_edges[bridge_starts[c]:bridge_starts[c + 1]]
    ns_blocks: list[tuple[int, ...]]
    cut_edges: list[tuple[int, int]]
    block_starts: list[int]
    bridge_starts: list[int]

    def component(
        self, cid: int
    ) -> tuple[list[int], list[tuple[int, ...]], list[tuple[int, int]]]:
        """Component cid's sorted members, blocks and bridges."""
        bs, es = self.block_starts, self.bridge_starts
        return (
            self.comps[cid],
            self.ns_blocks[bs[cid] : bs[cid + 1]],
            self.cut_edges[es[cid] : es[cid + 1]],
        )

    def join(
        self, comps: list[int], bridges: list[tuple[int, int]]
    ) -> tuple[list[int], list[int], list[tuple[int, ...]], list[tuple[int, int]]]:
        """The branches, members, blocks and bridges that decompose()
        gives the one component the bridges make of comps.

        Each bridge joins one more of comps, and its ends must be noncut
        vertices (branches 1): each becomes a cut vertex with one more
        piece and one more edge, in a copy of branches.  No block
        changes, so the merged parts are those of comps, with the
        bridges, each sorted.
        """
        check(len(bridges) == len(comps) - 1, "join needs a bridge per component")
        members: list[int] = []
        blocks: list[tuple[int, ...]] = []
        edges = list(bridges)
        for c in comps:
            comp, own_blocks, own_bridges = self.component(c)
            members += comp
            blocks += own_blocks
            edges += own_bridges
        inside = set(comps)
        comp_id, branches = self.comp_id, self.branches[:]
        for edge in bridges:
            for x in edge:
                if comp_id[x] not in inside or branches[x] != 1:
                    raise InvariantViolation(
                        f"bridge end {x} is no noncut vertex of the joined components"
                    )
                branches[x] = 2
        return branches, sorted(members), sorted(blocks), sorted(edges)


def decompose(g: BipartiteGraph, counters: OpCounters | None = None) -> Decomposition:
    n = g.n
    adj, sides = g.adj, g.sides
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    nxt = [0] * n  # position in each vertex's row the DFS resumes at
    branches = [1] * n
    comp_id = [-1] * n
    comps: list[list[int]] = []
    ns_blocks: list[tuple[int, ...]] = []
    cut_edges: list[tuple[int, int]] = []
    block_starts = [0]
    bridge_starts = [0]
    # the edge stack, as the tails and the heads of its edges
    tails: list[int] = []
    heads: list[int] = []
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
        stack = [s]
        while stack:
            v = stack[-1]
            row = adj[v]
            i, end = nxt[v], len(row)
            dv, pv, lv = disc[v], parent[v], low[v]
            w = -1
            while i < end:
                x = row[i]
                i += 1
                dx = disc[x]
                if dx == -1:
                    w = x
                    break
                if dx < dv and x != pv:
                    tails.append(v)
                    heads.append(x)
                    if dx < lv:
                        lv = dx
            nxt[v] = i
            low[v] = lv
            if w != -1:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                comp_id[w] = cid
                comp.append(w)
                tails.append(v)
                heads.append(w)
                stack.append(w)
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1]
            if lv < low[u]:
                low[u] = lv
            if lv >= disc[u]:
                branches[u] += 1
                # the edges above (u, v) on the stack and (u, v) itself
                a, b = tails.pop(), heads.pop()
                if a == u and b == v:
                    cut_edges.append((u, v) if sides[u] == 0 else (v, u))
                else:
                    vset = {a, b}
                    while a != u or b != v:
                        a, b = tails.pop(), heads.pop()
                        vset.add(a)
                        vset.add(b)
                    ns_blocks.append(tuple(sorted(vset)))
        # every vertex of the component was expanded exactly once, and
        # its blocks and bridges are the ones found since it started
        if counters:
            counters.dfs_visits += len(comp)
        if len(comp) > 1:
            comp.sort()
        comps.append(comp)
        # a lone block or bridge is sorted already
        first, end = block_starts[-1], len(ns_blocks)
        if end - first > 1:
            ns_blocks[first:] = sorted(ns_blocks[first:])
        block_starts.append(end)
        first, end = bridge_starts[-1], len(cut_edges)
        if end - first > 1:
            cut_edges[first:] = sorted(cut_edges[first:])
        bridge_starts.append(end)

    return Decomposition(
        comp_id=comp_id,
        comps=comps,
        branches=branches,
        ns_blocks=ns_blocks,
        cut_edges=cut_edges,
        block_starts=block_starts,
        bridge_starts=bridge_starts,
    )


def pendant_records(
    g: BipartiteGraph, dec: Decomposition
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """All pendant blocks as five parallel lists (ptype, comp, key, min_a,
    min_b), ordered by key.

    A record's ptype is matching's A, B or AB, comp its component, key
    its smallest member vertex, and min_a and min_b its smallest noncut
    member vertex on side A and on side B, -1 for none.  Keys tie only
    between AB blocks that share their smallest vertex, a cut vertex;
    sorted block order breaks the tie.
    """
    branches, comp_id, sides = dec.branches, dec.comp_id, g.sides
    ptype: list[int] = []
    key: list[int] = []
    min_a: list[int] = []
    min_b: list[int] = []
    for blk in dec.ns_blocks:
        cuts = 0
        ma = mb = -1
        for v in blk:
            if branches[v] >= 2:
                cuts += 1
            elif sides[v]:
                if mb == -1:
                    mb = v
            elif ma == -1:
                ma = v
        if cuts == 1:
            ptype.append(AB)
            key.append(blk[0])
            min_a.append(ma)
            min_b.append(mb)
    blocks = len(key)
    for v, row in enumerate(g.adj):
        if len(row) == 1 and branches[v] < 2:
            side = sides[v]
            ptype.append(side)  # a pendant vertex's type is its side: A 0, B 1
            key.append(v)
            min_a.append(-1 if side else v)
            min_b.append(v if side else -1)
    if blocks:
        # the blocks come grouped by component and the vertices in
        # order: a stable sort merges them, and blocks of one key keep
        # their sorted order
        order = sorted(range(len(key)), key=key.__getitem__)
        ptype = [ptype[i] for i in order]
        key = [key[i] for i in order]
        min_a = [min_a[i] for i in order]
        min_b = [min_b[i] for i in order]
    return ptype, [comp_id[v] for v in key], key, min_a, min_b


# Tree node kinds.
B_NODE = "b"  # nonsingular or merged block
S_NODE = "s"  # singular pendant vertex
C_NODE = "c"  # cut vertex
K_NODE = "k"  # bridge edge

# a pendant's code, indexed by its type
LEAF_CODE = (4, 2, 1)
# a node's bucket heads take SLOTS slots of one flat list, the one for
# code c at the node's base plus c, and bit c of its presence mask says
# bucket c is not empty; the masks of the buckets whose code has bit 8,
# 4, 2 or 1 set
SLOTS = 16
_WITH_8, _WITH_4, _WITH_2, _WITH_1 = (
    sum(1 << c for c in range(1, SLOTS) if c & bit) for bit in (8, 4, 2, 1)
)

_DOT_SHAPE = {B_NODE: "box", S_NODE: "box", C_NODE: "circle", K_NODE: "diamond"}


def _dot_string(text: str) -> str:
    """text as a DOT quoted string: backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tree_to_dot(g: BipartiteGraph) -> str:
    """Structure trees of all components as one DOT forest.

    Blocks and pendant vertices render as boxes, cut vertices as
    circles, bridges as diamonds.  Labels are escaped for DOT quoted
    strings.  Output is deterministic.
    """
    dec = decompose(g)
    lines = ["graph blocktree {"]
    for cid in range(len(dec.comps)):
        comp, blocks, bridges = dec.component(cid)
        if len(comp) == 1:
            lab = _dot_string(g.labels[comp[0]])
            lines.append(f"  c{cid}_n0 [shape=box, label={lab}];")
            continue
        t = BlockTree.build(g, dec.branches, comp, blocks, bridges)
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
                f"  c{cid}_n{x} [shape={_DOT_SHAPE[kind]}, label={_dot_string(lab)}];"
            )
        for x in t.live_nodes():
            for ch in sorted(t.kids(x)):
                lines.append(f"  c{cid}_n{x} -- c{cid}_n{ch};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(slots=True)
class CollapseInfo:
    """One collapse: the merged node y, the fused path, and what the
    tree no longer shows afterwards: the retired nodes, of which
    branching had degree three or more, and the surviving cut vertices,
    each now one degree lower.  y took over the children of the
    absorbed node with the most; moved lists the off-path children of
    the other absorbed nodes, now y's too."""

    y: int
    path: list[int]
    absorbed: list[int]
    survivors: list[int]
    branching: int
    moved: list[int]


class _Children:
    """tree.children[x]: a read-only view of x's children, in bucket
    order.  Only perfbench's tracer reads it; everything else calls kids()."""

    __slots__ = ("_tree",)

    def __init__(self, tree: "BlockTree") -> None:
        self._tree = tree

    def __getitem__(self, x: int) -> "_ChildList":
        return _ChildList(self._tree, x)


class _ChildList:
    __slots__ = ("_tree", "_x")

    def __init__(self, tree: "BlockTree", x: int) -> None:
        self._tree, self._x = tree, x

    def __len__(self) -> int:
        return self._tree.nkids[self._x]

    def __iter__(self) -> Iterator[int]:
        return iter(self._tree.kids(self._x))


class BlockTree:
    """Structure tree of one connected component with >= 2 vertices.

    Every per-node field is a flat list sized once, at build, for all
    the nodes the tree can ever hold: each collapse adds one node and
    ends two leaves while making at most one, so the initial nodes plus
    the initial leaves are enough.  A node sits in the buckets of its
    live parent, doubly linked through sprev and snext; parent itself
    may point at a retired node.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.size = 0  # nodes made so far, retired ones included
        self.kind: list[str] = [B_NODE] * capacity
        # the sorted vertices of a decomposed block, None for a merged
        # block, the vertex of a pendant or cut node, a bridge's (a, b)
        self.payload: list = [None] * capacity
        # a block or pendant node's smallest noncut vertex per side, -1
        # for none, all a binding edge reads; -1 on cut and bridge nodes
        self.min_a = [-1] * capacity
        self.min_b = [-1] * capacity
        self.alive = [False] * capacity
        # a live node's parent, or a retired node that up() resolves to
        # it; a retired node's parent is the node that absorbed it
        self.parent = [-1] * capacity
        # the subtree codes, the child counts, and the buckets: node x's
        # bucket for code c has its head at heads[base[x] + c], and bit c
        # of present[x] says it is not empty; build() sizes heads.
        # heads is an int array, half a list's memory: a dropped tree
        # waits for the cyclic collector, as children points back at it
        self.code = [0] * capacity
        self.nkids = [0] * capacity
        self.base = [-1] * capacity
        self.heads = array("i")
        self.present = [0] * capacity
        self.sprev = [-1] * capacity
        self.snext = [-1] * capacity
        self.children = _Children(self)
        self.root = -1
        self.sides: tuple[int, ...] = ()

    def new_node(self, kind: str, payload, min_a: int, min_b: int) -> int:
        node = self.size
        if node >= self.capacity:
            raise InvariantViolation("structure tree outgrew its capacity")
        self.size = node + 1
        self.kind[node] = kind
        self.payload[node] = payload
        self.min_a[node] = min_a
        self.min_b[node] = min_b
        self.alive[node] = True
        return node

    # ------------------------------------------------------------------
    # buckets and codes

    def _link(self, p: int, x: int) -> None:
        """Put x at the head of p's bucket for x's current code."""
        c = self.code[x]
        slot = self.base[p] + c
        head = self.heads[slot]
        self.sprev[x] = -1
        self.snext[x] = head
        if head != -1:
            self.sprev[head] = x
        else:
            self.present[p] |= 1 << c
        self.heads[slot] = x
        self.nkids[p] += 1

    def _unlink(self, p: int, x: int) -> None:
        """Take x out of p's bucket for x's current code."""
        a, b = self.sprev[x], self.snext[x]
        if a != -1:
            self.snext[a] = b
        else:
            c = self.code[x]
            self.heads[self.base[p] + c] = b
            if b == -1:
                self.present[p] &= ~(1 << c)
        if b != -1:
            self.sprev[b] = a
        self.sprev[x] = self.snext[x] = -1
        self.nkids[p] -= 1

    def _leaf_code(self, x: int) -> int:
        """The code of x without children: its pendant type's, and 0 on
        a cut or bridge node."""
        return LEAF_CODE[self.leaf_type(x)] if self.kind[x] in (B_NODE, S_NODE) else 0

    def _fresh_code(self, x: int) -> int:
        """x's code from its buckets, which must be current."""
        kids = self.nkids[x]
        if kids == 0:
            return self._leaf_code(x)
        code = 8 if kids >= 2 else 0
        mask = self.present[x]
        if mask & _WITH_8:
            code |= 8
        if mask & _WITH_4:
            code |= 4
        if mask & _WITH_2:
            code |= 2
        if mask & _WITH_1:
            code |= 1
        return code

    def kids(self, x: int) -> list[int]:
        """x's children, bucket by bucket in ascending code order."""
        out = []
        base, mask, heads, nxt = self.base[x], self.present[x], self.heads, self.snext
        while mask:
            low = mask & -mask
            c = heads[base + low.bit_length() - 1]
            while c != -1:
                out.append(c)
                c = nxt[c]
            mask ^= low
        return out

    # ------------------------------------------------------------------
    # reading the tree

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
        return self.nkids[x] + (1 if self.parent[x] != -1 else 0)

    def next_along(self, x: int, prev: int) -> int:
        """x's neighbour other than prev, for x of degree at most two and
        prev -1 for none: its live parent, else its child other than prev."""
        p = self.up(x)
        if p != -1 and p != prev:
            return p
        return next(c for c in self.kids(x) if c != prev)

    def leaf_type(self, x: int) -> int:
        k = self.kind[x]
        if k == B_NODE:
            return AB
        if k == S_NODE:
            return A if self.min_a[x] != -1 else B
        raise ValueError(f"node {x} has no pendant type")

    def live_nodes(self) -> list[int]:
        alive = self.alive
        return [x for x in range(self.size) if alive[x]]

    def leaves(self) -> list[int]:
        return [
            x
            for x in self.live_nodes()
            if self.degree(x) == 1 and self.kind[x] in (B_NODE, S_NODE)
        ]

    # ------------------------------------------------------------------
    # building and changing the tree

    @staticmethod
    def build(
        g: BipartiteGraph,
        branches: list[int],
        comp: list[int],
        blocks: list[tuple[int, ...]],
        bridges: list[tuple[int, int]],
        counters: OpCounters | None = None,
    ) -> "BlockTree":
        """The tree of the component with these sorted members, blocks
        and bridges, in one walk over them; Decomposition.component()
        gives them, and join() gives them with the branches to use.

        Node ids follow a fixed order: blocks, pendant vertices, cut
        vertices, bridges, each in sorted order.  The walk records each
        node's degree and the xor of its neighbours' ids, and the tree
        then hangs from its root in two passes.  The first peels leaves:
        a leaf's one neighbour left is the xor, and it is the leaf's
        parent.  A node is peeled after all its children, so the peel
        settles its code, child count and presence mask as it takes it.
        The second links every child into its parent's bucket in
        descending id order, so each head is the lowest id its bucket
        holds.
        """
        if len(comp) < 2:
            raise ValueError("structure tree needs a component with >= 2 vertices")
        adj, sides = g.adj, g.sides
        # a bridge end the join made a cut vertex is no pendant, whatever
        # its degree in g
        pend = [v for v in comp if len(adj[v]) == 1 and branches[v] < 2]
        cuts = [v for v in comp if branches[v] >= 2]
        c_first = len(blocks) + len(pend)
        k_first = c_first + len(cuts)
        n = k_first + len(bridges)
        # the node of every pendant and cut vertex
        vnode = dict(zip(pend, range(len(blocks), c_first)))
        vnode.update(zip(cuts, range(c_first, k_first)))
        deg = [0] * n
        nbx = [0] * n  # xor of the neighbours' ids

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

        # Root at the cut vertex splitting the component the most, ties to
        # the lowest vertex; bridge-only two vertex components root at the
        # bridge node, single block components at the block.
        if cuts:
            root, most = -1, -1
            for x, v in enumerate(cuts, c_first):
                if branches[v] > most:
                    root, most = x, branches[v]
        else:
            root = n - 1 if bridges else 0
        t.root = root
        # the peel; a node's code is the or of its children's codes, plus
        # 8 if it has two or more, and a node without children has its
        # leaf code: 1 for a block, 4 or 2 for a pendant vertex of side A
        # or B, 0 on a cut or bridge node
        parent, code, nkids, present = t.parent, t.code, t.nkids, t.present
        p_first = len(blocks)
        stack = [x for x in range(n) if deg[x] == 1 and x != root]
        peeled = 0
        while stack:
            x = stack.pop()
            if deg[x] != 1:
                continue
            k = nkids[x]
            if k:
                c = code[x] | 8 if k >= 2 else code[x]
            elif x < p_first:
                c = 1
            elif x < c_first:
                c = 2 if sides[pend[x - p_first]] else 4
            else:
                c = 0
            code[x] = c
            p = nbx[x]
            parent[x] = p
            code[p] |= c
            nkids[p] += 1
            present[p] |= 1 << c
            peeled += 1
            nbx[p] ^= x
            deg[p] -= 1
            if deg[p] == 1 and p != root:
                stack.append(p)
        check(peeled == n - 1, "structure tree is not connected")
        k = nkids[root]
        code[root] = (code[root] | (8 if k >= 2 else 0)) if k else t._leaf_code(root)
        # the links; node p's slots start at its base, p * SLOTS
        t.base[:n] = range(0, n * SLOTS, SLOTS)
        t.heads = heads = array("i", [-1]) * (n * SLOTS)
        sprev, snext = t.sprev, t.snext
        for x in range(n - 1, -1, -1):
            p = parent[x]
            if p != -1:
                slot = p * SLOTS + code[x]
                head = heads[slot]
                if head != -1:
                    snext[x] = head
                    sprev[head] = x
                heads[slot] = x
        return t

    def reroot(self, target: int) -> list[int]:
        """Hang the tree from target by reversing the tree path to it from
        the root, in O(path); returns that path, root first.  Each node
        on it moves into the buckets of the next with a fresh code.
        Parent pointers off the path stay as they are, stale ones
        included."""
        path = []
        x = target
        while x != -1:
            path.append(x)
            x = self.up(x)
        if path[-1] != self.root:
            raise InvariantViolation("reroot target is not below the root")
        path.reverse()
        parent, code = self.parent, self.code
        for a, b in zip(path, path[1:]):
            self._unlink(a, b)
            parent[a] = b
            code[a] = self._fresh_code(a)
            self._link(b, a)
        parent[target] = -1
        code[target] = self._fresh_code(target)
        self.root = target
        return path

    def collapse(
        self, path1: list[int], path2: list[int], counters: OpCounters | None = None
    ) -> CollapseInfo:
        """Fuse the tree path that an edge between two leaves closes.

        path1 and path2 descend from two different children of the root
        to the two leaves, which must be block or pendant vertex nodes;
        each node's live parent is the node before it, the root for the
        first.  The fused path is reversed path1, the root, then path2,
        and it is visited in that order.  Codes and buckets are current
        again on return; the result says what changed, so the index can
        update its counts.
        """
        kind, parent, alive, nkids = self.kind, self.parent, self.alive, self.nkids
        if not (path1 and path2) or path1[0] == path2[0]:
            raise InvariantViolation(
                "collapse descents must start at two root children"
            )
        if kind[path1[-1]] in (C_NODE, K_NODE) or kind[path2[-1]] in (C_NODE, K_NODE):
            raise InvariantViolation("collapse path must end in block or pendant nodes")
        root = self.root
        for desc in (path1, path2):
            prev = root
            for x in desc:
                p = parent[x]
                # a retired parent resolves through up(); -1 never matches
                if p != prev and (p == -1 or alive[p] or self.up(x) != prev):
                    raise InvariantViolation(
                        "collapse path must be a contiguous tree path"
                    )
                prev = x
        path = path1[::-1]
        path.append(root)
        path += path2
        absorbed: list[int] = []
        survivors: list[int] = []
        below: list[int] = []  # the survivors but the root
        branching = 0
        # y adopts the buckets of the absorbed node with the most
        # children, the first on the path among equals
        adopted, most = -1, -1
        ma = mb = -1  # y's smallest noncut vertex per side
        sides, payload, min_a, min_b = self.sides, self.payload, self.min_a, self.min_b
        for x in path:
            kids_n = nkids[x]
            # every path node but the root has a parent on the path
            deg = kids_n + (x != root)
            if kind[x] == C_NODE:
                if deg >= 3:
                    survivors.append(x)
                    if x != root:
                        below.append(x)
                    continue
                # an absorbed cut vertex stops being cut, so it becomes a
                # noncut member of the merged block
                v = payload[x]
                va, vb = (v, -1) if sides[v] == 0 else (-1, v)
            else:
                if deg >= 3:
                    branching += 1
                va, vb = min_a[x], min_b[x]
            absorbed.append(x)
            if kids_n > most:
                adopted, most = x, kids_n
            if va != -1 and (ma == -1 or va < ma):
                ma = va
            if vb != -1 and (mb == -1 or vb < mb):
                mb = vb
        y = self.new_node(B_NODE, None, ma, mb)
        code = self.code

        # every descent node leaves the buckets of the node above it
        for desc in (path1, path2):
            prev = root
            for x in desc:
                self._unlink(prev, x)
                prev = x
        # survivors below the root lost a path child, so their codes are
        # stale
        for c in below:
            code[c] = self._fresh_code(c)

        # y takes the adopted buckets by their base; the adopted children
        # keep their parent pointers, which reach y through the retired
        # node, and every other child y gains moves in descending id order
        self.base[y], self.present[y] = self.base[adopted], self.present[adopted]
        nkids[y] = nkids[adopted]
        moved: list[int] = []
        for x in absorbed:
            if x != adopted and nkids[x]:
                moved += self.kids(x)
            alive[x] = False
            parent[x] = y
        if moved or below:
            for ch in sorted(moved + below, reverse=True):
                parent[ch] = y
                self._link(y, ch)
        code[y] = self._fresh_code(y)
        if counters:
            counters.tree_nodes += 1
            counters.collapse_steps += len(absorbed) + len(moved)
            # fresh codes for below, y and a surviving root
            counters.index_updates += len(below) + 1 + alive[root]
        if alive[root]:
            # a surviving root keeps y as a child, with one child fewer
            parent[y] = root
            self._link(root, y)
            code[root] = self._fresh_code(root)
        else:
            parent[y] = -1
            self.root = y

        return CollapseInfo(y, path, absorbed, survivors, branching, moved)

    def fuse_chains(
        self, x1: int, x2: int, t1: int, t2: int, counters: OpCounters | None = None
    ) -> tuple[int, int, list[int]]:
        """collapse() for the path between the pendants of two chains of
        the root, x1 and x2, whose one pendant is of type t1 and t2.
        Returns the two pendants and the chains' cut nodes.

        Each chain is walked down from the root, a node's one child
        sitting in its bucket for the leaf code of the chain's type; the
        walk raises at a node with two children or an end that is no
        pendant of that type.  Nothing hangs off a chain and each cut
        node on it has degree two, so both chains retire whole and the
        root, which must have degree three or more, is the one survivor:
        the new node is a block leaf of the root, with the id, smallest
        noncut vertices, slots and bucket position collapse gives it.
        Only the chains' links to the root and the one bucket of the
        slots the new node takes over are cleared; no other link of a
        retired node is read again.
        """
        kind, payload, sides = self.kind, self.payload, self.sides
        min_a, min_b, alive, parent = self.min_a, self.min_b, self.alive, self.parent
        nkids, heads, base, code = self.nkids, self.heads, self.base, self.code
        root = self.root
        y = self.new_node(B_NODE, None, -1, -1)
        ends: list[int] = []
        cuts: list[int] = []
        ma = mb = -1
        retired = 0
        # collapse adopts the slots of the node with the most children,
        # the first among equals on the path chain one bottom up, the
        # root, chain two top down: chain one's node above its pendant,
        # else x2 when it has a child, else x1
        adopted = x2 if nkids[x2] else x1
        for x, ptype in ((x1, t1), (x2, t2)):
            self._unlink(root, x)
            bit = LEAF_CODE[ptype]
            while True:
                if kind[x] == C_NODE:
                    cuts.append(x)
                    v = payload[x]
                    va, vb = (v, -1) if sides[v] == 0 else (-1, v)
                else:
                    va, vb = min_a[x], min_b[x]
                if va != -1 and (ma == -1 or va < ma):
                    ma = va
                if vb != -1 and (mb == -1 or vb < mb):
                    mb = vb
                alive[x] = False
                parent[x] = y
                retired += 1
                kids = nkids[x]
                if not kids:
                    break
                if kids != 1:
                    raise InvariantViolation(f"chain node {x} has {kids} children")
                if not ends:
                    adopted = x
                x = heads[base[x] + bit]
                if x == -1:
                    raise InvariantViolation("a chain lost its pendant")
            if kind[x] not in (B_NODE, S_NODE) or self.leaf_type(x) != ptype:
                raise InvariantViolation(f"chain ended at {x}, not a {ptype} pendant")
            ends.append(x)
        if nkids[adopted]:
            # a chain node's one child has the node's own code
            heads[base[adopted] + code[adopted]] = -1
        min_a[y], min_b[y] = ma, mb
        base[y] = base[adopted]
        code[y] = LEAF_CODE[AB]
        parent[y] = root
        self._link(root, y)
        code[root] = self._fresh_code(root)
        if counters:
            counters.tree_nodes += 1
            counters.collapse_steps += retired
            # fresh codes for the new node and the root
            counters.index_updates += 2
        return ends[0], ends[1], cuts


def walk_list(x: int, nxt: list[int], need: int) -> list[int]:
    """Up to need members of the linked list that runs from x via nxt."""
    out: list[int] = []
    while x != -1 and len(out) < need:
        out.append(x)
        x = nxt[x]
    return out
