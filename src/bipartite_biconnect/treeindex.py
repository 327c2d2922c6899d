"""Incremental leaf type index over the structure tree.

Every node carries a four bit code describing its subtree: bit 8 says
the subtree holds more than one pendant, bits 4, 2, 1 say it holds a
pendant of type A, B, AB.  Children are kept in per code intrusive
lists, so "give me a child whose subtree holds a type B pendant" is a
constant time head lookup.  Cut vertex nodes are additionally grouped
by tree degree in linked lists chained from low to high degree, which
makes the most splitting cut vertex and the count of candidates at any
particular degree constant time queries as well.

A fresh build fills every list in descending node id order, so right
after it each head is the lowest eligible id.  That stops holding once
_recode_cascade, reroot_walk or a collapse pushes a single node to the
head of a list.  What does hold is that every push is a function of the
tree, and so of the input alone: repeated runs make identical choices.
"""

from __future__ import annotations

from .blocks import B_NODE, C_NODE, S_NODE, BlockTree, CollapseInfo
from .errors import NoCrossPair
from .matching import LEGAL_COMBOS, is_decrementing, profile
from .stats import OpCounters

LEAF_CODE = {"A": 4, "B": 2, "AB": 1}
# a chain child's code is the one leaf code its subtree holds
TYPE_OF_CHAIN_CODE = {c: ptype for ptype, c in LEAF_CODE.items()}
# codes of subtrees with more than one pendant that hold the given type
CODES_WITH_MANY = {
    ptype: tuple(c for c in range(8, 16) if c & bit)
    for ptype, bit in LEAF_CODE.items()
}
# codes whose subtree holds the given type; the single leaf code first
CODES_WITH = {ptype: (bit, *CODES_WITH_MANY[ptype]) for ptype, bit in LEAF_CODE.items()}


def _walk(x: int, nxt: list[int], need: int) -> list[int]:
    """Up to need members of the linked list that runs from x via nxt."""
    out: list[int] = []
    while x != -1 and len(out) < need:
        out.append(x)
        x = nxt[x]
    return out


class AugTreeIndex:
    def __init__(self, tree: BlockTree, counters: OpCounters | None = None):
        self.tree = tree
        self.counters = counters
        self._reset()

    # ------------------------------------------------------------------
    # construction

    def _reset(self) -> None:
        """Empty every maintained structure and fill it from the tree."""
        n = len(self.tree.kind)
        self.code = [0] * n
        self.bucket: list[dict[int, int]] = [dict() for _ in range(n)]
        self.sprev = [-1] * n
        self.snext = [-1] * n
        self.leaf_counts = {"A": 0, "B": 0, "AB": 0}
        self.grp_head: dict[int, int] = {}
        self.gprev = [-1] * n
        self.gnext = [-1] * n
        self.grp_of = [-1] * n
        self._max_top = 0
        self.cnt_branching = 0
        self._init_from_tree()

    def _grow(self, node: int) -> None:
        while len(self.code) <= node:
            self.code.append(0)
            self.bucket.append(dict())
            self.sprev.append(-1)
            self.snext.append(-1)
            self.gprev.append(-1)
            self.gnext.append(-1)
            self.grp_of.append(-1)

    def _init_from_tree(self) -> None:
        t = self.tree
        order: list[int] = []
        stack = [t.root]
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(t.children[x])
        for x in reversed(order):
            for ch in sorted(t.children[x], reverse=True):
                self._push(x, ch)
            self.code[x] = self._fresh_code(x)
            if self.counters:
                self.counters.index_updates += 1
        for x in order:
            d = t.degree(x)
            if d >= 3:
                self.cnt_branching += 1
            if t.kind[x] in (B_NODE, S_NODE) and d <= 1:
                self.leaf_counts[t.leaf_type(x)] += 1
        for x in sorted(order, reverse=True):
            if t.kind[x] == C_NODE:
                self._group_add(x, t.degree(x))

    # ------------------------------------------------------------------
    # low level list plumbing

    def _fresh_code(self, x: int) -> int:
        """x's code from its children, whose buckets must be current."""
        t = self.tree
        kids = len(t.children[x])
        if kids == 0 and t.kind[x] in (B_NODE, S_NODE):
            return LEAF_CODE[t.leaf_type(x)]
        code = 8 if kids >= 2 else 0
        for c in self.bucket[x]:
            code |= c
        return code

    def _push(self, p: int, x: int) -> None:
        """Put x at the head of p's bucket for x's current code."""
        c = self.code[x]
        head = self.bucket[p].get(c, -1)
        self.sprev[x] = -1
        self.snext[x] = head
        if head != -1:
            self.sprev[head] = x
        self.bucket[p][c] = x

    def _pop(self, p: int, x: int) -> None:
        c = self.code[x]
        if self.sprev[x] != -1:
            self.snext[self.sprev[x]] = self.snext[x]
        else:
            if self.snext[x] == -1:
                del self.bucket[p][c]
            else:
                self.bucket[p][c] = self.snext[x]
        if self.snext[x] != -1:
            self.sprev[self.snext[x]] = self.sprev[x]
        self.sprev[x] = self.snext[x] = -1

    def _group_add(self, x: int, d: int) -> None:
        head = self.grp_head.get(d, -1)
        self.gprev[x] = -1
        self.gnext[x] = head
        if head != -1:
            self.gprev[head] = x
        self.grp_head[d] = x
        self.grp_of[x] = d
        if d > self._max_top:
            self._max_top = d

    def _group_remove(self, x: int) -> None:
        d = self.grp_of[x]
        if d == -1:
            return
        if self.gprev[x] != -1:
            self.gnext[self.gprev[x]] = self.gnext[x]
        else:
            if self.gnext[x] == -1:
                del self.grp_head[d]
            else:
                self.grp_head[d] = self.gnext[x]
        if self.gnext[x] != -1:
            self.gprev[self.gnext[x]] = self.gprev[x]
        self.gprev[x] = self.gnext[x] = -1
        self.grp_of[x] = -1

    @property
    def max_cdeg(self) -> int:
        """Largest split degree among live cut nodes.

        Stored as an upper bound that only group insertions raise, and
        settled downward here on demand; the total settling work is
        bounded by the total raising work, so it amortizes away.
        """
        d = self._max_top
        heads = self.grp_head
        while d > 0 and d not in heads:
            d -= 1
        self._max_top = d
        return d

    def _recode_cascade(self, x: int) -> None:
        """Recompute x's code and ripple the change toward the root."""
        t = self.tree
        while x != -1:
            new = self._fresh_code(x)
            if self.counters:
                self.counters.index_updates += 1
            if new == self.code[x]:
                return
            p = t.parent[x]
            if p != -1:
                self._pop(p, x)
                self.code[x] = new
                self._push(p, x)
            else:
                self.code[x] = new
            x = p

    # ------------------------------------------------------------------
    # classification state

    def leaf_total(self) -> int:
        return (
            self.leaf_counts["A"] + self.leaf_counts["B"] + self.leaf_counts["AB"]
        )

    def counts(self) -> tuple[int, int, int]:
        return (self.leaf_counts["A"], self.leaf_counts["B"], self.leaf_counts["AB"])

    def m_plus_r(self) -> int:
        prof = profile(*self.counts())
        return prof.m + prof.r

    def m_value(self) -> int:
        return profile(*self.counts()).m

    def eta_now(self) -> int:
        return max(self.max_cdeg - 1, self.m_plus_r(), 0)

    def massive_node(self) -> int:
        """The cut vertex node splitting too hard, or -1."""
        if self.max_cdeg - 1 > self.m_plus_r():
            return self.grp_head[self.max_cdeg]
        return -1

    def critical_count(self) -> int:
        """Size of the critical group, counted up to three: s_case only
        asks whether it is two, and with few leaves the group can be long."""
        return len(_walk(self.critical_head(), self.gnext, 3))

    def critical_head(self) -> int:
        return self.grp_head.get(self.m_plus_r() + 1, -1)

    def critical_nodes(self) -> list[int]:
        return _walk(self.critical_head(), self.gnext, len(self.gnext))

    def s_case(self) -> str:
        """The solver case for the component as it stands now."""
        if self.leaf_total() <= 3:
            return "S1"
        if self.m_value() == 0:
            return "S2"
        if self.massive_node() != -1:
            return "S5"
        if self.critical_count() == 2:
            return "S3"
        return "S4_1" if self.cnt_branching == 1 else "S4_2"

    # ------------------------------------------------------------------
    # queries

    def child_with(
        self,
        p: int,
        ptype: str,
        many_only: bool = False,
        exclude: tuple[int, ...] = (),
        need: int = 1,
    ) -> list[int]:
        """Up to `need` children of p whose subtree holds a ptype pendant,
        optionally restricted to subtrees with more than one pendant,
        skipping excluded nodes.  Scans bucket heads in fixed code order."""
        out: list[int] = []
        codes = CODES_WITH_MANY[ptype] if many_only else CODES_WITH[ptype]
        for c in codes:
            x = self.bucket[p].get(c, -1)
            while x != -1 and len(out) < need:
                if x not in exclude:
                    out.append(x)
                x = self.snext[x]
            if len(out) >= need:
                return out
        return out

    def chain_children(self, p: int, code: int, need: int = 1) -> list[int]:
        return _walk(self.bucket[p].get(code, -1), self.snext, need)

    def descend(self, x: int, ptype: str) -> list[int]:
        """Walk from x down to a pendant of the given type.

        Returns the node path [x, ..., leaf].  x's subtree must hold one.
        """
        t = self.tree
        path = [x]
        bit = LEAF_CODE[ptype]
        while t.children[x]:
            assert self.code[x] & bit, f"subtree of {x} lost type {ptype}"
            nxt = -1
            for c in CODES_WITH[ptype]:
                nxt = self.bucket[x].get(c, -1)
                if nxt != -1:
                    break
            assert nxt != -1, f"no child of {x} holds type {ptype}"
            x = nxt
            path.append(x)
        assert t.leaf_type(x) == ptype
        return path

    # ------------------------------------------------------------------
    # rerooting

    def choose_root(self) -> tuple[str, int]:
        """Lemma style root policy for branch steps.

        Returns ("keep", root), ("rebuild", c_node) or ("walk", r_star)
        where r_star is reached from the root through single non chain
        descents.
        """
        t = self.tree
        root = t.root
        crit = self.critical_head()
        if crit != -1 and self.max_cdeg == self.m_plus_r() + 1:
            if crit == root:
                return ("keep", root)
            return ("rebuild", crit)
        d = t.degree(root)
        assert d >= 2, "root degenerated"
        if d >= 3:
            return ("keep", root)
        kids = sorted(t.children[root])
        assert len(kids) == 2
        if all(self.code[k] & 8 for k in kids):
            return ("keep", root)
        # exactly one child subtree holds more than one pendant; walk
        # down it to the first branching node
        x = next(k for k in kids if self.code[k] & 8)
        while True:
            if t.degree(x) >= 3:
                return ("walk", x)
            kids = sorted(t.children[x])
            assert len(kids) == 1
            x = kids[0]

    def reroot_walk(self, target: int) -> None:
        """Move the root down along the tree path to target, O(path)."""
        t = self.tree
        path = []
        x = target
        while x != -1:
            path.append(x)
            x = t.parent[x]
        assert path[-1] == t.root
        path.reverse()  # root ... target
        for i in range(len(path) - 1):
            a, b = path[i], path[i + 1]
            self._pop(a, b)
            t.children[a].discard(b)
            self.code[a] = self._fresh_code(a)
            if self.counters:
                self.counters.index_updates += 1
            t.parent[a] = b
            t.children[b].add(a)
            self._push(b, a)
        t.parent[target] = -1
        t.root = target
        self.code[target] = self._fresh_code(target)
        if self.counters:
            self.counters.index_updates += 1

    def rebuild(self, new_root: int) -> None:
        """Reorient the whole tree at new_root and rebuild from scratch."""
        self.tree.reorient(new_root)
        self._reset()

    # ------------------------------------------------------------------
    # collapse bookkeeping

    def update_after_collapse(self, info: CollapseInfo) -> None:
        """Bring the index in step with the tree right after collapse."""
        t = self.tree
        y = info.y
        # the collapse must leave structure around the merged block; a
        # path that swallows the whole tree never occurs mid solve
        assert t.parent[y] != -1 or t.children[y], "tree fully melted"
        self._grow(y)

        # branching and degree group exits for retired nodes
        for x in info.absorbed:
            if info.old_degrees[x] >= 3:
                self.cnt_branching -= 1
            if t.kind[x] == C_NODE:
                self._group_remove(x)
        for c in info.survivors:
            old = info.old_degrees[c]
            if old >= 3 and old - 1 < 3:
                self.cnt_branching -= 1
            self._group_remove(c)
            self._group_add(c, old - 1)

        # survivors lose their absorbed path children; the path climbs
        # to top and descends again, so each path edge's upper end is the
        # one nearer top
        path = info.path
        k = path.index(info.top)
        for i in range(len(path) - 1):
            up, down = (path[i + 1], path[i]) if i < k else (path[i], path[i + 1])
            if t.alive[up]:
                self._pop(up, down)
        p = t.parent[y]
        if p != -1 and p != info.top:
            # top was absorbed: its parent now holds y in its place
            self._pop(p, info.top)

        # survivors other than the top get fresh codes before linking
        for c in info.survivors:
            if c != info.top:
                self.code[c] = self._fresh_code(c)
                if self.counters:
                    self.counters.index_updates += 1

        # assemble the merged node
        for ch in sorted(t.children[y], reverse=True):
            self._push(y, ch)
        self.code[y] = self._fresh_code(y)
        if self.counters:
            self.counters.index_updates += 1
        if t.degree(y) >= 3:
            self.cnt_branching += 1

        if p != -1:
            self._push(p, y)
            self._recode_cascade(p)

        # the path's two end leaves are gone; y may be a leaf itself
        self.leaf_counts[t.leaf_type(info.path[0])] -= 1
        self.leaf_counts[t.leaf_type(info.path[-1])] -= 1
        if t.degree(y) == 1:
            self.leaf_counts["AB"] += 1

    # ------------------------------------------------------------------
    # pair searches

    def _certified_combos(self) -> list[tuple[str, str]]:
        counts = self.counts()
        out = []
        for ta, tb in LEGAL_COMBOS:
            for t1, t2 in ((ta, tb), (tb, ta)):
                if (t1, t2) in out:
                    continue
                if is_decrementing(counts, t1, t2):
                    out.append((t1, t2))
        return out

    def find_pair(self) -> tuple[list[int], list[int]]:
        """Locate a pairable pendant pair in different root branches.

        Returns the two descent paths (root child ... leaf); the full
        collapse path is rev(first) + [root] + second.  The pairing is
        certified to lower the pair count by one.
        """
        t = self.tree
        root = t.root
        deg = t.degree(root)
        combos = self._certified_combos()
        if deg == 2:
            k1, k2 = sorted(t.children[root])
            for t1, t2 in combos:
                b1, b2 = LEAF_CODE[t1], LEAF_CODE[t2]
                if self.code[k1] & b1 and self.code[k2] & b2:
                    return self.descend(k1, t1), self.descend(k2, t2)
                if self.code[k2] & b1 and self.code[k1] & b2:
                    return self.descend(k2, t1), self.descend(k1, t2)
            raise NoCrossPair("no pairable pendants across the two root branches")
        for t1, t2 in combos:
            for x in self.child_with(root, t1, many_only=True, need=2):
                others = self.child_with(root, t2, exclude=(x,), need=1)
                if others:
                    return self.descend(x, t1), self.descend(others[0], t2)
        raise NoCrossPair("no pairable pendants across root branches")

    def hub_step_pair(self) -> tuple[list[int], list[int]]:
        """Pick the pendant pair for one step of the heavy hub case.

        The root is the overloaded cut vertex.  First preference: two
        whole chain branches of compatible types.  Otherwise all chain
        leaves share one type and the partner comes from a non chain
        branch.
        """
        t = self.tree
        root = t.root
        for c1, c2 in ((4, 2), (4, 1), (2, 1), (1, 1)):
            need = 2 if c1 == c2 else 1
            first = self.chain_children(root, c1, need=need)
            if not first:
                continue
            if c1 == c2:
                if len(first) < 2:
                    continue
                x1, x2 = first
            else:
                second = self.chain_children(root, c2, need=1)
                if not second:
                    continue
                x1, x2 = first[0], second[0]
            return (
                self.descend(x1, TYPE_OF_CHAIN_CODE[c1]),
                self.descend(x2, TYPE_OF_CHAIN_CODE[c2]),
            )
        # all chains carry one type; find the partner in a branching branch
        lead = None
        for c in TYPE_OF_CHAIN_CODE:
            kids = self.chain_children(root, c, need=1)
            if kids:
                lead = (kids[0], TYPE_OF_CHAIN_CODE[c])
                break
        assert lead is not None, "overloaded hub without chain branches"
        x1, t1 = lead
        partner_types = [tt for tt in ("A", "B", "AB") if (t1, tt) != ("A", "A") and (t1, tt) != ("B", "B")]
        for t2 in partner_types:
            others = self.child_with(root, t2, many_only=True, exclude=(x1,), need=1)
            if others:
                return self.descend(x1, t1), self.descend(others[0], t2)
        raise NoCrossPair("no legal partner for the chain leaves")

    # ------------------------------------------------------------------
    # verification aid

    def audit(self) -> None:
        """Crosscheck every maintained structure against a fresh build."""
        t = self.tree
        fresh = AugTreeIndex(t)
        live = set(t.live_nodes())
        for x in live:
            assert self.code[x] == fresh.code[x], f"code mismatch at {x}"
            mine = _list_sets(self.bucket[x], self.snext)
            theirs = _list_sets(fresh.bucket[x], fresh.snext)
            assert mine == theirs, f"bucket mismatch at {x}"
        assert self.leaf_counts == fresh.leaf_counts
        assert self.cnt_branching == fresh.cnt_branching
        assert self.max_cdeg == fresh.max_cdeg
        assert _list_sets(self.grp_head, self.gnext) == _list_sets(
            fresh.grp_head, fresh.gnext
        )


def _list_sets(heads: dict[int, int], nxt: list[int]) -> dict[int, set[int]]:
    """Members of each linked list, by the key of its head."""
    return {k: set(_walk(h, nxt, len(nxt))) for k, h in heads.items()}
