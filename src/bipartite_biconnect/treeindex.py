"""Incremental case index over the structure tree.

The tree keeps every node's subtree code and its children in per code
buckets (see blocks), and the pair searches here read those buckets.
The index adds what the case analysis reads: cut vertex nodes grouped
by tree degree in linked lists, which makes the most splitting cut
vertex and the candidates at any particular degree constant time
queries; the number of branching nodes; and the leaf counts, with the
pair count m and m + r kept current as they change.  Its per-node
fields are flat lists sized like the tree's own.

The index is built once per tree.  None of its state depends on where
the tree is rooted, and the tree keeps its codes and buckets current
through a re-root, so a branch step re-roots by walking the tree path
to the new root, never by rebuilding.
"""

from __future__ import annotations

from .blocks import B_NODE, C_NODE, LEAF_CODE, S_NODE, BlockTree, CollapseInfo
from .blocks import walk_list
from .errors import InvariantViolation
from .matching import AB, CROSS_ORDER, LEGAL_COMBOS, TYPES
from .matching import is_decrementing, joinable, pair_count
from .stats import OpCounters

# by type: codes of subtrees with more than one pendant that hold it
CODES_WITH_MANY = tuple(tuple(c for c in range(8, 16) if c & bit) for bit in LEAF_CODE)
# by type: codes whose subtree holds it; the single leaf code first
CODES_WITH = tuple((bit, *many) for bit, many in zip(LEAF_CODE, CODES_WITH_MANY))


class AugTreeIndex:
    def __init__(self, tree: BlockTree, counters: OpCounters | None = None):
        """Fill every count and degree group from the tree's live nodes,
        skipping retired ones, so an index can also be built mid solve."""
        self.tree = t = tree
        self.counters = counters
        n = t.capacity
        self.leaf_counts = leaf_counts = [0, 0, 0]  # by type
        self.grp_head: dict[int, int] = {}
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

    # ------------------------------------------------------------------
    # degree groups

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

    # ------------------------------------------------------------------
    # classification state

    def _settle_counts(self) -> None:
        """Bring the leaf total, m and m + r in step with leaf_counts."""
        n_a, n_b, n_ab = self.leaf_counts
        self._total = n_a + n_b + n_ab
        self._m = pair_count(n_a, n_b, n_ab)
        self._mr = self._total - self._m

    def leaf_total(self) -> int:
        return self._total

    def counts(self) -> tuple[int, int, int]:
        n_a, n_b, n_ab = self.leaf_counts
        return n_a, n_b, n_ab

    def m_plus_r(self) -> int:
        return self._mr

    def m_value(self) -> int:
        return self._m

    def eta_now(self) -> int:
        return max(self.max_cdeg - 1, self._mr, 0)

    def massive_node(self) -> int:
        """The cut vertex node splitting too hard, or -1."""
        d = self.max_cdeg
        return self.grp_head[d] if d - 1 > self._mr else -1

    def critical_count(self) -> int:
        """Size of the critical group, counted up to three: s_case only
        asks whether it is two, and with few leaves the group can be long."""
        return len(walk_list(self.critical_head(), self.gnext, 3))

    def critical_head(self) -> int:
        return self.grp_head.get(self._mr + 1, -1)

    def critical_nodes(self) -> list[int]:
        return walk_list(self.critical_head(), self.gnext, len(self.gnext))

    def s_case(self) -> str:
        """The solver case for the component as it stands now."""
        if self._total <= 3:
            return "S1"
        if self._m == 0:
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
        ptype: int,
        many_only: bool = False,
        exclude: tuple[int, ...] = (),
        need: int = 1,
    ) -> list[int]:
        """Up to `need` children of p whose subtree holds a ptype pendant,
        optionally restricted to subtrees with more than one pendant,
        skipping excluded nodes.  Scans bucket heads in fixed code order."""
        out: list[int] = []
        codes = CODES_WITH_MANY[ptype] if many_only else CODES_WITH[ptype]
        t = self.tree
        base, heads, snext = t.base[p], t.heads, t.snext
        for c in codes:
            x = heads[base + c]
            while x != -1 and len(out) < need:
                if x not in exclude:
                    out.append(x)
                x = snext[x]
            if len(out) >= need:
                return out
        return out

    def chain_children(self, p: int, code: int, need: int = 1) -> list[int]:
        t = self.tree
        return walk_list(t.heads[t.base[p] + code], t.snext, need)

    def descend(self, x: int, ptype: int) -> list[int]:
        """Walk from x down to a pendant of the given type.

        Returns the node path [x, ..., leaf].  x's subtree must hold one.
        """
        t = self.tree
        nkids, heads, codes = t.nkids, t.heads, CODES_WITH[ptype]
        path = [x]
        bit = LEAF_CODE[ptype]
        while nkids[x]:
            if not t.code[x] & bit:
                raise InvariantViolation(f"subtree of {x} lost type {ptype}")
            nxt = -1
            base = t.base[x]
            for c in codes:
                nxt = heads[base + c]
                if nxt != -1:
                    break
            if nxt == -1:
                raise InvariantViolation(f"no child of {x} holds type {ptype}")
            x = nxt
            path.append(x)
        if t.leaf_type(x) != ptype:
            raise InvariantViolation(f"descent ended at {x}, not a {ptype} pendant")
        return path

    # ------------------------------------------------------------------
    # rerooting

    def choose_root(self) -> int:
        """Lemma style root policy for branch steps: the node to hang the
        tree from, the root itself when it stays.

        That is the critical cut vertex when there is one, else the
        root when two of its branches hold more than one pendant each or
        it branches itself, else r_star, reached from the root through
        single non chain descents.
        """
        t = self.tree
        root = t.root
        crit = self.critical_head()
        if crit != -1 and self.max_cdeg == self._mr + 1:
            return crit
        d = t.degree(root)
        if d < 2:
            raise InvariantViolation("root degenerated")
        if d >= 3:
            return root
        many = [k for k in t.kids(root) if t.code[k] & 8]
        if len(many) == 2:
            return root
        # exactly one child subtree holds more than one pendant; walk
        # down it to the first branching node
        (x,) = many
        while t.degree(x) < 3:
            (x,) = t.kids(x)
        return x

    def reroot_walk(self, target: int) -> None:
        """Move the root down along the tree path to target, O(path)."""
        path = self.tree.reroot(target)
        if self.counters:
            self.counters.index_updates += len(path)

    # perfbench/spans.py wraps this name; the walk is the only re-root
    rebuild = reroot_walk

    # ------------------------------------------------------------------
    # collapse bookkeeping

    def update_after_collapse(self, info: CollapseInfo, t1: int, t2: int) -> None:
        """Bring the counts and degree groups in step with the tree right
        after collapse, which has already updated codes and buckets; t1
        and t2 are the pendant types of the collapsed path's two ends."""
        t = self.tree
        kind, parent, nkids = t.kind, t.parent, t.nkids
        y = info.y
        deg_y = nkids[y] + (parent[y] != -1)
        # the collapse must leave structure around the merged block; a
        # path that swallows the whole tree never occurs mid solve
        if deg_y == 0:
            raise InvariantViolation("tree fully melted")

        # branching and degree group exits for retired nodes
        self.cnt_branching -= info.branching
        for x in info.absorbed:
            if kind[x] == C_NODE:
                self._group_remove(x)
        for c in info.survivors:
            # a surviving cut vertex loses exactly one degree
            d = nkids[c] + (parent[c] != -1)
            if d == 2:
                self.cnt_branching -= 1
            self._group_remove(c)
            self._group_add(c, d)
        if deg_y >= 3:
            self.cnt_branching += 1

        # the path's two end leaves are gone; y may be a leaf itself
        self.leaf_counts[t1] -= 1
        self.leaf_counts[t2] -= 1
        if deg_y == 1:
            self.leaf_counts[AB] += 1
        self._settle_counts()

    # ------------------------------------------------------------------
    # pair searches

    def find_pair(self) -> tuple[list[int], list[int], int, int]:
        """Locate a pairable pendant pair in different root branches.

        Returns the descent paths (root child ... leaf) and the types of
        their leaves; the collapse path is rev(first) + [root] + second.  The pairing is
        certified to lower the pair count by one; combos are tried in
        CROSS_ORDER.
        """
        t = self.tree
        root = t.root
        deg = t.degree(root)
        counts = self.counts()
        combos = (c for c in CROSS_ORDER if is_decrementing(counts, *c))
        if deg == 2:
            k1, k2 = t.kids(root)
            if k2 < k1:
                k1, k2 = k2, k1
            code = t.code
            for t1, t2 in combos:
                b1, b2 = LEAF_CODE[t1], LEAF_CODE[t2]
                if code[k1] & b1 and code[k2] & b2:
                    return self.descend(k1, t1), self.descend(k2, t2), t1, t2
                if code[k2] & b1 and code[k1] & b2:
                    return self.descend(k2, t1), self.descend(k1, t2), t1, t2
            raise InvariantViolation("no pairable pendants across the two root branches")
        for t1, t2 in combos:
            for x in self.child_with(root, t1, many_only=True, need=2):
                others = self.child_with(root, t2, exclude=(x,), need=1)
                if others:
                    return self.descend(x, t1), self.descend(others[0], t2), t1, t2
        raise InvariantViolation("no pairable pendants across root branches")

    def hub_step_pair(self) -> tuple[list[int], list[int], int, int]:
        """Pick the pendant pair for one heavy hub step, as find_pair does.

        The root is the overloaded cut vertex.  First preference: two
        whole chain branches of compatible types.  Otherwise all chain
        leaves share one type and the partner comes from a non chain
        branch.
        """
        t = self.tree
        root = t.root
        for t1, t2 in LEGAL_COMBOS:
            c1, c2 = LEAF_CODE[t1], LEAF_CODE[t2]
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
            return self.descend(x1, t1), self.descend(x2, t2), t1, t2
        # all chains carry one type; find the partner in a branching branch
        for t1 in TYPES:
            chain = self.chain_children(root, LEAF_CODE[t1])
            if chain:
                break
        if not chain:
            raise InvariantViolation("overloaded hub without chain branches")
        x1 = chain[0]
        for t2 in TYPES:
            if not joinable(t1, t2):
                continue
            others = self.child_with(root, t2, many_only=True, exclude=(x1,), need=1)
            if others:
                return self.descend(x1, t1), self.descend(others[0], t2), t1, t2
        raise InvariantViolation("no legal partner for the chain leaves")
