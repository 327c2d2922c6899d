"""Incremental case index over the structure tree.

The tree keeps every node's subtree code and its children in per code
buckets (see blocks).  The index adds what the case analysis reads: cut vertex nodes grouped
by tree degree in linked lists, which makes the most splitting cut
vertex and the candidates at any particular degree constant time
queries; the number of branching nodes; and the leaf counts, with the
pair count m and m + r kept current as they change.  Its per-node
fields are flat lists sized like the tree's own.

The index is built once per tree.  None of its state depends on where
the tree is rooted, and the tree keeps its codes and buckets current
through a re-root, so a branch step re-roots by walking the tree path
to the new root, never by rebuilding.

Both iterative steps pick their pendant pair by one search over the
root's buckets.  For each (t1, t2) in a combo order, it takes the first
root child in the buckets of one code table for t1 and another root
child in the buckets of a second table for t2.  The three tables, by
type, are CHAINS (the code of a chain, a subtree whose one pendant is
of that type), CODES_WITH_MANY and CODES_WITH.  At a root of degree
two the first end is the lower node id when both children qualify.
The hub step's first stage, two chains of joinable types, is also
chain_pair, which names the two root children without descending: the
hub step fuses such chains in place (BlockTree.fuse_chains) and brings
the index in step with update_after_fuse.
"""

from __future__ import annotations

from .blocks import B_NODE, C_NODE, LEAF_CODE, S_NODE, BlockTree, CollapseInfo
from .blocks import walk_list
from .errors import InvariantViolation
from .matching import AB, CROSS_ORDER, LEGAL_COMBOS, A, B
from .matching import is_decrementing, pair_count
from .stats import OpCounters

# the pair search's code tables by type: a chain of the type; a subtree
# with more than one pendant that holds it; any subtree that holds it
CHAINS = tuple((bit,) for bit in LEAF_CODE)
CODES_WITH_MANY = tuple(tuple(c for c in range(8, 16) if c & bit) for bit in LEAF_CODE)
CODES_WITH = tuple((bit, *many) for bit, many in zip(LEAF_CODE, CODES_WITH_MANY))
# two chains of joinable types; failing that, all chains hold one type,
# and the partner comes from a subtree with more than one pendant
CHAIN_COMBOS = tuple((t1, t2, CHAINS[t1], CHAINS[t2]) for t1, t2 in LEGAL_COMBOS)
HUB_COMBOS = CHAIN_COMBOS + tuple(
    (t1, t2, CHAINS[t1], CODES_WITH_MANY[t2]) for t1, t2 in CROSS_ORDER
)


class AugTreeIndex:
    def __init__(self, tree: BlockTree, counters: OpCounters | None = None):
        """Fill every count and degree group from the tree's live nodes,
        skipping retired ones, so an index can also be built mid solve.
        The nodes are taken in descending id order and each cut node
        goes to the head of its degree group, so each group starts at
        its lowest id."""
        self.tree = t = tree
        self.counters = counters
        n = t.capacity
        grp_head: dict[int, int] = {}
        self.grp_head = grp_head
        self.gprev = gprev = [-1] * n
        self.gnext = gnext = [-1] * n
        self.grp_of = grp_of = [-1] * n
        self.leaf_counts = leaf_counts = [0, 0, 0]  # by type
        kind, parent, nkids, alive, min_a = t.kind, t.parent, t.nkids, t.alive, t.min_a
        top = branching = 0
        for x in range(t.size - 1, -1, -1):
            if not alive[x]:
                continue
            d = nkids[x] + (parent[x] != -1)
            if d >= 3:
                branching += 1
            k = kind[x]
            if k == C_NODE:
                head = grp_head.get(d, -1)
                if head != -1:
                    gnext[x] = head
                    gprev[head] = x
                grp_head[d] = x
                grp_of[x] = d
                if d > top:
                    top = d
            elif d <= 1:
                if k == B_NODE:
                    leaf_counts[AB] += 1
                elif k == S_NODE:
                    leaf_counts[A if min_a[x] != -1 else B] += 1
        self._max_top = top
        self.cnt_branching = branching
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

    def update_after_fuse(self, cuts: list[int], t1: int, t2: int) -> None:
        """Bring the counts and degree groups in step with the tree right
        after fuse_chains: the chains' cut nodes, each of degree two, are
        cut vertices no more, and the t1 and t2 leaves became one AB leaf.
        The root is one degree lower and still branching: a massive root
        has degree four or more, as it splits harder than m + r >= 2."""
        for x in cuts:
            self._group_remove(x)
        root = self.tree.root
        self._group_remove(root)
        self._group_add(root, self.tree.nkids[root])
        counts = self.leaf_counts
        counts[t1] -= 1
        counts[t2] -= 1
        counts[AB] += 1
        self._settle_counts()

    # ------------------------------------------------------------------
    # pair searches

    def _pair(self, combos) -> tuple[list[int], list[int], int, int]:
        """The pair of the first combo (t1, t2, codes1, codes2) that has
        one: x, the first root child in the buckets of codes1 (the lower
        node id at a root of degree two), and y, the first other root
        child in those of codes2.  If x is the only child for codes2, it
        becomes y and the next child for codes1 becomes x.  Returns the
        two descents and their types."""
        t = self.tree
        root = t.root
        code, base, heads, snext = t.code, t.base[root], t.heads, t.snext
        low = min(t.kids(root)) if t.nkids[root] == 2 else -1
        for t1, t2, codes1, codes2 in combos:
            x = _first(heads, snext, base, codes1, -1)
            if x == -1:
                continue
            if -1 < low < x and code[low] in codes1:
                x = low
            y = _first(heads, snext, base, codes2, x)
            if y == -1 and code[x] in codes2:
                x, y = _first(heads, snext, base, codes1, x), x
            if x != -1 and y != -1:
                return self.descend(x, t1), self.descend(y, t2), t1, t2
        raise InvariantViolation("no pairable pendants across root branches")

    def find_pair(self) -> tuple[list[int], list[int], int, int]:
        """The branch step's pair: pendants in two root branches whose
        join lowers the pair count by one, the decrementing combos tried
        in CROSS_ORDER.  The first end comes from CODES_WITH_MANY, or at
        a root of degree two from CODES_WITH, lower node id first, and
        the second from CODES_WITH.  Returns the descent paths (root
        child ... leaf) and the types of their leaves; the collapse path
        is rev(first) + [root] + second."""
        counts = self.counts()
        firsts = CODES_WITH if self.tree.nkids[self.tree.root] == 2 else CODES_WITH_MANY
        return self._pair(
            (t1, t2, firsts[t1], CODES_WITH[t2])
            for t1, t2 in CROSS_ORDER
            if is_decrementing(counts, t1, t2)
        )

    def hub_step_pair(self) -> tuple[list[int], list[int], int, int]:
        """The hub step's pair at the overloaded root, as find_pair returns
        it: CHAINS by CHAINS over LEGAL_COMBOS, then CHAINS by
        CODES_WITH_MANY over CROSS_ORDER (HUB_COMBOS)."""
        return self._pair(HUB_COMBOS)

    def chain_pair(self) -> tuple[int, int, int, int] | None:
        """hub_step_pair's first stage without the descents, at a root of
        degree three or more: the two root children it takes when two are
        chains of joinable types, and their types, else None."""
        t = self.tree
        heads, base = t.heads, t.base[t.root]
        for t1, t2, (c1,), (c2,) in CHAIN_COMBOS:
            x = heads[base + c1]
            if x != -1:
                y = t.snext[x] if c1 == c2 else heads[base + c2]
                if y != -1:
                    return x, y, t1, t2
        return None


def _first(heads, snext, base: int, codes: tuple[int, ...], skip: int) -> int:
    """The first node other than skip (-1 for none) in the buckets of
    codes, in code order, of the node whose slots start at base, or -1."""
    for c in codes:
        x = heads[base + c]
        if x == skip != -1:
            x = snext[x]
        if x != -1:
            return x
    return -1
