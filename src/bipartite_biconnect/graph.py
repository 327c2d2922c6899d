"""Bipartite graph container, text format, and instance generators.

Vertices carry string labels and get dense integer indices in first
appearance order.  Side 0 is called A, side 1 is called B.  Edges are
stored index based with the A endpoint first, sorted, and in no set.

The `BipartiteGraph` constructor is the one place that checks an edge
or a label: range, sides, orientation, repeated edges and repeated
labels.  `parse_graph`, `build_graph` and `add_edges` hand it their
vertices and pairs unchecked.  `parse_graph` reads the text in two
passes.  The first maps each line's labels to indices; only when it or
the constructor fails does the second read the text line by line, to
name the faulty line.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate, compress, islice
from operator import eq, index
from typing import Iterable, Sequence

from .errors import BipartitenessViolation, IllegalEdge, ParseError


class BipartiteGraph:
    """Immutable bipartite graph.

    Attributes:
        labels: vertex labels, index position is the vertex id.
        sides: 0 for A side vertices, 1 for B side.
        edges: canonical (a, b) index pairs sorted ascending.
        adj: per vertex sorted tuples of neighbour indices.

    `edges` and `adj` are the only edge store: `has_edge` bisects the
    shorter row, and a repeated edge is found next to its twin once sorted.
    """

    __slots__ = ("labels", "sides", "edges", "adj", "label_index")

    def __init__(
        self,
        labels: Sequence[str],
        sides: Sequence[int],
        edges: Iterable[tuple[int, int]],
    ):
        self.labels: tuple[str, ...] = tuple(labels)
        self.sides: tuple[int, ...] = tuple(sides)
        if len(self.labels) != len(self.sides):
            raise ValueError("labels and sides length mismatch")
        if self.sides.count(0) + self.sides.count(1) != len(self.sides):
            bad = next(i for i, s in enumerate(self.sides) if s not in (0, 1))
            lab, side = self.labels[bad], self.sides[bad]
            raise ValueError(f"vertex {lab!r} has side {side!r}, not 0 or 1")
        n = len(self.labels)
        self.label_index: dict[str, int] = dict(zip(self.labels, range(n)))
        if len(self.label_index) != n:
            seen: set[str] = set()
            for lab in self.labels:
                if lab in seen:
                    raise ParseError(f"duplicate vertex label {lab!r}")
                seen.add(lab)

        # the edges in the order given: sorted edges plus a short patch
        # sort in linear time as two runs; an edge given as a canonical
        # tuple is kept as it is
        sides = self.sides
        given: list[tuple[int, int]] = []
        deg = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n) or not (0 <= v < n):
                raise IllegalEdge(f"edge ({u}, {v}): vertex index out of range")
            side = sides[u]
            if side == sides[v]:
                raise BipartitenessViolation(
                    f"edge joins same side vertices {self.labels[u]!r} and {self.labels[v]!r}"
                )
            if side:
                u, v = v, u
                e = (u, v)
            elif type(e) is not tuple:
                e = (u, v)
            given.append(e)
            deg[u] += 1
            deg[v] += 1
        given.sort()
        # a repeat sits next to its twin; the smallest repeated pair is named
        for u, v in compress(given, map(eq, given, islice(given, 1, None))):
            raise ParseError(f"duplicate edge {self.labels[u]!r} {self.labels[v]!r}")
        self.edges: tuple[tuple[int, int], ...] = tuple(given)

        # every row is a slice of one neighbour list laid out row by row;
        # edges ascend with the A end first, so each row fills in order
        starts = list(accumulate(deg, initial=0))
        pos = starts[:]
        flat = [0] * starts[-1]
        for u, v in given:
            flat[pos[u]] = v
            pos[u] += 1
            flat[pos[v]] = u
            pos[v] += 1
        flat = tuple(flat)
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            [flat[a:b] for a, b in zip(starts, islice(starts, 1, None))]
        )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def a_vertices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sides) if s == 0)

    def b_vertices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sides) if s == 1)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u]
        if len(self.adj[v]) < len(row):
            row, v = self.adj[v], u
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edge_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.labels[u], self.labels[v]) for u, v in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self):
        a = frozenset(l for l, s in zip(self.labels, self.sides) if s == 0)
        b = frozenset(l for l, s in zip(self.labels, self.sides) if s == 1)
        return (a, b, frozenset(self.edge_labels()))

    def __repr__(self) -> str:
        return f"BipartiteGraph(n={self.n}, m={self.m})"


def build_graph(
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    edge_pairs: Iterable[tuple[str, str]],
) -> BipartiteGraph:
    """Graph from label lists and (a, b) label pairs, checked by the constructor."""
    labels = list(a_labels) + list(b_labels)
    sides = [0] * len(a_labels) + [1] * len(b_labels)
    index = dict(zip(labels, range(len(labels))))
    if len(index) < len(labels):
        # the constructor names the first repeated label, before any edge
        BipartiteGraph(labels, sides, ())
    try:
        edges = [(index[x], index[y]) for x, y in edge_pairs]
    except KeyError as e:
        raise ParseError(f"edge references undeclared vertex {e.args[0]!r}") from None
    return BipartiteGraph(labels, sides, edges)


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the line oriented text format.

    Directives: ``A <id>...`` and ``B <id>...`` declare vertices,
    ``E <a-id> <b-id>`` declares one edge.  A line whose first token
    starts with ``#`` is a comment.  Duplicate edges, undeclared
    endpoints, redeclared labels and same side edges are hard errors;
    each names its line, and a repeat is reported after any other fault.

    Two passes.  The first reads each line once, maps each edge's labels
    to indices and leaves the edge checks to the `BipartiteGraph`
    constructor.  Only when that pass or the constructor fails does the
    second, `_parse_lines`, read the text again line by line to name the
    fault and its line.
    """
    labels: list[str] = []
    sides: list[int] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    try:
        for line in text.splitlines():
            tokens = line.split()
            if not tokens:
                continue
            kind = tokens[0]
            if kind == "E":
                _, x, y = tokens
                edges.append((index[x], index[y]))
            elif kind == "A" or kind == "B":
                labs = tokens[1:]
                if not labs:
                    raise ParseError
                # a repeated label is left to the constructor's check
                start = len(labels)
                labels += labs
                sides += [0 if kind == "A" else 1] * len(labs)
                index.update(zip(labs, range(start, len(labels))))
            elif kind[0] != "#":
                raise ParseError
        # the constructor builds its own label index
        del index
        return BipartiteGraph(labels, sides, edges)
    except (KeyError, ValueError, ParseError):
        # an undeclared label, an E line of another arity, or a fault
        # above or in the constructor: the line reader names it
        pass
    return _parse_lines(text)


def _parse_lines(text: str) -> BipartiteGraph:
    """`parse_graph`'s second pass: check each line in turn, so that the
    first faulty line is named; a repeated edge is named last, by the
    first line that repeats an earlier one."""
    labels: list[str] = []
    sides: list[int] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind in ("A", "B"):
            if not args:
                raise ParseError(f"line {lineno}: empty {kind} directive")
            side = 0 if kind == "A" else 1
            for lab in args:
                if lab in index:
                    prior = "A" if sides[index[lab]] == 0 else "B"
                    if prior != kind:
                        raise BipartitenessViolation(
                            f"line {lineno}: vertex {lab!r} declared on both sides"
                        )
                    raise ParseError(
                        f"line {lineno}: vertex {lab!r} declared twice"
                    )
                index[lab] = len(labels)
                labels.append(lab)
                sides.append(side)
        elif kind == "E":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: E takes exactly two vertex ids")
            x, y = args
            for lab in (x, y):
                if lab not in index:
                    raise ParseError(
                        f"line {lineno}: edge references undeclared vertex {lab!r}"
                    )
            u, v = index[x], index[y]
            if sides[u] == sides[v]:
                raise BipartitenessViolation(
                    f"line {lineno}: edge {x!r} {y!r} joins vertices on the same side"
                )
            if sides[u] == 1:
                u, v = v, u
            edges.append((u, v))
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    try:
        return BipartiteGraph(labels, sides, edges)
    except ParseError:
        # the one fault left is a repeated edge: name the first line to repeat
        seen = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            kind, *pair = raw.split() or [""]
            if kind == "E":
                if frozenset(pair) in seen:
                    raise ParseError(f"line {lineno}: duplicate edge {pair[0]!r} {pair[1]!r}") from None
                seen.add(frozenset(pair))
        raise


def serialize_graph(g: BipartiteGraph) -> str:
    """Render a graph back to the text format, deterministically.

    Vertices are listed in index order, edges sorted by index pair, so
    equal graphs built the same way serialize byte identically.  A label
    that is not a string, is empty or holds whitespace raises ValueError.
    """
    for lab in g.labels:
        if not isinstance(lab, str):
            raise ValueError(f"label {lab!r} is not a string")
        if lab.split() != [lab]:
            raise ValueError(f"label {lab!r} is empty or holds whitespace")
    out = []
    a = [g.labels[i] for i in g.a_vertices()]
    b = [g.labels[i] for i in g.b_vertices()]
    if a:
        out.append("A " + " ".join(a))
    if b:
        out.append("B " + " ".join(b))
    for u, v in g.edges:
        out.append(f"E {g.labels[u]} {g.labels[v]}")
    return "\n".join(out) + ("\n" if out else "")


def add_edges(
    g: BipartiteGraph, pairs: Iterable[tuple[int, int]]
) -> BipartiteGraph:
    """Copy of g with the index pairs added, value semantics.

    The one checked way to add edges: the constructor checks the pairs as
    it checks an input's edges, and any fault raises IllegalEdge.  It
    names the first item that is not a pair of vertex indices or is out
    of range or within one side, else the smallest pair that is already
    present or repeated."""
    pairs = tuple(pairs)
    try:
        return BipartiteGraph(g.labels, g.sides, g.edges + pairs)
    except ParseError as e:
        raise IllegalEdge(str(e)) from None
    except (TypeError, ValueError):
        # the constructor checks the items in order, each one it can
        # read, so it failed on the first that is no pair of indices
        for item in pairs:
            try:
                u, v = item
                index(u), index(v)
            except (TypeError, ValueError):
                raise IllegalEdge(f"edge {item!r}: not a pair of vertex indices") from None
        raise


def path_graph(k: int) -> BipartiteGraph:
    """Path with k vertices labelled a1, b1, a2, b2, ... along the path."""
    labels = []
    for i in range(k):
        side = i % 2
        num = i // 2 + 1
        labels.append(("a" if side == 0 else "b") + str(num))
    a = [lab for i, lab in enumerate(labels) if i % 2 == 0]
    b = [lab for i, lab in enumerate(labels) if i % 2 == 1]
    edges = [(labels[i], labels[i + 1]) for i in range(k - 1)]
    edges = [(x, y) if x.startswith("a") else (y, x) for x, y in edges]
    return build_graph(a, b, edges)


def cycle_graph(k: int) -> BipartiteGraph:
    """Even cycle with k >= 4 vertices; same labelling as path_graph."""
    if k < 4 or k % 2 != 0:
        raise ValueError("bipartite cycle needs an even k >= 4")
    return add_edges(path_graph(k), [(0, k - 1)])


def spider_graph(chain_lengths: Sequence[int]) -> BipartiteGraph:
    """Chains hanging off one hub.

    The hub is ``x`` on side A.  Chain i starts with ``b{i}`` adjacent to
    the hub, then ``a{i}``, then suffixed labels for longer chains.
    """
    a = ["x"]
    b = []
    edges = []
    for i, length in enumerate(chain_lengths, start=1):
        prev = "x"
        for j in range(1, length + 1):
            if j == 1:
                lab = f"b{i}"
            elif j == 2:
                lab = f"a{i}"
            else:
                base = "b" if j % 2 == 1 else "a"
                lab = f"{base}{i}_{j}"
            (b if j % 2 == 1 else a).append(lab)
            if j % 2 == 1:
                edges.append((prev, lab))
            else:
                edges.append((lab, prev))
            prev = lab
    return build_graph(a, b, edges)


def broom_graph(left: int, right: int) -> BipartiteGraph:
    """Two adjacent hubs a0 and b0 with left B leaves and right A leaves."""
    a = ["a0"] + [f"a{i}" for i in range(1, right + 1)]
    b = ["b0"] + [f"b{i}" for i in range(1, left + 1)]
    edges = [("a0", f"b{i}") for i in range(1, left + 1)]
    edges.append(("a0", "b0"))
    edges += [(f"a{i}", "b0") for i in range(1, right + 1)]
    return build_graph(a, b, edges)


def caterpillar_graph(spine: int) -> BipartiteGraph:
    """Path of spine vertices with one leaf on every internal spine vertex."""
    a, b, edges = [], [], []
    labels = []
    for i in range(1, spine + 1):
        lab = f"s{i}"
        labels.append(lab)
        (a if i % 2 == 1 else b).append(lab)
    for i in range(spine - 1):
        x, y = labels[i], labels[i + 1]
        edges.append((x, y) if i % 2 == 0 else (y, x))
    for i in range(2, spine):
        leaf = f"l{i}"
        spine_lab = labels[i - 1]
        if i % 2 == 1:
            # odd spine position sits on side A, leaf goes to B
            b.append(leaf)
            edges.append((spine_lab, leaf))
        else:
            a.append(leaf)
            edges.append((leaf, spine_lab))
    return build_graph(a, b, edges)


def random_bipartite(na: int, nb: int, p: float, seed: int) -> BipartiteGraph:
    """Each cell of the na x nb grid is an edge with probability p, so one
    seed always yields one graph.

    Geometric skipping draws each gap between chosen cells at once
    (Batagelj and Brandes 2005), in O(na + nb + edges).  p >= 1 takes
    every cell; p <= 0, or a p so small that 1 - p rounds to 1, none.
    """
    rng = random.Random(seed)
    cells = na * nb
    q = 1.0 - p
    if q <= 0.0:
        chosen: Iterable[int] = range(cells)
    elif q >= 1.0:
        chosen = ()
    else:
        log_q = math.log(q)
        chosen = []
        cell = -1
        while True:
            cell += 1 + int(math.log(1.0 - rng.random()) / log_q)
            if cell >= cells:
                break
            chosen.append(cell)
    labels = [f"a{i}" for i in range(1, na + 1)] + [f"b{j}" for j in range(1, nb + 1)]
    edges = [(c // nb, na + c % nb) for c in chosen]
    return BipartiteGraph(labels, [0] * na + [1] * nb, edges)


def generate_instance(
    kind: str, size: int, seed: int = 0, p: float | None = None
) -> BipartiteGraph:
    """Named instance families used by the gen and bench commands.

    size is the approximate vertex count.  Only kind random consumes
    seed and p.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if kind == "path":
        return path_graph(size)
    if kind == "spider":
        k = max(2, (size - 1) // 3)
        return spider_graph([1] * k + [2] * k)
    if kind == "broom":
        half = max(2, (size - 2) // 2)
        return broom_graph(half, half)
    if kind == "caterpillar":
        spine = max(4, (size + 2) * 2 // 3)
        return caterpillar_graph(spine)
    if kind == "random":
        na = size // 2
        nb = size - na
        if p is None:
            p = min(1.0, 2.0 / max(1, nb))
        return random_bipartite(na, nb, p, seed)
    raise ValueError(f"unknown instance kind {kind!r}")
