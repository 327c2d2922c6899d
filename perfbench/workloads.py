"""Seeded input generators for the benchmark workloads.

Every generator here is O(n + m) and draws only from its own
``random.Random(seed)`` through ``random()``, whose sequence is fixed
for a given seed, so one seed always yields the same bytes.  The
output is the package's plain text input format (``A``/``B`` vertex
lines, one ``E`` line per edge).  Nothing here imports the package:
the program under test only ever sees the text.
"""

from __future__ import annotations

import math
import random

# Sizes are set so that one pass of a workload takes half a second to a
# second on an unloaded 2 GHz core, so that a 30-second run holds enough
# passes for a steady median.
SPIDER_CHAINS = 3_500  # about 7e3 vertices
CATERPILLAR_SPINE = 2_500  # about 5e3 vertices
RANDOM_GRAPHS = 4  # independent graphs, so that one seed's luck counts less
RANDOM_N = 4_000  # each G(n/2, n/2) with average degree 2
MANY_PATHS = 2_000  # disjoint paths of 3-6 vertices
REFEREE_SMALL = 1_000  # graphs of 8-24 vertices
REFEREE_MEDIUM = 12  # graphs of 100-300 vertices


def _pick(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] from one ``random()`` draw."""
    return lo + int(rng.random() * (hi - lo + 1))


def _spread(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count integers evenly spread over [lo, hi], in seeded order.

    Every seed gets the same multiset, so the seed changes the shape of
    an input but not how much work it holds."""
    vals = [lo + (hi - lo + 1) * i // count for i in range(count)]
    for i in range(count - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        vals[i], vals[j] = vals[j], vals[i]
    return vals


def _emit(a: list[str], b: list[str], edges: list[tuple[str, str]]) -> str:
    out = []
    if a:
        out.append("A " + " ".join(a))
    if b:
        out.append("B " + " ".join(b))
    out.extend(f"E {x} {y}" for x, y in edges)
    return "\n".join(out) + "\n"


def spider(rng: random.Random, chains: int) -> str:
    """A hub ``x`` on side A with chains of length 1 to 3, in equal
    numbers and seeded order."""
    a, b, edges = ["x"], [], []
    for i, length in enumerate(_spread(rng, chains, 1, 3), start=1):
        prev = "x"
        for j in range(1, length + 1):
            if j % 2 == 1:
                lab = f"b{i}_{j}"
                b.append(lab)
                edges.append((prev, lab))
            else:
                lab = f"a{i}_{j}"
                a.append(lab)
                edges.append((lab, prev))
            prev = lab
    return _emit(a, b, edges)


def caterpillar(rng: random.Random, spine: int) -> str:
    """A path of spine vertices, each internal one with 0 to 2 leaves,
    in equal numbers and seeded order.

    Both spine ends get one leaf so the path ends stay pendants."""
    a, b, edges = [], [], []
    leaf_counts = [1] + _spread(rng, spine - 2, 0, 2) + [1]
    for i in range(1, spine + 1):
        lab = f"s{i}"
        (a if i % 2 else b).append(lab)
        if i > 1:
            prev = f"s{i - 1}"
            edges.append((lab, prev) if i % 2 else (prev, lab))
        for j in range(leaf_counts[i - 1]):
            leaf = f"l{i}_{j}"
            if i % 2:
                b.append(leaf)
                edges.append((lab, leaf))
            else:
                a.append(leaf)
                edges.append((leaf, lab))
    return _emit(a, b, edges)


def random_bipartite(rng: random.Random, na: int, nb: int, p: float) -> str:
    """G(na, nb, p) by geometric skipping over the na * nb pair grid.

    Each gap between chosen pairs is drawn directly from the geometric
    distribution, so the cost is O(na + nb + edges) rather than one
    coin flip per pair (Batagelj and Brandes 2005).
    """
    a = [f"a{i}" for i in range(1, na + 1)]
    b = [f"b{j}" for j in range(1, nb + 1)]
    edges = []
    log_q = math.log(1.0 - p)
    idx = -1
    total = na * nb
    while True:
        idx += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if idx >= total:
            break
        edges.append((a[idx // nb], b[idx % nb]))
    return _emit(a, b, edges)


def disjoint_paths(rng: random.Random, paths: int) -> str:
    """Paths of 3 to 6 vertices, as many of each length, each starting
    on a seeded side.

    Odd paths end in two pendants of one side (type A or B), even ones
    in one of each, so every pendant type mix occurs across components.
    """
    a, b, edges = [], [], []
    na = nb = 0
    for length in _spread(rng, paths, 3, 6):
        side = 0 if rng.random() < 0.5 else 1
        prev = None
        for _ in range(length):
            if side == 0:
                na += 1
                lab = f"a{na}"
                a.append(lab)
            else:
                nb += 1
                lab = f"b{nb}"
                b.append(lab)
            if prev is not None:
                edges.append((lab, prev) if side == 0 else (prev, lab))
            prev = lab
            side = 1 - side
    return _emit(a, b, edges)


def mixed_graph(rng: random.Random, n: int, join: float, extra: int) -> str:
    """A graph of random shape: a forest plus extra random edges.

    Each new vertex joins a random earlier vertex of the other side with
    probability ``join``, else starts a new component; then ``extra``
    random A-B edges close cycles (repeats are dropped).  Both sides get
    at least two vertices, so an augmentation always exists.
    """
    sides = [0, 1, 0, 1] + [0 if rng.random() < 0.5 else 1 for _ in range(n - 4)]
    labels = []
    by_side: list[list[int]] = [[], []]
    edge_set: set[tuple[int, int]] = set()
    for v, s in enumerate(sides):
        labels.append(f"{'ab'[s]}{len(by_side[s]) + 1}")
        other = by_side[1 - s]
        if other and rng.random() < join:
            u = other[int(rng.random() * len(other))]
            edge_set.add((v, u) if s == 0 else (u, v))
        by_side[s].append(v)
    for _ in range(extra):
        u = by_side[0][int(rng.random() * len(by_side[0]))]
        v = by_side[1][int(rng.random() * len(by_side[1]))]
        edge_set.add((u, v))
    a = [labels[v] for v in by_side[0]]
    b = [labels[v] for v in by_side[1]]
    edges = [(labels[u], labels[v]) for u, v in sorted(edge_set)]
    return _emit(a, b, edges)


def ladder(rungs: int) -> str:
    """Vertices a_i and b_i, with a_i joined to b_(i-1), b_i and b_(i+1):
    biconnected, and the same every time.

    Not a workload: run.py times the checker on it as its reference."""
    a = [f"a{i}" for i in range(rungs)]
    b = [f"b{i}" for i in range(rungs)]
    edges = []
    for i in range(rungs):
        edges.append((a[i], b[i]))
        if i + 1 < rungs:
            edges.append((a[i], b[i + 1]))
            edges.append((a[i + 1], b[i]))
    return _emit(a, b, edges)


def tree_solve(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [spider(rng, SPIDER_CHAINS), caterpillar(rng, CATERPILLAR_SPINE)]


def random_sparse(seed: int) -> list[str]:
    rng = random.Random(seed)
    na = RANDOM_N // 2
    nb = RANDOM_N - na
    return [random_bipartite(rng, na, nb, 2.0 / nb) for _ in range(RANDOM_GRAPHS)]


def many_components(seed: int) -> list[str]:
    return [disjoint_paths(random.Random(seed), MANY_PATHS)]


def referee_batch(seed: int) -> list[str]:
    rng = random.Random(seed)
    # Small graphs: isolated vertices, lone edges, trees, blocks and
    # several components all occur.  Medium graphs are connected with a
    # fixed edge count, so the brute-force check costs the same for
    # every seed.
    small = [
        mixed_graph(rng, n, 0.85, _pick(rng, 0, n // 4))
        for n in _spread(rng, REFEREE_SMALL, 8, 24)
    ]
    medium = [
        mixed_graph(rng, n, 1.0, n // 8) for n in _spread(rng, REFEREE_MEDIUM, 100, 300)
    ]
    return small + medium


WORKLOADS = {
    "tree-solve": tree_solve,
    "random-sparse": random_sparse,
    "many-components": many_components,
    "referee-batch": referee_batch,
}
