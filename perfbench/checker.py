"""Output checker for the benchmark, independent of the package.

It reads the input text and the printed ``ADD``/``SIZE`` lines, and
decides on its own whether the patch is legal and leaves every
component an isolated vertex or a biconnected set.  It shares no code
with the package: it has its own parser and its own iterative
lowpoint depth first search, linear in the size of the patched graph.
"""

from __future__ import annotations


def parse_text(text: str) -> tuple[dict[str, int], list[tuple[str, str]]]:
    """Side (0 for A, 1 for B) of every label, and the edge list."""
    side: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] in ("A", "B"):
            s = 0 if tokens[0] == "A" else 1
            for lab in tokens[1:]:
                side[lab] = s
        elif tokens[0] == "E":
            edges.append((tokens[1], tokens[2]))
        else:
            raise ValueError(f"unknown directive {tokens[0]!r}")
    return side, edges


def parse_patch(out: str) -> tuple[list[tuple[str, str]], int]:
    """The ADD pairs and the SIZE value of one printed result."""
    added: list[tuple[str, str]] = []
    size = -1
    for line in out.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "ADD" and len(tokens) == 3:
            added.append((tokens[1], tokens[2]))
        elif tokens[0] == "SIZE" and len(tokens) == 2:
            size = int(tokens[1])
        else:
            raise ValueError(f"unexpected output line {line!r}")
    return added, size


def first_cut(n: int, adj: list[list[int]]) -> str | None:
    """None when every component is a lone vertex or biconnected.

    Otherwise names the first offending vertex: a member of a two
    vertex component, or a cut vertex found by the lowpoint rule (a
    DFS root with two or more tree children, or a non-root u with a
    child w whose subtree reaches no higher than u).
    """
    disc = [-1] * n
    low = [0] * n
    timer = 0
    for s in range(n):
        if disc[s] != -1 or not adj[s]:
            continue
        disc[s] = low[s] = timer
        timer += 1
        size = 1
        root_children = 0
        # frames hold (vertex, parent, next neighbour position)
        stack = [[s, -1, 0]]
        while stack:
            frame = stack[-1]
            v, par, i = frame
            nbrs = adj[v]
            if i < len(nbrs):
                frame[2] = i + 1
                w = nbrs[i]
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    size += 1
                    stack.append([w, v, 0])
                elif w != par and disc[w] < low[v]:
                    low[v] = disc[w]
                continue
            stack.pop()
            if par == -1:
                continue
            if low[v] < low[par]:
                low[par] = low[v]
            if par == s:
                root_children += 1
            elif low[v] >= disc[par]:
                return f"cut vertex {par}"
        if size == 2:
            return f"two vertex component at {s}"
        if root_children >= 2:
            return f"cut vertex {s}"
    return None


def check_instance(text: str, out: str, target: int) -> str | None:
    """None when the printed patch is a correct augmentation of size
    ``target``; otherwise the reason it is not."""
    side, edges = parse_text(text)
    added, size = parse_patch(out)
    if size != len(added):
        return f"SIZE {size} but {len(added)} ADD lines"
    if size != target:
        return f"size {size} differs from target {target}"
    index = {lab: i for i, lab in enumerate(side)}
    present = set(edges)
    for a, b in added:
        if side.get(a) != 0 or side.get(b) != 1:
            return f"added edge {a} {b} is not A-B"
        if (a, b) in present:
            return f"added edge {a} {b} exists or repeats"
        present.add((a, b))
    adj: list[list[int]] = [[] for _ in index]
    for a, b in edges + added:
        u, v = index[a], index[b]
        adj[u].append(v)
        adj[v].append(u)
    bad = first_cut(len(index), adj)
    return None if bad is None else f"not componentwise biconnected: {bad}"
