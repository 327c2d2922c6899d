"""Span tracing of the package, installed from outside it.

``Tracer.install`` replaces the package's public functions and methods
with thin wrappers that record one span per call: name, parent span,
start and end.  A function imported by name into another module (say
``decompose`` into ``augment``) is a separate binding there, so every
module-level name bound to a wrapped function is rebound, and
``install`` fails if any binding is left over.  ``uninstall`` puts the
originals back, so untraced passes run the package as shipped.

Spans are kept in flat in-memory arrays while a pass runs.  Self times
are derived afterwards: a span's duration minus the durations of the
spans whose parent it is.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

PACKAGE = "bipartite_biconnect"

# (layer, span name, owner inside the package, attribute names).  The
# owner is a module, or a module and a class joined by a dot.
SPANS = [
    ("graph", "graph.parse_graph", "graph", ["parse_graph"]),
    ("graph", "graph.BipartiteGraph", "graph.BipartiteGraph", ["__init__"]),
    ("blocks", "blocks.decompose", "blocks", ["decompose"]),
    ("blocks", "blocks.pendant_records", "blocks", ["pendant_records"]),
    ("blocks", "blocks.BlockTree.build", "blocks.BlockTree", ["build"]),
    ("blocks", "blocks.BlockTree.collapse", "blocks.BlockTree", ["collapse"]),
    ("bounds", "bounds.census", "bounds", ["census"]),
    ("bounds", "bounds.classify_m", "bounds", ["classify_m"]),
    ("bounds", "bounds.theorem_target", "bounds", ["theorem_target"]),
    ("bounds", "bounds.eta_extended", "bounds", ["eta_extended"]),
    ("matching", "matching.profile", "matching", ["profile"]),
    (
        "matching",
        "matching.pairing",
        "matching",
        ["counts_of", "is_decrementing", "pick_cross_pair", "maximum_legal_matching"],
    ),
    ("treeindex", "treeindex.AugTreeIndex.init", "treeindex.AugTreeIndex", ["__init__"]),
    (
        "treeindex",
        "treeindex.update_after_collapse",
        "treeindex.AugTreeIndex",
        ["update_after_collapse"],
    ),
    ("treeindex", "treeindex.find_pair", "treeindex.AugTreeIndex", ["find_pair"]),
    ("treeindex", "treeindex.hub_step_pair", "treeindex.AugTreeIndex", ["hub_step_pair"]),
    (
        "treeindex",
        "treeindex.reroot",
        "treeindex.AugTreeIndex",
        ["choose_root", "reroot_walk", "rebuild"],
    ),
    (
        "treeindex",
        "treeindex.query",
        "treeindex.AugTreeIndex",
        [
            "leaf_total",
            "m_value",
            "m_plus_r",
            "eta_now",
            "massive_node",
            "critical_count",
            "critical_nodes",
        ],
    ),
    ("augment", "augment.augment", "augment", ["augment"]),
    ("verify", "verify.verify_result", "verify", ["verify_result"]),
]
LAYERS = ["graph", "blocks", "bounds", "matching", "treeindex", "augment", "verify"]


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _owner(spec: str):
    mod_name, _, cls_name = spec.partition(".")
    owner = sys.modules[f"{PACKAGE}.{mod_name}"]
    return getattr(owner, cls_name) if cls_name else owner


class Tracer:
    """Spans and boundary counts of one pass, recorded while installed."""

    def __init__(self) -> None:
        self.names = [name for _, name, _, _ in SPANS]
        self.layer_of = {name: layer for layer, name, _, _ in SPANS}
        self._saved: list[tuple[object, str, object]] = []
        self._open: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # boundary counts read off the values collapse returns
        self.path_nodes = self.absorbed = self.merged_children = 0

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, nid: int, fn, after=None):
        stack = self._open
        name_a = self.span_name.append
        parent_a = self.span_parent.append
        start_a = self.span_start.append
        end_a = self.span_end.append
        ends = self.span_end

        def wrapper(*args, **kwargs):
            sid = len(ends)
            name_a(nid)
            parent_a(stack[-1] if stack else -1)
            end_a(0.0)
            stack.append(sid)
            start_a(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_collapse(self, args, info) -> None:
        tree = args[0]
        self.path_nodes += len(info.path)
        self.absorbed += len(info.absorbed)
        self.merged_children += len(tree.children[info.y])

    def install(self) -> None:
        """Wrap every function in SPANS and rebind every name bound to it."""
        originals = {}
        for nid, (_, name, owner_spec, attrs) in enumerate(SPANS):
            owner = _owner(owner_spec)
            for attr in attrs:
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                after = self._after_collapse if name == "blocks.BlockTree.collapse" else None
                wrapper = self._wrap(nid, fn, after)
                new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                if not isinstance(owner, type):
                    originals[id(fn)] = (fn, wrapper)
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, key, val))
                    setattr(mod, key, hit[1])
        left = [
            f"{mod.__name__}.{key}"
            for mod in _package_modules()
            for key, val in vars(mod).items()
            if id(val) in originals and originals[id(val)][0] is val
        ]
        if left:
            raise RuntimeError(f"names still bound to unwrapped functions: {left}")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # ------------------------------------------------------------------
    # analysis

    def summary(self, pass_s: float) -> dict[str, float]:
        """Self time and call count per span name and per layer.

        ``bench.self_s`` is the part of the pass no span covers, so the
        layer self times plus ``bench.self_s`` add up to ``pass_s``.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.span_parent[i]
            if p == -1:
                top += dur[i]
            else:
                child[p] += dur[i]
        self_s = Counter()
        calls = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in self_s.items() if self.layer_of[name] == layer
            )
        out["blocks.collapse.path_nodes"] = self.path_nodes
        out["blocks.collapse.absorbed"] = self.absorbed
        out["blocks.collapse.merged_children"] = self.merged_children
        out["bench.self_s"] = pass_s - top
        out["trace.spans"] = n
        return out

    def write(self, path: Path) -> None:
        """Dump the recorded spans as gzipped tab separated lines:
        id, parent id, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )
