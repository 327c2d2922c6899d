"""Operation counters used to check the solver scales linearly."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class OpCounters:
    """Tallies of the elementary steps the solver performs.

    dfs_visits counts vertex expansions during block decomposition,
    tree_nodes counts structure-tree nodes created, collapse_steps counts
    nodes retired by path collapses plus the children each collapse
    moves one by one onto the merged node, index_updates counts
    subtree-code recomputations and the nodes each re-root walks, and
    edges_added counts augmentation edges emitted.
    """

    dfs_visits: int = 0
    tree_nodes: int = 0
    collapse_steps: int = 0
    index_updates: int = 0
    edges_added: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def total(self) -> int:
        return sum(self.as_dict().values())
