"""Component census, the lower bound, and the augmentation target size."""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import Decomposition, decompose, pendant_records
from .graph import BipartiteGraph
from .matching import MatchingProfile, counts_of, profile

ISOLATED = "isolated"
EDGE = "edge"
BLOCK = "block"
NEEDY = "needy"


@dataclass
class ComponentCensus:
    c1: int  # components needing work that are not lone edges
    c2: int  # lone edge components
    c3: int  # components that already are nonsingular blocks
    c_iso: int  # lone vertices, already finished
    comp_classes: list[str]

    @property
    def c_total(self) -> int:
        return self.c1 + self.c2


def census(dec: Decomposition) -> ComponentCensus:
    classes = []
    c1 = c2 = c3 = c_iso = 0
    for comp in dec.comps:
        if len(comp) == 1:
            classes.append(ISOLATED)
            c_iso += 1
        elif len(comp) == 2:
            classes.append(EDGE)
            c2 += 1
        elif all(dec.branches[v] < 2 for v in comp):
            classes.append(BLOCK)
            c3 += 1
        else:
            classes.append(NEEDY)
            c1 += 1
    return ComponentCensus(c1, c2, c3, c_iso, classes)


def eta(g: BipartiteGraph) -> int:
    """Lower bound on the number of edges any augmentation needs.

    Defined for connected graphs; the empty graph counts as zero.
    """
    if g.n == 0:
        return 0
    dec = decompose(g)
    if len(dec.comps) != 1:
        raise ValueError("eta is defined on connected graphs")
    ptype = pendant_records(g, dec)[0]
    return eta_extended(dec, census(dec), profile(*counts_of(ptype)))


def eta_extended(
    dec: Decomposition, cen: ComponentCensus, prof: MatchingProfile
) -> int:
    """The same bound evaluated on an arbitrary graph, given its census
    and the profile of its pendant types."""
    max_d = max(dec.branches, default=0)
    return max(max_d + cen.c_total - 2, prof.m + prof.r, 0)


def classify_m(cen: ComponentCensus, m: int) -> str:
    """Top level case label for the whole graph."""
    if cen.c_total == 0:
        return "M6"
    if cen.c1 == 0 and cen.c2 == 1:
        return "M5" if cen.c3 > 0 else "M4"
    if cen.c_total == 1:
        return "M1"
    return "M2" if m == 0 else "M3"


def theorem_target(
    label: str, dec: Decomposition, cen: ComponentCensus, prof: MatchingProfile
) -> int:
    """Exact optimum size for the full graph, given its case label from
    classify_m, its census and the profile of its pendant types."""
    if label == "M6":
        return 0
    if label == "M4":
        return 3
    if label == "M5":
        return 2
    if label == "M2":
        return prof.r  # m == 0, so this is the pendant count
    return eta_extended(dec, cen, prof)
