"""Pairing rules over pendant blocks.

Pendants come in three types: A and B for single vertex pendants by
side, AB for nonsingular pendant blocks.  Every combination except A
with A and B with B can be joined by an edge.  The largest number of
disjoint joinable pairs has a closed form, and greedy pairing in the
order A-B, leftover side with AB, AB-AB achieves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NoCrossPair

LEGAL_COMBOS = (("A", "B"), ("A", "AB"), ("B", "AB"), ("AB", "AB"))
TYPE_SLOT = {"A": 0, "B": 1, "AB": 2}


@dataclass(frozen=True)
class MatchingProfile:
    n_a: int
    n_b: int
    n_ab: int
    alpha: int
    beta: int
    gamma: int
    m: int
    r: int


def profile(n_a: int, n_b: int, n_ab: int) -> MatchingProfile:
    """Closed form pairing profile for the given type counts."""
    alpha = min(n_a, n_b)
    beta = min(abs(n_a - n_b), n_ab)
    gamma = (n_ab - beta) // 2
    m = alpha + beta + gamma
    return MatchingProfile(n_a, n_b, n_ab, alpha, beta, gamma, m, n_a + n_b + n_ab - 2 * m)


def counts_of(types: Sequence[str]) -> tuple[int, int, int]:
    c = [0, 0, 0]
    for t in types:
        c[TYPE_SLOT[t]] += 1
    return c[0], c[1], c[2]


def is_decrementing(counts: tuple[int, int, int], t1: str, t2: str) -> bool:
    """True when removing one t1 and one t2 pendant lowers the pair count
    by exactly one."""
    c = list(counts)
    c[TYPE_SLOT[t1]] -= 1
    c[TYPE_SLOT[t2]] -= 1
    if min(c) < 0:
        return False
    return profile(*c).m == profile(*counts).m - 1


def pick_cross_pair(
    counts1: tuple[int, int, int], counts2: tuple[int, int, int]
) -> tuple[str, str]:
    """Choose pendant types (t1 from set one, t2 from set two) whose
    pairing lowers the pair count of the union by exactly one.

    Combos are tried in a fixed order so the choice is deterministic.
    """
    union = tuple(a + b for a, b in zip(counts1, counts2))
    for ta, tb in LEGAL_COMBOS:
        for t1, t2 in ((ta, tb), (tb, ta)):
            if counts1[TYPE_SLOT[t1]] < 1 or counts2[TYPE_SLOT[t2]] < 1:
                continue
            if is_decrementing(union, t1, t2):
                return t1, t2
    raise NoCrossPair(f"no joinable cross pair for counts {counts1} and {counts2}")


def maximum_legal_matching(
    pendants: Sequence[tuple[int, str]]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Greedy maximum pairing over (id, type) pendants.

    Returns the pairs and the unmatched ids, both deterministic: ids
    are consumed in ascending order within each type.
    """
    by_type: dict[str, list[int]] = {"A": [], "B": [], "AB": []}
    for pid, t in pendants:
        by_type[t].append(pid)
    for ids in by_type.values():
        ids.sort()
    a, b, ab = by_type["A"], by_type["B"], by_type["AB"]
    prof = profile(len(a), len(b), len(ab))
    pairs: list[tuple[int, int]] = []
    ia = ib = iab = 0
    for _ in range(prof.alpha):
        pairs.append((a[ia], b[ib]))
        ia += 1
        ib += 1
    longer, il = (a, ia) if len(a) - ia >= len(b) - ib else (b, ib)
    for _ in range(prof.beta):
        pairs.append((longer[il], ab[iab]))
        il += 1
        iab += 1
    if longer is a:
        ia = il
    else:
        ib = il
    for _ in range(prof.gamma):
        pairs.append((ab[iab], ab[iab + 1]))
        iab += 2
    leftovers = sorted(a[ia:] + b[ib:] + ab[iab:])
    assert len(pairs) == prof.m and len(leftovers) == prof.r
    return pairs, leftovers
