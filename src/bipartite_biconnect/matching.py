"""Pairing rules over pendant blocks.

Pendants come in three types: A and B for single vertex pendants by
side, AB for nonsingular pendant blocks.  A type is one of the ints
A, B, AB = 0, 1, 2, listed in that order as TYPES, and every per type
count or list in the package is indexed by it; A and B equal the side
of the pendant's vertex.  Every combination except A with A and B with
B can be joined by an edge: LEGAL_COMBOS lists them and joinable() asks
it.  This module is the one place that knows these rules; the other
layers ask it.

The pair count m, the largest number of disjoint joinable pairs, has
one closed form, pair_count(): min(A, B) pairs A with B, then the
surplus side takes up to as many AB pendants, then the remaining AB
pendants pair among themselves.  The r pendants left over number the
pendants minus 2m, so m + r is the pendants minus m.  Greedy pairing in
that order reaches m.

When two pendant sets must be joined by one pair that lowers the count
of their union by exactly one, the candidates are tried in one fixed
order, CROSS_ORDER: LEGAL_COMBOS with both orientations, AB with AB
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantViolation, check

A, B, AB = 0, 1, 2
TYPES = (A, B, AB)
LEGAL_COMBOS = ((A, B), (A, AB), (B, AB), (AB, AB))
# (t1, t2) oriented: t1 from the first set, t2 from the second
CROSS_ORDER = tuple(
    dict.fromkeys(o for ta, tb in LEGAL_COMBOS for o in ((ta, tb), (tb, ta)))
)


def joinable(t1: int, t2: int) -> bool:
    """True when a t1 pendant and a t2 pendant may be joined by an edge."""
    return (t1, t2) in CROSS_ORDER


@dataclass(frozen=True)
class MatchingProfile:
    m: int
    r: int


def pair_count(n_a: int, n_b: int, n_ab: int) -> int:
    """m, the closed form size of a largest legal pairing."""
    # min(n_a, n_b) + min(abs(n_a - n_b), n_ab) + ..., without the
    # builtin calls: every iterative step recounts m
    fewer, surplus = (n_b, n_a - n_b) if n_a > n_b else (n_a, n_b - n_a)
    if surplus > n_ab:
        surplus = n_ab
    return fewer + surplus + (n_ab - surplus) // 2


def profile(n_a: int, n_b: int, n_ab: int) -> MatchingProfile:
    """Closed form pairing profile for the given type counts."""
    m = pair_count(n_a, n_b, n_ab)
    return MatchingProfile(m, n_a + n_b + n_ab - 2 * m)


def counts_of(types: Sequence[int]) -> tuple[int, int, int]:
    c = [0, 0, 0]
    for t in types:
        c[t] += 1
    return c[0], c[1], c[2]


def is_decrementing(counts: tuple[int, int, int], t1: int, t2: int) -> bool:
    """True when removing one t1 and one t2 pendant lowers the pair count
    by exactly one."""
    c = list(counts)
    c[t1] -= 1
    c[t2] -= 1
    return min(c) >= 0 and pair_count(*c) == pair_count(*counts) - 1


def pick_cross_pair(
    counts1: tuple[int, int, int], counts2: tuple[int, int, int]
) -> tuple[int, int]:
    """Choose pendant types (t1 from set one, t2 from set two) whose
    pairing lowers the pair count of the union by exactly one: the first
    such combo in CROSS_ORDER, so the choice is deterministic.
    """
    union = (counts1[0] + counts2[0], counts1[1] + counts2[1], counts1[2] + counts2[2])
    for t1, t2 in CROSS_ORDER:
        if counts1[t1] < 1 or counts2[t2] < 1:
            continue
        if is_decrementing(union, t1, t2):
            return t1, t2
    raise InvariantViolation(f"no joinable cross pair for counts {counts1} and {counts2}")


def maximum_legal_matching(
    pendants: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Greedy maximum pairing over (id, type) pendants.

    Returns the pairs and the unmatched ids, both deterministic: ids
    are consumed in ascending order within each type.
    """
    by_type: list[list[int]] = [[], [], []]
    for pid, t in pendants:
        by_type[t].append(pid)
    for ids in by_type:
        ids.sort()
    a, b, ab = by_type
    pairs: list[tuple[int, int]] = list(zip(a, b))
    k = len(pairs)
    surplus = a[k:] if len(a) > len(b) else b[k:]
    pairs += zip(surplus, ab)
    k2 = min(len(surplus), len(ab))
    rest = ab[k2:]
    pairs += zip(rest[0::2], rest[1::2])
    leftovers = sorted(surplus[k2:] + rest[2 * (len(rest) // 2) :])
    check(len(pairs) == pair_count(len(a), len(b), len(ab)), "pairing is not maximum")
    check(len(leftovers) == len(pendants) - 2 * len(pairs), "leftovers miscounted")
    return pairs, leftovers
