"""Pendant pairing: closed-form count and greedy construction."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartite_biconnect import MatchingProfile, profile
from bipartite_biconnect.errors import InvariantViolation
from bipartite_biconnect.matching import (
    AB,
    LEGAL_COMBOS,
    A,
    B,
    counts_of,
    is_decrementing,
    maximum_legal_matching,
    pick_cross_pair,
)

from .helpers import oracle_max_matching


def test_profile_formula_matches_exhaustive_search_everywhere():
    for n_a, n_b, n_ab in itertools.product(range(7), repeat=3):
        prof = profile(n_a, n_b, n_ab)
        assert prof.m == oracle_max_matching(n_a, n_b, n_ab), (n_a, n_b, n_ab)
        assert prof.r == n_a + n_b + n_ab - 2 * prof.m


def test_profile_known_values():
    assert profile(2, 0, 1).m == 1
    assert profile(2, 0, 1).r == 1
    assert profile(0, 0, 5).m == 2
    assert profile(0, 0, 5).r == 1
    assert profile(3, 3, 0).m == 3
    assert profile(1, 0, 0) == MatchingProfile(0, 1)


def test_counts_of():
    assert counts_of([A, B, AB, AB, A]) == (2, 1, 2)
    assert counts_of([]) == (0, 0, 0)


def test_legal_combos_exclude_same_side_pairs():
    assert (A, A) not in LEGAL_COMBOS
    assert (B, B) not in LEGAL_COMBOS
    assert set(LEGAL_COMBOS) == {
        (A, B),
        (A, AB),
        (B, AB),
        (AB, AB),
    }


def test_maximum_matching_reaches_the_formula():
    rng = random.Random(99)
    for _ in range(400):
        types = (
            [A] * rng.randint(0, 5)
            + [B] * rng.randint(0, 5)
            + [AB] * rng.randint(0, 5)
        )
        pendants = sorted(zip(range(len(types)), types))
        pairs, leftovers = maximum_legal_matching(pendants)
        prof = profile(*counts_of(types))
        assert len(pairs) == prof.m == oracle_max_matching(*counts_of(types))
        assert len(leftovers) == prof.r
        used = [p for pair in pairs for p in pair] + list(leftovers)
        assert sorted(used) == [pid for pid, _ in pendants]
        type_of = dict(pendants)
        for x, y in pairs:
            t1, t2 = type_of[x], type_of[y]
            assert (t1, t2) in LEGAL_COMBOS or (t2, t1) in LEGAL_COMBOS


def test_leftovers_are_never_pairable():
    pairs, leftovers = maximum_legal_matching(
        [(0, A), (1, A), (2, A), (3, B)]
    )
    assert len(pairs) == 1
    assert leftovers == [1, 2]  # two A pendants left, nothing to take them


@settings(derandomize=True, max_examples=200)
@given(
    st.tuples(
        st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
    ),
    st.tuples(
        st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
    ),
)
def test_cross_pair_lowers_the_count_by_one(counts1, counts2):
    total = tuple(x + y for x, y in zip(counts1, counts2))
    m_before = profile(*total).m
    if sum(counts1) == 0 or sum(counts2) == 0 or m_before == 0:
        return
    # a nonempty split with pairs outstanding always admits a cross
    # pair whose removal lowers the count by exactly one
    t1, t2 = pick_cross_pair(counts1, counts2)
    i1 = (A, B, AB).index(t1)
    i2 = (A, B, AB).index(t2)
    assert counts1[i1] > 0 and counts2[i2] > 0
    after = list(total)
    after[i1] -= 1
    after[i2] -= 1
    assert profile(*after).m == m_before - 1


def test_cross_pair_is_the_first_available_combo_the_oracle_certifies():
    # the pair order, spelled out here rather than read from the module
    order = [
        (A, B),
        (B, A),
        (A, AB),
        (AB, A),
        (B, AB),
        (AB, B),
        (AB, AB),
    ]
    slot = {A: 0, B: 1, AB: 2}
    for counts1 in itertools.product(range(4), repeat=3):
        for counts2 in itertools.product(range(4), repeat=3):
            total = [x + y for x, y in zip(counts1, counts2)]
            m_before = oracle_max_matching(*total)
            expected = None
            for t1, t2 in order:
                if counts1[slot[t1]] < 1 or counts2[slot[t2]] < 1:
                    continue
                after = list(total)
                after[slot[t1]] -= 1
                after[slot[t2]] -= 1
                if oracle_max_matching(*after) == m_before - 1:
                    expected = (t1, t2)
                    break
            if expected is None:
                with pytest.raises(InvariantViolation):
                    pick_cross_pair(counts1, counts2)
            else:
                assert pick_cross_pair(counts1, counts2) == expected, (counts1, counts2)


def test_cross_pair_raises_when_nothing_works():
    # all pendants on one side, split across two groups
    with pytest.raises(InvariantViolation):
        pick_cross_pair((2, 0, 0), (3, 0, 0))


def test_is_decrementing_certificate():
    counts = (2, 1, 1)
    assert is_decrementing(counts, A, B)
    assert not is_decrementing((2, 0, 0), A, A)
