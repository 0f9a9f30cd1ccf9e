from itertools import combinations, permutations

import pytest

from redweave import InputError, BudgetExceeded
from redweave.perm import (
    avoids,
    check_perm,
    enumerate_sn,
    identity,
    inverse,
    inversions,
    longest_element,
    parse_perm,
    pattern_count,
    pattern_occurrences,
)
from redweave.structure import RECT_PATTERNS


def test_check_perm_accepts_and_normalizes():
    assert check_perm([3, 4, 2, 1]) == (3, 4, 2, 1)


@pytest.mark.parametrize("bad", [[], [1, 1], [2, 3], [0, 1], [1, 2, 4]])
def test_check_perm_rejects(bad):
    with pytest.raises(InputError):
        check_perm(bad)


def test_parse_perm_forms():
    assert parse_perm("3421") == (3, 4, 2, 1)
    assert parse_perm("3,4,2,1") == (3, 4, 2, 1)
    assert parse_perm("3 4 2 1") == (3, 4, 2, 1)
    assert parse_perm("4,3,2,1,5,6,7,11,10,8,9") == (4, 3, 2, 1, 5, 6, 7, 11, 10, 8, 9)
    with pytest.raises(InputError):
        parse_perm("3x21")


def test_identity_inverse_longest():
    assert identity(4) == (1, 2, 3, 4)
    assert longest_element(4) == (4, 3, 2, 1)
    assert inverse((3, 1, 2)) == (2, 3, 1)
    for w in enumerate_sn(4):
        assert inverse(inverse(w)) == w


def test_inversions():
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 4, 2, 1)) == 5
    assert inversions(longest_element(5)) == 10


def test_pattern_count_examples():
    assert pattern_count((3, 4, 2, 1), (3, 2, 1)) == 2
    assert pattern_count((4, 3, 2, 1), (3, 2, 1)) == 4
    assert pattern_count((3, 2, 6, 5, 1, 4), (3, 2, 1)) == 3
    assert pattern_count((1, 2, 3), (2, 1)) == 0


def test_pattern_occurrences_are_index_tuples():
    occs = list(pattern_occurrences((3, 4, 2, 1), (3, 2, 1)))
    assert occs == [(0, 2, 3), (1, 2, 3)]


def test_pattern_occurrences_match_pairwise_order(s6):
    # an index tuple carries p when each pair of its values is ordered as
    # the same pair of entries of p
    patterns = [p for k in (3, 4) for p in permutations(range(1, k + 1))]
    for w in s6:
        for p in patterns + list(RECT_PATTERNS):
            pairs = list(combinations(range(len(p)), 2))
            brute = [
                idx
                for idx in combinations(range(len(w)), len(p))
                if all((w[idx[s]] < w[idx[t]]) == (p[s] < p[t]) for s, t in pairs)
            ]
            assert list(pattern_occurrences(w, p)) == brute, (w, p)


def test_avoids_matches_count():
    patterns = [p for n in (3, 4) for p in enumerate_sn(n)]
    for w in enumerate_sn(5):
        for p in patterns:
            assert avoids(w, p) == (pattern_count(w, p) == 0)


def test_enumerate_sn_cap():
    assert len(list(enumerate_sn(3))) == 6
    with pytest.raises(BudgetExceeded):
        list(enumerate_sn(9))
    with pytest.raises(InputError):
        list(enumerate_sn(0))
