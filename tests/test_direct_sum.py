"""Metamorphic checks from direct sums, past the reach of the oracles.

For u in S_a and v in S_b, u + v is u followed by v shifted up by a.  A
reduced word of u + v shuffles letters below a (for u) with letters above a
(for v), and those commute, so G(u + v) is the Cartesian product of G(u)
and G(v), and no 321-triple mixes the two factors.  Each side is built by
its own ``build_graph``, so a product of two small graphs checks a graph
at n = 10 to 16, or one with more than 64 mask bits.
"""

import random
from collections import Counter
from itertools import combinations
from math import inf

import pytest

from redweave.classes import build_graph, build_poset
from redweave.perm import longest_element
from redweave.structure import (
    CycleVerdict,
    classify_edge_pair,
    is_rectangular,
    rectangle_label,
)
from redweave.suite import _on_six_cycle
from redweave.words import _class_count


def direct_sum(u, v):
    return (*u, *(x + len(u) for x in v))


def path_factor(m):
    """(m, m-1, 1, 2, ..., m-2): N321 = m - 2, and G(w) is a path of m - 1 classes."""
    return (m, m - 1, *range(1, m - 1))


def _rank_sizes(g):
    """The rank sizes of P(w), by rank: the coefficients of its rank generating function."""
    counts = Counter(build_poset(g).rank.values())
    return [counts[r] for r in range(max(counts) + 1)]


def _product(p, q):
    return [sum(p[i] * q[k - i] for i in range(len(p)) if 0 <= k - i < len(q))
            for k in range(len(p) + len(q) - 1)]


def _factor_verdict(h, other, x, a, b, y):
    """The verdict that G(u + v) gives a pair of edges of one factor h at
    the class (x, y), where y is a class of the other factor: h's own,
    except that a pair on no induced cycle closes an 8-cycle once y has an
    edge and either the pair lies on a 6-cycle of h or that edge goes on to
    a 2-path (the rim of a 3 x 3 grid).  Checked on 206,056 pairs of 600
    seeded products of S_2 to S_7 up to n = 10 before it was relied on."""
    verdict = classify_edge_pair(h, x, a, b)
    if verdict is not CycleVerdict.NO_INDUCED_CYCLE or not other.neighbors(y):
        return verdict
    if _on_six_cycle(h, x, a, b) or any(len(other.neighbors(z)) >= 2 for z in other.neighbors(y)):
        return CycleVerdict.EIGHT_CYCLE
    return verdict


def check_direct_sum(u, v, verdicts_at=inf):
    """Each relation of G(u + v) to its factors; the cycle verdicts at the
    first ``verdicts_at`` classes of the sum alone."""
    gu, gv, g = (build_graph(w, inf) for w in (u, v, direct_sum(u, v)))
    assert len(g) == len(gu) * len(gv)
    assert len(g._pairs) == len(gu._pairs) * len(gv) + len(gu) * len(gv._pairs)
    assert g.max_windows == gu.max_windows + gv.max_windows
    assert g.n321 == gu.n321 + gv.n321
    assert _rank_sizes(g) == _product(_rank_sizes(gu), _rank_sizes(gv))
    if len(g.w) <= 16:  # the pattern route lists the 5-subsets of each w
        assert is_rectangular(g.w) == (is_rectangular(u) and is_rectangular(v))
    assert (rectangle_label(g) is not None) == (
        rectangle_label(gu) is not None and rectangle_label(gv) is not None)
    # u's triples hold the low bits of a mask, v's the high ones
    low, k = (1 << gu.n321) - 1, gu.n321
    for c in range(min(len(g), verdicts_at)):
        mc = g._masks[c]
        for a, b in combinations(sorted(g.neighbors(c)), 2):
            ma, mb = g._masks[a], g._masks[b]
            if ((ma ^ mc) <= low) != ((mb ^ mc) <= low):  # one edge from each factor
                want = CycleVerdict.FOUR_CYCLE
            elif (ma ^ mc) <= low:
                ids = gu._ids
                want = _factor_verdict(gu, gv, ids[mc & low], ids[ma & low], ids[mb & low],
                                       gv._ids[mc >> k])
            else:
                ids = gv._ids
                want = _factor_verdict(gv, gu, ids[mc >> k], ids[ma >> k], ids[mb >> k],
                                       gu._ids[mc & low])
            assert classify_edge_pair(g, c, a, b) is want, (u, v, c, a, b)
    return g


def _seeded_pairs(seed, count, sizes, factors=range(3, 8), most=2 * 10**4):
    """count seeded pairs (u, v), u in S_a and v in S_b with a and b in
    factors and a + b in sizes, whose |G(u)| |G(v)| is at most most: read
    off one live-run memo before any graph is built."""
    rng, live, out = random.Random(seed), {}, []
    while len(out) < count:
        n = rng.choice(sizes)
        a = rng.choice([a for a in factors if n - a in factors])
        u, v = (tuple(rng.sample(range(1, m + 1), m)) for m in (a, n - a))
        if _class_count(u, live) * _class_count(v, live) <= most:
            out.append((u, v))
    return out


@pytest.mark.parametrize("u, v", _seeded_pairs(10, 12, range(10, 15)))
def test_a_direct_sum_is_the_product_of_its_factors(u, v):
    check_direct_sum(u, v, verdicts_at=300)


@pytest.mark.slow
@pytest.mark.parametrize("u, v", _seeded_pairs(16, 40, range(10, 17), range(3, 10)))
def test_a_direct_sum_is_the_product_of_its_factors_to_s16(u, v):
    check_direct_sum(u, v)


@pytest.mark.parametrize("m", [6, 7, 8, 20, 67])
def test_the_path_factor_is_a_path(m):
    g = build_graph(path_factor(m), 10**200)
    assert (g.n321, len(g), len(g._pairs)) == (m - 2, m - 1, m - 2)
    assert max(len(g.neighbors(c)) for c in range(len(g))) <= 2


@pytest.mark.parametrize("u, v, bits, size", [
    (path_factor(66), (3, 2, 1), 65, 130),
    pytest.param(path_factor(67), longest_element(4), 69, 528, marks=pytest.mark.slow),
])
def test_a_product_past_64_mask_bits(u, v, bits, size):
    # the path factor's triples and the other factor's: a mask past one machine word
    g = check_direct_sum(u, v)
    assert (g.n321, len(g)) == (bits, size)
