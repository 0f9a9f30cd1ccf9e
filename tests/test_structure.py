import gc
import random
import weakref

import pytest
from collections import Counter
from itertools import combinations, product

from oracles import (
    OracleGraph,
    _closes_chordless,
    contains,
    grid_labelling_ok,
    induced_cycle_lengths,
    word_walk_scan,
)
from redweave import InputError, InvariantViolation, classes, structure
from redweave.classes import build_graph, graph_checks
from redweave.perm import _orbit, enumerate_sn, identity, inverse, longest_element
from redweave.structure import (
    RECT_PATTERNS,
    CycleVerdict,
    classify_edge_pair,
    embed_hypercube,
    is_freely_braided,
    is_rectangular,
    rectangle_label,
    rectangular_witness,
)
from redweave.words import Word, canonical_letters, count_reduced_words, evaluate


def max_windows(w):
    """Y: the most long-braid windows any single reduced word of w has."""
    return build_graph(w).max_windows


def grid_label(w):
    return rectangle_label(build_graph(w))


def test_max_braid_moves_examples():
    assert max_windows((3, 4, 2, 1)) == 2
    assert max_windows(longest_element(3)) == 1
    assert max_windows(longest_element(4)) == 2
    assert max_windows(identity(4)) == 0
    assert max_windows((2, 1, 4, 3)) == 0
    w = evaluate(Word((2, 1, 2, 5, 4, 5), 6))[0]
    assert max_windows(w) == 2


def test_freely_braided_examples():
    assert is_freely_braided((2, 1, 4, 3))
    assert is_freely_braided(longest_element(3))
    assert not is_freely_braided(longest_element(4))
    assert not is_freely_braided((3, 4, 2, 1))  # its two 321-triples share positions
    assert not is_freely_braided((4, 2, 3, 1))  # ... even if no word shows both moves
    assert is_freely_braided(evaluate(Word((2, 1, 2, 5, 4, 5), 6))[0])


def test_freely_braided_class_count():
    w = evaluate(Word((2, 1, 2, 5, 4, 5), 6))[0]
    y = max_windows(w)
    assert len(build_graph(w)) == 2**y == 4


def test_embed_hypercube_dimensions():
    def dimension(w):
        return embed_hypercube(build_graph(w)).dimension

    assert dimension(identity(3)) == 0
    assert dimension(longest_element(3)) == 1
    assert dimension((3, 4, 2, 1)) == 1
    assert dimension(longest_element(4)) == 1
    w5 = longest_element(5)
    assert dimension(w5) >= (max_windows(w5) + 1) // 2
    assert dimension(evaluate(Word((2, 1, 2, 5, 4, 5), 6))[0]) == 2


def test_embed_hypercube_large_example():
    w = evaluate(Word((3, 2, 1, 2, 5, 4, 5, 3, 7, 6, 7), 8))[0]
    g = build_graph(w)
    wit = embed_hypercube(g)
    assert wit.dimension >= 3  # Y >= 5 here, so at least ceil(5/2)
    for bits, cid in wit.classes.items():
        for j in range(wit.dimension):
            flip = bits[:j] + (1 - bits[j],) + bits[j + 1 :]
            assert g.has_edge(cid, wit.classes[flip])


def _cube_refusal(g) -> str:
    with pytest.raises(InvariantViolation) as refused:
        embed_hypercube(g)
    return str(refused.value)


def test_embed_hypercube_refuses_too_few_windows(monkeypatch):
    # Y = 2 on G(4321), from (1, 2, 3, 2, 1, 2): one down-move and one up-move
    g = build_graph(longest_element(4))
    monkeypatch.setattr(g, "_y", (5, g.max_window_word))
    assert _cube_refusal(g) == "same-direction moves of (1, 2, 3, 2, 1, 2) are not 3 disjoint windows"


def test_embed_hypercube_refuses_colliding_subsets(monkeypatch):
    g = build_graph(longest_element(4))
    monkeypatch.setattr(structure, "canonical_letters", lambda letters: g._canonical[0])
    assert _cube_refusal(g) == "subsets of moves of (1, 2, 3, 2, 1, 2) collide in G((4, 3, 2, 1))"


def test_embed_hypercube_refuses_a_missing_edge(monkeypatch):
    g = build_graph(longest_element(4))
    monkeypatch.setattr(g, "has_edge", lambda u, v: False)
    assert _cube_refusal(g) == "missing hypercube edge (0,) -- (1,) in G((4, 3, 2, 1))"


def test_rectangular_pattern_route():
    assert is_rectangular((3, 2, 6, 5, 1, 4))
    assert is_rectangular((3, 4, 2, 1))
    assert is_rectangular(identity(5))
    assert not is_rectangular(longest_element(4))
    assert rectangular_witness(longest_element(4)) == (4, 3, 2, 1)
    assert rectangular_witness((4, 2, 5, 3, 1)) == (4, 2, 5, 3, 1)
    assert rectangular_witness((5, 3, 1, 4, 2)) == (5, 3, 1, 4, 2)


def test_rect_patterns_start_with_4321():
    # the suite reads 4321-avoidance off the witness: w avoids 4321 exactly
    # when its first forbidden pattern is another one, or there is none
    assert RECT_PATTERNS[0] == (4, 3, 2, 1)


def test_rect_patterns_are_closed_under_both_maps():
    # G(w) is isomorphic to G(w^-1) and to G(w0 w w0), so containment of the
    # list is an orbit invariant; both maps fix 4321, so avoiding it is too
    w0 = longest_element(4)
    assert _orbit(w0) == (w0,) * 4
    for p in RECT_PATTERNS:
        r = longest_element(len(p))
        flip = tuple(r[p[r[i] - 1] - 1] for i in range(len(p)))  # w0 p w0, composed
        assert inverse(p) in RECT_PATTERNS and flip in RECT_PATTERNS, p
        assert set(_orbit(p)) == {p, inverse(p), flip, inverse(flip)}, p


def test_rectangle_label_326514():
    spec = grid_label((3, 2, 6, 5, 1, 4))
    assert spec is not None
    assert spec.dims == (1, 2)
    g = build_graph((3, 2, 6, 5, 1, 4))
    # published figure labels, keyed by one member word of each class
    figure = {
        (2, 1, 2, 5, 4, 5, 3, 4): (0, 0),
        (2, 1, 2, 4, 5, 4, 3, 4): (0, 1),
        (1, 2, 1, 5, 4, 5, 3, 4): (1, 0),
        (2, 1, 2, 4, 5, 3, 4, 3): (0, 2),
        (1, 2, 1, 4, 5, 4, 3, 4): (1, 1),
        (1, 2, 1, 4, 5, 3, 4, 3): (1, 2),
    }
    for member, point in figure.items():
        cid = g.class_by_canonical(canonical_letters(member)).id
        assert spec.labels[cid] == point


def test_rectangle_label_path_and_point():
    spec = grid_label((3, 4, 2, 1))
    assert spec is not None and spec.dims == (2,)
    spec = grid_label(identity(3))
    assert spec is not None and spec.dims == ()
    assert grid_label(longest_element(4)) is None


@pytest.mark.parametrize("move_it", [False, True])
def test_rectangle_label_needs_exactly_the_grid_edges(move_it):
    # a graph whose mask-flip pairs (the edge layer the labelling checks)
    # hide one grid edge, or move it to a pair of labels two apart, is no
    # grid, though the masks the labels are read off are a grid's: the edges
    # are too few, or one is not a unit step
    g = build_graph((3, 2, 6, 5, 1, 4))
    spec = rectangle_label(g)
    assert spec is not None
    pairs = g._pairs[1:]
    if move_it:
        at = {point: cid for cid, point in spec.labels.items()}
        pairs += ((at[(0, 0)], at[(1, 1)], g._pairs[0][2]),)

    class Stub:
        def __getattr__(self, name):
            return pairs if name == "_pairs" else getattr(g, name)

    assert rectangle_label(Stub()) is None


@pytest.mark.parametrize(
    "w",
    [(3, 2, 5, 4, 7, 6, 1), (3, 2, 7, 4, 1, 6, 5), (5, 2, 1, 4, 7, 6, 3), (7, 2, 1, 4, 3, 6, 5)],
)
def test_rectangle_label_3_cubes(w):
    # three 321-triples, no two sharing two values, are three axes, though
    # some share one: the box is a cube, not a path of length 3
    assert is_rectangular(w)
    spec = grid_label(w)
    assert spec is not None and spec.dims == (1, 1, 1)


def _labels_agree_with_oracles(graphs):
    for g in graphs:
        spec = rectangle_label(g)
        if is_rectangular(g.w):
            assert spec is not None and grid_labelling_ok(g, spec), g.w
        else:
            assert spec is None, g.w


def _graphs(perms):
    return (build_graph(w, budget=10**14) for w in perms)  # up to 8.8e11 words


def _sample(n, k, seed):
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, n + 1), n)) for _ in range(k)]


def test_rectangle_label_matches_grid_oracle_s6_and_s7_sample(s6_graphs):
    _labels_agree_with_oracles(s6_graphs.values())
    _labels_agree_with_oracles(_graphs(_sample(7, 300, seed=7)))


@pytest.mark.slow
def test_rectangle_label_matches_grid_oracle_s7_and_s8_sample():
    _labels_agree_with_oracles(_graphs(enumerate_sn(7)))
    _labels_agree_with_oracles(_graphs(_sample(8, 200, seed=8)))


def test_rectangular_witness_matches_containment_oracle_s1_s7():
    for n in range(1, 8):
        for w in enumerate_sn(n):
            first = next((p for p in RECT_PATTERNS if contains(w, p)), None)
            assert rectangular_witness(w) == first, w


def test_classify_edge_pair_examples():
    # two disjoint braid windows: 4-cycle
    w = evaluate(Word((2, 1, 2, 5, 4, 5), 6))[0]
    g = build_graph(w)
    top = g.class_by_canonical(canonical_letters((2, 1, 2, 5, 4, 5))).id
    a, b = sorted(g.neighbors(top))
    assert classify_edge_pair(g, top, a, b) is CycleVerdict.FOUR_CYCLE

    # adjacent edges of the longest-element 8-cycle
    g = build_graph(longest_element(4))
    a, b = sorted(g.neighbors(0))
    assert classify_edge_pair(g, 0, a, b) is CycleVerdict.EIGHT_CYCLE

    # G(436512) is a 3x3 grid: at the middle of a side, the two rim edges
    # lie on its rim, an induced 8-cycle
    g = build_graph((4, 3, 6, 5, 1, 2))
    corners = {c.id for c in g.vertices if len(g.neighbors(c.id)) == 2}
    sides = [c.id for c in g.vertices if len(g.neighbors(c.id)) == 3]
    assert len(g) == 9 and len(corners) == len(sides) == 4
    for v in sides:
        a, b = sorted(g.neighbors(v) & corners)
        assert classify_edge_pair(g, v, a, b) is CycleVerdict.EIGHT_CYCLE

    # middle vertex of the 3421 path
    g = build_graph((3, 4, 2, 1))
    assert classify_edge_pair(g, 1, 0, 2) is CycleVerdict.NO_INDUCED_CYCLE

    with pytest.raises(InputError):
        classify_edge_pair(g, 1, 0, 0)
    with pytest.raises(InputError):
        classify_edge_pair(g, 0, 1, 2)  # 0-2 is not an edge


@pytest.mark.parametrize("w, v, a, b, verdict", [
    ((4, 3, 2, 1), 0, 1, 2, CycleVerdict.EIGHT_CYCLE),
    ((3, 4, 2, 1), 1, 0, 2, CycleVerdict.NO_INDUCED_CYCLE),
])
def test_classify_edge_pair_frees_the_graph_without_gc(w, v, a, b, verdict):
    # a verdict that reaches the flip-order walk leaves no reference cycle
    # holding G(w)
    gc.disable()
    try:
        g = build_graph(w)
        assert classify_edge_pair(g, v, a, b) is verdict
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_classify_edge_pair_refuses_vertices_outside_the_graph():
    # -1 would read vertex 7's mask and answer for vertex 7, a vertex not
    # asked about, as -4 would for 4; 99 an IndexError
    g = build_graph((4, 3, 2, 1))
    assert classify_edge_pair(g, 7, 4, 6) is CycleVerdict.EIGHT_CYCLE
    for v, a, b in [(-1, 4, 6), (7, -4, 6), (7, 4, -2), (99, 4, 6), (7, 4, 8)]:
        with pytest.raises(InputError, match=r"are not all in 0\.\.7"):
            classify_edge_pair(g, v, a, b)


def test_graph_reads_match_the_oracle_graph():
    # the mask reads (neighbours, edges, connectivity, the 4-cycle probe and
    # the flip-order walk) against a G(w) built by rewriting words, on S_4, S_5
    # and the 652 w of S_6 with at most 2000 reduced words
    small = [w for w in enumerate_sn(6) if count_reduced_words(w) <= 2000]
    assert len(small) == 652
    expected = {4: CycleVerdict.FOUR_CYCLE, 8: CycleVerdict.EIGHT_CYCLE}
    pairs = 0
    for w in [*enumerate_sn(4), *enumerate_sn(5), *small]:
        g, o = build_graph(w), OracleGraph(w)
        assert [c.canonical.letters for c in g.vertices] == o.canonical, w
        assert graph_checks(g) == (o.connected, o.bipartite), w
        for v in range(len(g)):
            assert g.neighbors(v) == o.neighbors(v), (w, v)
            assert [g.has_edge(v, u) for u in range(len(g))] == [
                o.has_edge(v, u) for u in range(len(g))], (w, v)
            for a, b in combinations(sorted(o.neighbors(v)), 2):
                lengths = induced_cycle_lengths(o, v, a, b)
                assert lengths <= {4, 8}, (w, v, a, b)
                want = expected[min(lengths)] if lengths else CycleVerdict.NO_INDUCED_CYCLE
                assert classify_edge_pair(g, v, a, b) is want, (w, v, a, b)
                pairs += 1
    assert pairs == 11 + 7520  # S_4's, then those of S_5 and the S_6 w


def _dfs_verdict(g, v, a, b):
    """The verdict by the 4-cycle probe, then the 6-edge DFS of ``oracles``."""
    m = g._masks
    if m[v] ^ m[a] ^ m[b] in g._ids:
        return CycleVerdict.FOUR_CYCLE
    if _closes_chordless(g, [m[a]], m[v], m[b]):
        return CycleVerdict.EIGHT_CYCLE
    return CycleVerdict.NO_INDUCED_CYCLE


def _verdict_mismatches(graphs):
    return [(g.w, v, a, b) for g in graphs for v in range(len(g))
            for a, b in combinations(sorted(g.neighbors(v)), 2)
            if classify_edge_pair(g, v, a, b) is not _dfs_verdict(g, v, a, b)]


def test_verdicts_match_the_dfs_s5_s6_and_s7_sample(s5, s6_graphs):
    assert _verdict_mismatches([*map(build_graph, s5), *s6_graphs.values()]) == []
    sample = random.Random(36).sample(list(enumerate_sn(7)), 60)
    assert _verdict_mismatches(classes._sweep(sample, lambda g: g, 10**12).values()) == []


@pytest.mark.slow
def test_verdicts_match_the_dfs_w0_7():
    assert _verdict_mismatches([build_graph(longest_element(7), 10**12)]) == []


def _closed_walks(length, chordless):
    """The flip orders, as strings over i, j, K and L, of the closed walks of
    ``length`` flips from v = 0, with bits i = 1, j = 2, K = 4 and L = 8,
    that flip i, then K, and last j, through distinct masks, none of them
    v ^ a ^ b = 3; if ``chordless``, no two masks but consecutive ones are one
    flip apart.  The order is the flips between K and j."""
    bit = dict(zip("ijKL", (1, 2, 4, 8)))
    out = []
    for middle in product("ijKL", repeat=length - 3):
        masks = [0]
        for c in "iK" + "".join(middle):
            masks.append(masks[-1] ^ bit[c])
        chords = [(p, q) for p, q in combinations(range(length), 2)
                  if (masks[p] ^ masks[q]).bit_count() == 1 and q - p not in (1, length - 1)]
        if (masks[-1] == bit["j"] and len(set(masks)) == length and 3 not in masks
                and not (chordless and chords)):
            out.append("".join(middle))
    return out


def test_the_flip_order_tables_are_every_order_brute_force_leaves():
    # an induced 8-cycle through (v, a = v ^ e_i) and (v, b = v ^ e_j): K
    # names its second flip and L its fourth bit
    assert sorted(_closed_walks(8, chordless=True)) == sorted(structure._OCTAGONS)
    assert len(structure._OCTAGONS) == 7
    # a path of 4 edges from a to b off v and v ^ a ^ b, chords allowed
    assert sorted(_closed_walks(6, chordless=False)) == sorted(structure._HEXAGONS)


def test_verdicts_by_shared_wires_s6(s6):
    # data over S_6, not a theorem: edges whose wire triples share at most
    # one wire always meet on a 4-cycle; sharing two does not decide
    tally = Counter()
    for w in s6:
        g = build_graph(w)
        wires = {}
        for e in g.edges:
            wires[e.u, e.v] = wires[e.v, e.u] = set(e.labels[0][1])
        for c in g.vertices:
            for a, b in combinations(sorted(g.neighbors(c.id)), 2):
                shared = len(wires[c.id, a] & wires[c.id, b])
                tally[shared >= 2, classify_edge_pair(g, c.id, a, b)] += 1
    assert tally == {
        (False, CycleVerdict.FOUR_CYCLE): 28404,
        (True, CycleVerdict.EIGHT_CYCLE): 11878,
        (True, CycleVerdict.NO_INDUCED_CYCLE): 3006,
    }


def test_edge_labels_unique_s5(s5):
    # every move between two classes re-crosses one wire triple, read word by
    # word, so G(w)'s edges can be the one-triple flips of the class masks
    for w in s5:
        labels = word_walk_scan(w)["edges"].values()
        assert all(len({ws for _, ws in ls}) == 1 for ls in labels), w
