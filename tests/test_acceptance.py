"""Acceptance gate: the full battery of required end-to-end checks.

Each test prints a single pass/fail line for its criterion.  The heavy
sweeps share one G(w) per permutation through the session fixtures.
"""

import time
from itertools import combinations

import networkx as nx

from oracles import (
    MoveKind,
    all_words_bfs,
    apply_move,
    classes_bfs,
    count_212,
    induced_cycle_lengths,
    list_moves,
)
from redweave.bounds import aggregate_bound_check, paren_encoding
from redweave.classes import build_graph, build_poset, graph_checks
from redweave.perm import (
    enumerate_sn,
    inversions,
    longest_element,
    pattern_count,
)
from redweave.structure import (
    CycleVerdict,
    classify_edge_pair,
    is_freely_braided,
    is_rectangular,
    rectangle_label,
)
from redweave.subnet import (
    WARRINGTON_X,
    count_subnetworks,
    count_x_avoiding_words,
    crossing_events,
    predicted_count_w0_s4,
    _induced,
)
from redweave.words import Word, canonical_letters, enumerate_reduced_words


def report(criterion: str, ok: bool) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def grid_label(w):
    return rectangle_label(build_graph(w))


def to_nx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(c.id for c in g.vertices)
    h.add_edges_from((e.u, e.v) for e in g.edges)
    return h


def test_criterion_01_named_examples():
    start = time.perf_counter()
    ok = True

    g = build_graph((3, 4, 2, 1))
    ok &= len(g) == 3 and nx.is_isomorphic(to_nx(g), nx.path_graph(3))

    g = build_graph((4, 3, 2, 1))
    ok &= len(g) == 8 and nx.is_isomorphic(to_nx(g), nx.cycle_graph(8))

    w = (3, 2, 6, 5, 1, 4)
    g = build_graph(w)
    spec = rectangle_label(g)
    ok &= len(g) == 6 and spec is not None and spec.dims == (1, 2)
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
        ok &= spec.labels[cid] == point

    w = (4, 3, 2, 1, 5, 6, 7, 11, 10, 8, 9)
    g = build_graph(w)
    prism = nx.cartesian_product(nx.cycle_graph(8), nx.path_graph(3))
    ok &= len(g) == 24 and nx.is_isomorphic(to_nx(g), prism)

    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(f"criterion 01 named examples ({elapsed:.1f}s)", ok)


def test_criterion_02_warrington_counts():
    start = time.perf_counter()
    expected = {3: 2, 4: 12, 5: 328, 6: 54520}
    got = {
        n: count_x_avoiding_words(build_graph(longest_element(n)), WARRINGTON_X)
        for n in expected
    }
    elapsed = time.perf_counter() - start
    report(
        f"criterion 02 warrington counts {got} ({elapsed:.1f}s)",
        got == expected and elapsed < 300.0,
    )


def test_criterion_02b_warrington_n7():
    start = time.perf_counter()
    got = count_x_avoiding_words(
        build_graph(longest_element(7), budget=2 * 10**9), WARRINGTON_X
    )
    elapsed = time.perf_counter() - start
    report(
        f"criterion 02b warrington n=7 ({got}, {elapsed:.1f}s)",
        got == 68641152 and elapsed < 120.0,
    )


def up_to_sn(top):
    for n in range(2, top + 1):
        yield from enumerate_sn(n)


def test_criterion_03_size_bounds_s6(s6_graphs):
    start = time.perf_counter()
    ok = True
    for w in up_to_sn(6):
        l = inversions(w)
        if l < 1:
            continue
        g = s6_graphs[w] if len(w) == 6 else build_graph(w)
        actual = len(g)
        half = (g.max_windows + 1) // 2
        lower = 2**half + pattern_count(w, (3, 2, 1)) - half
        if not lower <= actual < 3**l:
            ok = False
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    report(f"criterion 03 size bounds over S_6 ({elapsed:.1f}s)", ok)


def test_criterion_04_rank_lemma_s5():
    ok = True
    for w in up_to_sn(5):
        poset = build_poset(build_graph(w))  # raises unless ranks fill 0..N321 exactly
        n321 = pattern_count(w, (3, 2, 1))
        if set(poset.rank.values()) != set(range(n321 + 1)):
            ok = False
        # word-level: every braid-down move drops the 212-count by exactly 1
        counts = {
            word.letters: count_212(word) for word in enumerate_reduced_words(w)
        }
        for ls, c in counts.items():
            word = Word(ls, len(w))
            for move in list_moves(word):
                if move.kind is MoveKind.BRAID_DOWN:
                    target = apply_move(word, move).letters
                    if counts[target] != c - 1:
                        ok = False
    report("criterion 04 rank lemma over S_5", ok)


def test_criterion_05_w0_s4_formula():
    ok = True
    for n in (4, 5):
        for word in enumerate_reduced_words(longest_element(n)):
            if predicted_count_w0_s4(word, n) != count_subnetworks(word, WARRINGTON_X):
                ok = False
    report("criterion 05 longest-element subnetwork formula (n=4,5)", ok)


def test_criterion_06_rectangular_iff_labeling():
    ok = all(
        is_rectangular(w) == (grid_label(w) is not None) for w in up_to_sn(6)
    )
    report("criterion 06 rectangularity iff grid labeling over S_6", ok)


def test_criterion_07_freely_braided_s6(s6_graphs):
    ok = True
    for w in up_to_sn(6):
        g = s6_graphs[w] if len(w) == 6 else build_graph(w)
        if is_freely_braided(w) and len(g) != 2**g.max_windows:
            ok = False
    report("criterion 07 freely braided class counts over S_6", ok)


def pattern_class_sets():
    """Every commutation class of every pattern in S_3 and S_4, as word sets."""
    out = []
    for m in (3, 4):
        for p in enumerate_sn(m):
            groups = {}
            for word in enumerate_reduced_words(p):
                groups.setdefault(canonical_letters(word.letters), set()).add(
                    word.letters
                )
            for canon in sorted(groups):
                out.append((m, frozenset(groups[canon])))
    return out


def test_criterion_08_class_invariance_s5(s5):
    xs = pattern_class_sets()
    ok = True
    for w in s5:
        seen = {}
        for word in enumerate_reduced_words(w):
            events = crossing_events(word)
            ind = {
                m: [
                    _induced(events, sub)
                    for sub in combinations(range(1, 6), m)
                ]
                for m in (3, 4)
            }
            vec = tuple(
                sum(1 for t in ind[m] if t in members) for m, members in xs
            )
            canon = canonical_letters(word.letters)
            if seen.setdefault(canon, vec) != vec:
                ok = False
    report("criterion 08 subnetwork counts constant on classes (S_5)", ok)


def word_totals(w, n):
    """Total occurrences of each induced word over all reduced words of w."""
    totals: dict[tuple[int, ...], int] = {}
    for word in enumerate_reduced_words(w):
        events = crossing_events(word)
        for m in (3, 4):
            for sub in combinations(range(1, n + 1), m):
                t = _induced(events, sub)
                totals[t] = totals.get(t, 0) + 1
    return totals


def test_criterion_09_reverse_and_complement_totals(s5):
    from redweave.perm import inverse

    # reversing every word of w gives the words of w^-1, so x-totals over
    # R(w) match reverse(x)-totals over R(w^-1); for involutions this is
    # agreement over the words of w itself
    ok = True
    all_totals = {w: word_totals(w, 5) for w in s5}
    for w, totals in all_totals.items():
        mirror = all_totals[inverse(w)]
        keys = set(totals) | {t[::-1] for t in mirror}
        for t in keys:
            if totals.get(t, 0) != mirror.get(t[::-1], 0):
                ok = False

    totals = word_totals(longest_element(5), 5)
    for m in (3, 4):
        for word in enumerate_reduced_words(longest_element(m)):
            t = word.letters
            comp = tuple(m - r for r in t)
            if totals.get(t, 0) != totals.get(comp, 0):
                ok = False
    report("criterion 09 reverse and complement totals", ok)


def test_criterion_10_aggregate_catalan_bound():
    ok = True
    for n in (2, 3, 4, 5):
        for l in range(1, n * (n - 1) // 2 + 1):
            rep = aggregate_bound_check(n, l)
            if not rep.ok:
                ok = False
            for w in enumerate_sn(n):
                if inversions(w) != l:
                    continue
                for c in build_graph(w).vertices:
                    canon = c.canonical.letters
                    enc = paren_encoding(canon)
                    if enc.count("(") != enc.count(")"):
                        ok = False
                    if enc.count("(") != l + canon[0] - 1:
                        ok = False
    report("criterion 10 aggregate Catalan bound (n <= 5, l >= 1)", ok)


def test_criterion_11_cycle_trichotomy_s6(s6):
    ok = True
    for w in s6:
        g = build_graph(w)
        h = to_nx(g)
        for c in g.vertices:
            for a, b in combinations(sorted(g.neighbors(c.id)), 2):
                verdict = classify_edge_pair(g, c.id, a, b)
                lengths = induced_cycle_lengths(h, c.id, a, b)
                if verdict is CycleVerdict.FOUR_CYCLE:
                    ok &= 4 in lengths
                elif verdict is CycleVerdict.EIGHT_CYCLE:
                    ok &= lengths == {8}
                else:
                    ok &= not lengths
    report("criterion 11 induced-cycle trichotomy over S_6", ok)


def test_criterion_12_oracle_equivalence(s5):
    ok = True
    for w in s5:
        words = {word.letters for word in enumerate_reduced_words(w)}
        ok &= words == all_words_bfs(w)
        ours = {
            frozenset(cls)
            for cls in (
                {ls for ls in words if canonical_letters(ls) == canon}
                for canon in (c.canonical.letters for c in build_graph(w).vertices)
            )
        }
        ok &= ours == {frozenset(c) for c in classes_bfs(w)}
    for n, words_ref, classes_ref in [(3, 2, 2), (4, 16, 8), (5, 768, 62)]:
        w0 = longest_element(n)
        ok &= len(all_words_bfs(w0)) == words_ref
        ok &= len(classes_bfs(w0)) == classes_ref
    report("criterion 12 oracle equivalence (words and classes)", ok)


def test_supplementary_graph_checks(s5):
    # not a numbered criterion: connectivity and bipartiteness across S_5
    assert all(graph_checks(build_graph(w)).ok for w in s5)
