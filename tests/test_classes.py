import inspect
import pickle
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oracles import (
    canonical_words_dfs, classes_bfs, graph_as_scan, local_rule_sets, triple_set, word_walk_scan
)
from redweave import (
    BudgetExceeded, InvariantViolation, bounds, classes, structure, subnet, suite, words
)
from redweave.bounds import aggregate_bound_check, size_bounds
from redweave.classes import build_graph, build_poset, class_members, graph_checks
from redweave.perm import enumerate_sn, identity, longest_element
from redweave.subnet import WARRINGTON_X, count_212, count_x_avoiding_words
from redweave.words import Word, count_reduced_words, index_sum


def test_only_the_enumerating_entry_points_take_a_budget():
    # every other function of G(w) takes the graph, so the budget is
    # checked once, where G(w) (or a word list) is built
    takes_budget = {
        name
        for mod in (words, classes, structure, bounds, subnet, suite)
        for name, fn in vars(mod).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
        and "budget" in inspect.signature(fn).parameters
    }
    assert takes_budget == {
        "build_graph", "enumerate_reduced_words", "aggregate_bound_check", "scan_sn"
    }


def test_classes_3421():
    cls = build_graph((3, 4, 2, 1)).vertices
    assert [(c.canonical.letters, c.size) for c in cls] == [
        ((1, 2, 3, 1, 2), 2),
        ((2, 1, 2, 3, 2), 1),
        ((2, 3, 1, 2, 3), 2),
    ]


def test_classes_identity_and_simple():
    cls = build_graph(identity(3)).vertices
    assert len(cls) == 1 and cls[0].canonical.letters == ()
    assert len(build_graph((2, 1, 3))) == 1
    assert len(build_graph(longest_element(4))) == 8
    assert len(build_graph(longest_element(5))) == 62


def test_class_sizes_sum_to_word_count(s5):
    for w in s5:
        assert sum(c.size for c in build_graph(w).vertices) == count_reduced_words(w)


def test_class_members():
    assert class_members((2, 1, 2, 3, 2)) == {(2, 1, 2, 3, 2)}
    assert class_members((1, 3)) == {(1, 3), (3, 1)}
    assert class_members((1, 2, 3, 1, 2)) == {(1, 2, 3, 1, 2), (1, 2, 1, 3, 2)}


def test_classes_match_bfs_components():
    for w in enumerate_sn(4):
        ours = {frozenset(class_members(c.canonical.letters)) for c in build_graph(w).vertices}
        theirs = {frozenset(c) for c in classes_bfs(w)}
        assert ours == theirs


def test_graph_3421_is_a_path():
    g = build_graph((3, 4, 2, 1))
    assert len(g) == 3
    assert [(e.u, e.v) for e in g.edges] == [(0, 1), (1, 2)]
    assert graph_checks(g).ok


def test_graph_edge_labels_record_letter_and_wires():
    g = build_graph((3, 4, 2, 1))
    by_pair = {(e.u, e.v): e.labels for e in g.edges}
    assert by_pair[(0, 1)] == ((1, (1, 2, 3)),)
    assert by_pair[(1, 2)] == ((2, (1, 2, 4)),)


def test_graph_4321_is_an_8_cycle():
    g = build_graph(longest_element(4))
    assert len(g) == 8 and len(g.edges) == 8
    assert all(len(g.neighbors(c.id)) == 2 for c in g.vertices)
    assert graph_checks(g).ok


def test_graph_checks_all_s5(s5):
    for w in s5:
        assert graph_checks(build_graph(w)).ok


def test_scan_budget():
    with pytest.raises(BudgetExceeded):
        build_graph(longest_element(5), budget=100)
    # the word count is cached per permutation, the verdict is not
    w = (3, 4, 2, 1)
    assert sum(c.size for c in build_graph(w, budget=5).vertices) == 5
    with pytest.raises(BudgetExceeded):
        build_graph(w, budget=1)


def test_scan_result_is_read_only():
    g = build_graph((3, 4, 2, 1))
    assert type(g.vertices) is tuple and type(g.edges) is tuple
    assert all(type(g.neighbors(c.id)) is frozenset for c in g.vertices)
    with pytest.raises(TypeError):
        g.vertices[0] = g.vertices[1]
    with pytest.raises(AttributeError):
        g.neighbors(0).add(2)
    again = build_graph((3, 4, 2, 1))
    assert again is g
    assert len(again) == 3 and len(again.edges) == 2


def test_ids_are_positions_in_lexicographic_order(s5, s6):
    # ids are DFS positions and edges are not re-sorted: this pins the order
    for w in s5 + s6:
        g = build_graph(w)
        assert [c.id for c in g.vertices] == list(range(len(g))), w
        canons = [c.canonical.letters for c in g.vertices]
        assert all(a < b for a, b in zip(canons, canons[1:])), w
        assert all(e.u < e.v for e in g.edges), w
        pairs = [(e.u, e.v) for e in g.edges]
        assert pairs == sorted(pairs), w


def test_scan_matches_word_walk_s5_s6(s5, s6):
    # every field of the cached G(w) against the word-by-word sweep
    for w in s5 + s6:
        assert graph_as_scan(build_graph(w)) == word_walk_scan(w), w


def test_canonical_words_match_the_dfs_oracle(s5, s6):
    # compared by pickling, so the order and the types count too
    for w in [w for n in range(1, 5) for w in enumerate_sn(n)] + s5 + s6 + [longest_element(7)]:
        got = pickle.dumps(classes._canonical_words(w))
        assert got == pickle.dumps(canonical_words_dfs(w)), w


@pytest.mark.slow
def test_canonical_words_match_the_dfs_oracle_s7():
    for w in enumerate_sn(7):
        got = pickle.dumps(classes._canonical_words(w))
        assert got == pickle.dumps(canonical_words_dfs(w)), w


def test_class_count_of_w0_is_a006245():
    # Knuth's count of commutation classes of w0 (Axioms and Hulls), OEIS A006245
    counts = [classes._class_count(longest_element(n)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 8, 62, 908, 24698, 1232944]


@pytest.mark.slow
def test_class_count_of_w0_9():
    assert classes._class_count(longest_element(9)) == 112_018_190


def test_class_count_is_the_number_of_classes_s5(s5):
    for w in s5:
        assert classes._class_count(w) == len(build_graph(w)), w


@pytest.fixture
def layer_calls(monkeypatch):
    """Calls of each layer G(w) computes on first read, from a cleared cache."""
    calls = Counter()
    for name in ("_class_size", "_triple_masks", "_most_windows"):
        def counted(*args, _name=name, _real=getattr(classes, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(classes, name, counted)
    classes._scan_impl.cache_clear()
    yield calls
    classes._scan_impl.cache_clear()


def test_bounds_read_neither_sizes_nor_edges(layer_calls):
    rep = size_bounds(build_graph(longest_element(6)))
    assert (rep.actual, rep.y) == (908, 6)
    assert layer_calls == {"_most_windows": 1}


def test_warrington_reads_sizes_of_avoiding_classes_only(layer_calls):
    assert count_x_avoiding_words(build_graph(longest_element(6)), WARRINGTON_X) == 54520
    assert layer_calls == {"_class_size": 16}


def test_aggregate_reads_canonical_words_only(layer_calls):
    assert aggregate_bound_check(5, 6).ok
    assert layer_calls == {}


def test_suite_reads_no_sizes_and_each_layer_once(layer_calls, s5):
    for w in s5:
        assert suite.check_permutation(build_graph(w)) == []
    assert layer_calls["_class_size"] == 0
    assert layer_calls["_most_windows"] == len(s5)
    assert layer_calls["_triple_masks"] == len(s5)  # one pass over each graph's classes


@st.composite
def s7_s8_perm(draw):
    n = draw(st.sampled_from([7, 8]))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    assume(count_reduced_words(w) <= 20_000)
    return w


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(s7_s8_perm())
def test_scan_matches_word_walk_s7_s8(w):
    assert graph_as_scan(build_graph(w)) == word_walk_scan(w)


def test_poset_3421_is_a_chain():
    p = build_poset(build_graph((3, 4, 2, 1)))
    assert p.rank == {0: 0, 1: 1, 2: 2}
    assert p.covers == ((1, 0), (2, 1))


def test_poset_identity():
    p = build_poset(build_graph(identity(4)))
    assert p.rank == {0: 0} and p.covers == ()


def test_poset_326514_levels():
    p = build_poset(build_graph((3, 2, 6, 5, 1, 4)))
    levels = {}
    for cid, r in p.rank.items():
        levels.setdefault(r, 0)
        levels[r] += 1
    assert levels == {0: 1, 1: 2, 2: 2, 3: 1}


def test_poset_builds_for_all_s4():
    for w in enumerate_sn(4):
        p = build_poset(build_graph(w))
        for upper, lower in p.covers:
            assert p.rank[upper] - p.rank[lower] == 1


def test_rank_constant_on_class_members(s5):
    # the 212-count is a class invariant, so ranking by canonicals is sound
    for w in s5[:40]:
        for c in build_graph(w).vertices:
            counts = {
                count_212(Word(ls, len(w))) for ls in class_members(c.canonical.letters)
            }
            assert len(counts) == 1


def test_index_sum_parity_splits_edges(s5):
    for w in s5[:60]:
        g = build_graph(w)
        for e in g.edges:
            su = index_sum(g.vertices[e.u].canonical)
            sv = index_sum(g.vertices[e.v].canonical)
            assert abs(su - sv) == 1


def test_local_rule_sets_are_the_classes_s5_s6(s5, s6):
    # the engine's classes and masks against the 4-value local rule, which
    # shares no code with src/
    for w in s5 + s6:
        g = build_graph(w)
        sets = [triple_set(c.canonical.letters, len(w)) for c in g.vertices]
        assert Counter(sets) == Counter(local_rule_sets(w)), w
        masks = [{t for j, t in enumerate(g._triples) if m >> j & 1} for m in g._masks]
        assert masks == sets, w


def test_two_classes_with_one_mask_are_refused():
    # a mask fixes its class, so a repeated canonical word cannot pass as two
    g = build_graph((3, 4, 2, 1))
    twice = classes.ClassGraph(g.w, (g.vertices[0], classes.CommClass(1, g.vertices[0].canonical)))
    with pytest.raises(InvariantViolation, match="share a triple mask"):
        twice.edges


def test_rank_is_the_212_count_s5_s6(s5, s6):
    for w in s5 + s6:
        g = build_graph(w)
        rank = build_poset(g).rank
        assert all(rank[c.id] == count_212(c.canonical) for c in g.vertices), w
