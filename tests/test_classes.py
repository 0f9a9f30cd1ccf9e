import gc
import inspect
import pickle
import random
import types
import weakref
from collections import Counter
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oracles import (
    canonical_words_dfs, classes_bfs, commutation_class_bfs, count_212, graph_as_scan,
    local_rule_sets,
    order_by_covers, triple_set, word_walk_scan, _triple_masks,
)
from redweave import (
    BudgetExceeded, InputError, InvariantViolation, bounds, classes, structure, subnet, suite,
    words,
)
from redweave.bounds import aggregate_bound_check, size_bounds
from redweave.classes import build_graph, build_poset, class_members, graph_checks
from redweave.perm import _triples321, enumerate_sn, identity, inverse, longest_element
from redweave.subnet import WARRINGTON_X, count_x_avoiding_words
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


def test_class_members_match_the_bfs_on_every_short_word():
    # every word over letters 1..5 of length at most 6, non-reduced ones too
    words_ = [ls for k in range(7) for ls in product(range(1, 6), repeat=k)]
    assert len(words_) == 19531
    assert [ls for ls in words_ if class_members(ls) != commutation_class_bfs(ls)] == []


def test_class_members_match_the_bfs_on_every_class_to_s6(s6_graphs):
    graphs = [build_graph(w) for n in range(1, 6) for w in enumerate_sn(n)]
    for g in [*graphs, *s6_graphs.values()]:
        assert all(class_members(c) == commutation_class_bfs(c) for c in g._canonical), g.w


@pytest.mark.parametrize("letters", [(0,), (2, -1, 3)])
def test_class_members_refuse_a_letter_below_1(letters):
    with pytest.raises(InputError, match="below 1"):
        class_members(letters)


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
    # each call counts the words and gives its own verdict
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
    assert again is not g  # built afresh: no call shares a graph
    assert graph_as_scan(again) == graph_as_scan(g)
    assert len(again) == 3 and len(again.edges) == 2


def test_a_dropped_graph_is_collected():
    # nothing keeps a G(w) alive once its caller drops it
    g = build_graph(longest_element(5))
    ref = weakref.ref(g)
    assert len(g.edges) > 0
    del g
    gc.collect()
    assert ref() is None


def test_graph_and_y_fill_each_memo_once_per_state(counted_dags, monkeypatch):
    # G(w) and its Y share one DAG: each state below w0 of S_5 lands once in
    # each memo (in the Y memo, once per key), not once per walk; and Y,
    # which reads a state once per key, computes its children once
    g, read, real = build_graph(longest_element(5)), Counter(), words.kids

    def counted(q):
        read[q] += 1
        return real(q)

    monkeypatch.setattr(words, "kids", counted)
    assert g.max_windows == 3
    [dag] = counted_dags
    states = {inverse(w) for w in enumerate_sn(5)}
    assert dag.once(states)
    assert set(read) == states and max(read.values()) == 1


def test_a_graph_keeps_only_the_y_memo(counted_dags):
    # the live-run memo dies with build_graph; Y's rides along
    g = build_graph(longest_element(5))
    [dag] = counted_dags
    seen, todo = set(), [g]
    while todo:  # the ids of every object reachable from g, but for code and types
        x = todo.pop()
        if id(x) not in seen and not isinstance(x, (type, types.ModuleType, types.FunctionType)):
            seen.add(id(x))
            todo += gc.get_referents(x)
    assert id(dag.best) in seen
    assert id(dag.live) not in seen
    assert len(dag.live) == 120


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


def test_scan_matches_word_walk_s5_s6(s5, s6_graphs):
    # every field of G(w) against the word-by-word sweep, and the bare
    # mask-flip pairs the checks read against the labelled edges: the same
    # (u, v), bit j is the triple that the label names, and u has it unset
    for g in [*map(build_graph, s5), *s6_graphs.values()]:
        assert graph_as_scan(g) == word_walk_scan(g.w), g.w
        labelled = [(e.u, e.v, t) for e in g.edges for _, t in e.labels]
        assert [(u, v, g._triples[j]) for u, v, j in g._pairs] == labelled, g.w
        assert all(g._masks[v] == g._masks[u] | 1 << j > g._masks[u] for u, v, j in g._pairs), g.w


def test_canonical_words_match_the_dfs_oracle(s5, s6):
    # compared by pickling, so the order and the types count too
    for w in [w for n in range(1, 5) for w in enumerate_sn(n)] + s5 + s6 + [longest_element(7)]:
        got = pickle.dumps(list(words._canonical_words(w, {}, ())[0]))
        assert got == pickle.dumps(canonical_words_dfs(w)), w


@pytest.mark.slow
def test_canonical_words_match_the_dfs_oracle_s7():
    for w in enumerate_sn(7):
        got = pickle.dumps(list(words._canonical_words(w, {}, ())[0]))
        assert got == pickle.dumps(canonical_words_dfs(w)), w


def test_class_count_of_w0_is_a006245():
    # Knuth's count of commutation classes of w0 (Axioms and Hulls), OEIS A006245
    counts = [words._class_count(longest_element(n), {}) for n in range(1, 9)]
    assert counts == [1, 1, 2, 8, 62, 908, 24698, 1232944]


@pytest.mark.slow
def test_class_count_of_w0_9():
    assert words._class_count(longest_element(9), {}) == 112_018_190


def test_class_count_is_the_number_of_classes_s4_s6(s5, s6_graphs, credited_sizes):
    # |G(w)| by its two routes: the live-run fold on one memo for all of S_n,
    # as aggregate reads it, and scan_sn's sizes, each credited to a whole
    # orbit off its least w's graph; both against the classes of each G(w)
    for n, perms in (4, list(enumerate_sn(4))), (5, s5), (6, list(s6_graphs)):
        sizes = {w: len(s6_graphs[w] if n == 6 else build_graph(w)) for w in perms}
        live: dict = {}
        assert {w: words._class_count(w, live) for w in perms} == sizes, n
        assert suite.scan_sn(n, threads=1) == []
        assert credited_sizes.pop() == sizes, n


def _past_s9(seed: int, size: int) -> list[tuple[int, ...]]:
    """A seeded sample of w in S_10..S_14 of length at most 12 with at most
    3,000 reduced words: each swaps a random ascent of the identity, then
    of what it has made, once for each unit of length."""
    rng, out = random.Random(seed), []
    while len(out) < size:
        n = rng.randint(10, 14)
        seq = list(range(1, n + 1))
        for _ in range(rng.randint(1, 12)):
            i = rng.choice([i for i in range(n - 1) if seq[i] < seq[i + 1]])
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
        if count_reduced_words(w := tuple(seq)) <= 3000:
            out.append(w)
    return out


def test_engine_matches_the_oracles_past_s9():
    # letters reach two digits: the word walk, the canonical-word DFS and
    # the live-run count on w that no S_n sweep reaches
    sample = _past_s9(10, 150)
    assert sum(1 for w in sample if max(w[:10]) > 10) >= 40  # a word of w has letter 10
    for w in sample:
        g = build_graph(w)
        assert graph_as_scan(g) == word_walk_scan(w), w
        assert list(g._canonical) == canonical_words_dfs(w), w
        assert words._class_count(w, {}) == len(g), w


@pytest.fixture
def layer_calls(monkeypatch):
    """Calls of each layer G(w) computes on first read."""
    calls = Counter()
    for name in ("_class_size", "_most_windows"):
        def counted(*args, _name=name, _real=getattr(classes, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(classes, name, counted)
    return calls


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


def test_suite_reads_no_sizes_and_each_layer_once(monkeypatch, layer_calls, s5):
    walks = []
    real = classes._canonical_words
    monkeypatch.setattr(classes, "_canonical_words",
                        lambda *args: walks.append(args) or real(*args))
    for w in s5:
        assert suite.check_permutation(build_graph(w)) == []
    assert layer_calls["_class_size"] == 0
    assert layer_calls["_most_windows"] == len(s5)
    assert len(walks) == len(s5)  # one walk over each graph's classes, the masks along it


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


def test_poset_refuses_an_edge_between_index_sums_two_apart(monkeypatch):
    # classes 0 and 3 of G(4321) have index sums 10 and 12
    g = build_graph((4, 3, 2, 1))
    monkeypatch.setattr(g, "_pairs", g._pairs + ((0, 3, 0),))
    with pytest.raises(InvariantViolation) as refused:
        build_poset(g)
    assert str(refused.value) == "edge 0-3 of G((4, 3, 2, 1)) joins index sums 10 and 12"


def test_poset_refuses_a_cover_that_drops_two_ranks(monkeypatch):
    # the pair of G(321) is read, then its upper class's mask gains a bit
    g = build_graph((3, 2, 1))
    assert g._pairs == ((0, 1, 0),) and g._masks == (0, 1)
    monkeypatch.setattr(g, "_masks", (0, 0b11))
    with pytest.raises(InvariantViolation) as refused:
        build_poset(g)
    assert str(refused.value) == "cover 1->0 of P((3, 2, 1)) drops the 212-count by 2, not 1"


def test_poset_refuses_ranks_short_of_n321(monkeypatch):
    monkeypatch.setattr(classes.ClassGraph, "n321", property(lambda g: len(g._triples) + 1))
    with pytest.raises(InvariantViolation) as refused:
        build_poset(build_graph((3, 2, 1)))
    assert str(refused.value) == "ranks of P((3, 2, 1)) are [0, 1], expected 0..2"


@pytest.mark.parametrize("letters", [(2, 2), (4,)])
def test_a_word_that_is_no_canonical_word_has_no_class(letters):
    # (2, 2) sorts between the canonical words of G(4321), (4,) after them all
    g = build_graph((4, 3, 2, 1))
    with pytest.raises(KeyError):
        g.class_by_canonical(letters)


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


def _walk_mismatches(perms) -> list:
    """The w whose masks from the walk of the live runs differ from the
    replay of each canonical word's crossings."""
    out = []
    for w in perms:
        canonical, masks = words._canonical_words(w, {}, _triples321(w))
        if list(masks) != _triple_masks(_triples321(w), len(w), canonical):
            out.append(w)
    return out


def test_masks_along_the_walk_match_the_replay(s5, s6):
    # every w of S_4-S_6, and a seeded sample of S_7
    assert _walk_mismatches([*enumerate_sn(4), *s5, *s6]) == []
    assert _walk_mismatches(random.Random(37).sample(list(enumerate_sn(7)), 150)) == []


@pytest.mark.slow
def test_masks_along_the_walk_match_the_replay_on_w0_7():
    assert _walk_mismatches([longest_element(7)]) == []


def test_poset_order_is_mask_inclusion_s4_s6(s5, s6):
    # P(w)'s order, the closure of its covers, is inclusion of triple masks
    # (Felsner-Weil for B(n, 2), here on every w)
    for w in [*enumerate_sn(4), *s5, *s6]:
        g = build_graph(w)
        below = order_by_covers(classes.build_poset(g).covers, len(g))
        masks = g._masks
        assert below == [sum(1 << v for v, m in enumerate(masks) if m & ~top == 0)
                         for top in masks], w


@pytest.mark.slow
def test_local_rule_and_mask_order_on_a_sample_of_s7():
    # a seeded fifth of S_7, w0_7 left out, through the two tests above
    perms = [w for w in enumerate_sn(7) if w != longest_element(7)]
    sample = sorted(random.Random(32).sample(perms, 1000))
    test_local_rule_sets_are_the_classes_s5_s6(sample, [])
    test_poset_order_is_mask_inclusion_s4_s6(sample, [])


# Each mutant below must fail an oracle comparison above: the differential
# tests would let a wrong engine through otherwise.

def test_an_inverted_triple_order_fails_the_local_rule(monkeypatch, s5):
    # triple 0's bit is set when (a, b) crosses before (b, c), not after
    real = classes._canonical_words

    def inverted(w, live, triples):
        canonical, masks = real(w, live, triples)
        return canonical, [m ^ (1 if triples else 0) for m in masks]

    monkeypatch.setattr(classes, "_canonical_words", inverted)
    with pytest.raises(AssertionError):
        test_local_rule_sets_are_the_classes_s5_s6(s5, [])


def test_a_dropped_pair_fails_the_word_walk_and_mask_inclusion(monkeypatch, s5):
    real = classes.ClassGraph._pairs.func
    monkeypatch.setattr(classes.ClassGraph, "_pairs", property(lambda g: real(g)[1:]))
    with pytest.raises(AssertionError):
        test_scan_matches_word_walk_s5_s6(s5, {})
    with pytest.raises(AssertionError):
        test_poset_order_is_mask_inclusion_s4_s6(s5, [])


def test_a_reversed_cover_fails_mask_inclusion(monkeypatch, s5):
    real = classes.build_poset

    def reversed_first(g):
        poset = real(g)
        return poset._replace(covers=tuple(c[::-1] for c in poset.covers[:1]) + poset.covers[1:])

    monkeypatch.setattr(classes, "build_poset", reversed_first)
    with pytest.raises(AssertionError):
        test_poset_order_is_mask_inclusion_s4_s6(s5, [])


def test_two_classes_with_one_mask_are_refused():
    # a mask fixes its class, so a repeated canonical word cannot pass as two
    twice = build_graph((3, 4, 2, 1))
    twice._canonical, twice._masks = twice._canonical[:1] * 2, twice._masks[:1] * 2
    with pytest.raises(InvariantViolation, match="share a triple mask"):
        twice.edges


@pytest.mark.parametrize("w", [longest_element(5), (3, 2, 6, 5, 1, 4), (4, 2, 3, 1), identity(4)])
def test_checks_make_no_class_records(w):
    # the checks and the class-wise subnetwork counts read the canonical
    # words by position: g.vertices stays unmade
    g = build_graph(w)
    friendly = lambda g: subnet.predicted_count_friendly(g, Word(g._canonical[0], g.n), (3, 2, 1))
    for check in (suite.check_permutation, structure.rectangle_label,
                  lambda g: list(structure._edge_pair_verdicts(g)), structure.embed_hypercube,
                  lambda g: subnet.count_x_avoiding_classes(g, WARRINGTON_X),
                  lambda g: count_x_avoiding_words(g, WARRINGTON_X), friendly):
        check(g)
        assert "vertices" not in vars(g), check


def test_class_records_match_the_dfs_oracle(s5, s6):
    for w in [w for n in range(1, 5) for w in enumerate_sn(n)] + s5 + s6:
        g = build_graph(w)
        want = [classes.CommClass(i, Word(c, len(w))) for i, c in enumerate(canonical_words_dfs(w))]
        assert [g.class_by_canonical(c.canonical.letters) for c in want] == want, w
        assert "vertices" not in vars(g) and len(g) == len(want), w
        assert g.vertices == tuple(want), w


def test_rank_is_the_212_count_s5_s6(s5, s6):
    for w in s5 + s6:
        g = build_graph(w)
        rank = build_poset(g).rank
        assert all(rank[c.id] == count_212(c.canonical) for c in g.vertices), w
