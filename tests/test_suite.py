import dataclasses
from collections import Counter
from itertools import combinations

import pytest

from oracles import graph_as_scan
from redweave import (
    BudgetExceeded,
    InvariantViolation,
    bounds,
    classes,
    perm,
    structure,
    subnet,
    suite,
    words,
)
from redweave.perm import enumerate_sn, inverse, inversions, longest_element


@pytest.mark.parametrize("w", [(1, 2, 3), (3, 4, 2, 1), (4, 3, 2, 1), (3, 2, 6, 5, 1, 4)])
def test_check_permutation_builds_graph_and_poset_once(monkeypatch, w):
    # G(w) is built here, once; the suite reads only the graph it is given
    g = classes.build_graph(w)
    posets = []
    real = classes.build_poset

    def counted(g):
        posets.append(g)
        return real(g)

    def no_build(*args):
        raise AssertionError("G(w) built again")

    monkeypatch.setattr(classes, "_scan_impl", no_build)
    for mod in (classes, bounds, subnet, suite):
        monkeypatch.setattr(mod, "build_graph", no_build)
    for mod in (classes, suite):
        monkeypatch.setattr(mod, "build_poset", counted)
    assert suite.check_permutation(g) == []
    assert posets == [g]


def test_check_permutation_scans_for_321_once(monkeypatch):
    # N321 and the freely-braided test read the graph's 321-triples
    scans = Counter()
    real = perm.pattern_occurrences

    def counted(w, p):
        scans[p] += 1
        return real(w, p)

    for mod in (perm, classes, structure):
        monkeypatch.setattr(mod, "pattern_occurrences", counted)
    g = classes._scan_impl.__wrapped__((3, 2, 6, 5, 1, 4))
    assert suite.check_permutation(g) == []
    assert scans[(3, 2, 1)] == 1


def test_bound_checks_use_size_bounds(monkeypatch):
    w = (3, 4, 2, 1)  # 3 classes
    g = classes.build_graph(w)
    wrong = dataclasses.replace(suite.size_bounds(g), lower=4, upper=3)
    monkeypatch.setattr(suite, "size_bounds", lambda g: wrong)
    assert suite.check_permutation(g) == [
        f"lower bound fails for {w}",
        f"upper bound fails for {w}",
    ]


def test_grid_octagons_pass_the_eight_cycle_check():
    # G(436512) is a 3x3 grid: 4321-avoiding, yet its rim is an induced 8-cycle
    w = (4, 3, 6, 5, 1, 2)
    assert suite.avoids(w, (4, 3, 2, 1))
    g = classes.build_graph(w)
    verdicts = Counter(
        structure.classify_edge_pair(g, c.id, a, b)
        for c in g.vertices
        for a, b in combinations(sorted(g.neighbors(c.id)), 2)
    )
    assert verdicts[structure.CycleVerdict.EIGHT_CYCLE] == 4
    assert suite.check_permutation(g) == []


def test_eight_cycle_check_fires_on_an_overreport(monkeypatch):
    # 352641 avoids 4321 and has an edge pair 6 apart in G(w) - v, on no
    # induced cycle; a classifier calling it an 8-cycle must be caught
    g = classes.build_graph((3, 5, 2, 6, 4, 1))
    assert suite.check_permutation(g) == []
    monkeypatch.setattr(
        suite, "classify_edge_pair", lambda *args: structure.CycleVerdict.EIGHT_CYCLE
    )
    assert any("on no 6-cycle" in v for v in suite.check_permutation(g))


def test_failed_poset_leaves_no_grid_label(monkeypatch):
    def broken(g):
        raise InvariantViolation(f"poset of {g.w} broke")

    monkeypatch.setattr(suite, "build_poset", broken)
    assert suite.check_permutation(classes.build_graph((3, 2, 6, 5, 1, 4))) == [
        "poset of (3, 2, 6, 5, 1, 4) broke",
        "rectangularity pattern test and labeling disagree for (3, 2, 6, 5, 1, 4)",
    ]


@pytest.mark.parametrize("heaviest_first", [True, False])
def test_sweep_tables_give_the_fresh_scans(s5, s6_graphs, heaviest_first):
    # s6_graphs and the S_5 graphs below are built with no tables installed
    fresh = {w: graph_as_scan(classes.build_graph(w)) for w in s5}
    fresh.update((w, graph_as_scan(g)) for w, g in s6_graphs.items())
    perms = list(fresh)
    if heaviest_first:
        perms.sort(key=lambda w: (-inversions(w), w))
    classes._scan_impl.cache_clear()
    words._install_tables(words._SweepTables())
    try:
        for w in perms:
            assert graph_as_scan(classes._scan_impl(w)) == fresh[w], w
            assert words.count_reduced_words(w) == fresh[w]["word_count"], w
    finally:
        words._install_tables(None)
        classes._scan_impl.cache_clear()


@pytest.mark.parametrize("suite_reads", [True, False])
def test_layers_read_after_a_sweep_are_right(monkeypatch, s5, suite_reads):
    # the sweep builds G(w) with its tables installed; sizes (and, with the
    # suite stubbed out, edges and Y too) are first read once they are gone
    if not suite_reads:
        monkeypatch.setattr(suite, "check_permutation", lambda g: [])
    classes._scan_impl.cache_clear()
    assert suite.scan_sn(5, threads=1) == []
    assert words._tables is None
    misses = classes._scan_impl.cache_info().misses
    unread = {"edges", "_y"} if not suite_reads else set()
    for w in s5:
        g = classes._scan_impl(w)
        assert unread.isdisjoint(vars(g)) and "size" not in vars(g.vertices[0]), w
        assert graph_as_scan(g) == graph_as_scan(classes._scan_impl.__wrapped__(w)), w
    assert classes._scan_impl.cache_info().misses == misses  # each graph is the sweep's
    classes._scan_impl.cache_clear()


def test_no_tables_outlive_a_sweep():
    assert words._tables is None
    assert suite.scan_sn(3, threads=1) == []
    assert words._tables is None
    with pytest.raises(BudgetExceeded):
        suite.scan_sn(4, budget=2, threads=1)
    assert words._tables is None
    classes.build_graph(longest_element(5))
    assert words._tables is None


def test_pool_job_caches_no_graph(s5):
    # a pool worker reads each G(w) once, so it keeps none in the cache
    classes._scan_impl.cache_clear()
    jobs = [suite._worker((w, 10**8)) for w in s5]
    assert classes._scan_impl.cache_info().currsize == 0
    assert jobs == [suite._results(classes.build_graph(w)) for w in s5]
    classes._scan_impl.cache_clear()


def test_sweep_reports_in_lexicographic_order(monkeypatch):
    # jobs run longest first, but the report follows enumerate_sn
    monkeypatch.setattr(suite, "check_permutation", lambda g: [str(g.w)])
    assert suite.scan_sn(4, threads=1) == [str(w) for w in enumerate_sn(4)]


def test_pool_sweep_matches_serial():
    assert suite.scan_sn(5, threads=2) == suite.scan_sn(5, threads=1)


def test_sweep_expands_each_guard_state_once(monkeypatch):
    # one DAG serves the guard, the canonical words and Y: each memo of the
    # sweep's DAG gets each state of S_5 once, not once per walk or per w
    filled = {name: Counter() for name in ("_kids", "words", "live", "best")}

    def counting(name):
        class CountingDict(dict):
            def __setitem__(self, key, value):
                filled[name][key] += 1
                super().__setitem__(key, value)

        return CountingDict()

    class Counted(words._SweepTables):  # a fresh DAG per walk counts into the same tallies
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for name in filled:
                setattr(self, name, counting(name))

    for mod in (words, suite):
        monkeypatch.setattr(mod, "_SweepTables", Counted)
    classes._word_total.cache_clear()
    classes._scan_impl.cache_clear()
    assert suite.scan_sn(5, threads=1) == []
    states = {inverse(w) for w in enumerate_sn(5)}
    for name in ("_kids", "words", "live"):
        assert set(filled[name]) == states, name
        assert max(filled[name].values()) == 1, name
    assert {q for q, _, _ in filled["best"]} == states
    assert max(filled["best"].values()) == 1
