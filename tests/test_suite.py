import gc
import multiprocessing
import weakref
from collections import Counter
from itertools import combinations

import pytest

from oracles import global_dags, graph_as_scan
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
    for mod in (classes, subnet):  # bounds and suite do not import it
        monkeypatch.setattr(mod, "build_graph", no_build)
    for mod in (classes, suite):
        monkeypatch.setattr(mod, "build_poset", counted)
    assert suite.check_permutation(g) == []
    assert posets == [g]


def test_check_permutation_scans_for_321_once(monkeypatch):
    # N321 and the freely-braided test read the graph's 321-triples, found
    # once; the rectangularity and 4321-avoidance tests read one pattern
    # witness, which lists the patterns of w of each size once (4321 is
    # avoided here, so sizes 4 and 5); no generic pattern scan runs
    calls = Counter()

    def counting(key, real):
        def counted(*args):
            calls[key(*args)] += 1
            return real(*args)
        return counted

    triples = counting(lambda w: "321-triples", perm._triples321)
    for mod in (classes, structure):
        monkeypatch.setattr(mod, "_triples321", triples)
    monkeypatch.setattr(structure, "_patterns", counting(lambda w, k: k, structure._patterns))
    scans = counting(lambda w, p: p, perm.pattern_occurrences)
    for mod in (perm, classes, structure, bounds, suite):
        monkeypatch.setattr(mod, "pattern_occurrences", scans, raising=False)
    g = classes.build_graph((3, 2, 6, 5, 1, 4))
    assert suite.check_permutation(g) == []
    assert calls == {"321-triples": 1, 4: 1, 5: 1}


def test_bound_checks_use_size_bounds(monkeypatch):
    w = (3, 4, 2, 1)  # 3 classes
    g = classes.build_graph(w)
    wrong = suite.size_bounds(g)._replace(lower=4, upper=3)
    monkeypatch.setattr(suite, "size_bounds", lambda g: wrong)
    assert suite.check_permutation(g) == [
        f"lower bound fails for {w}",
        f"upper bound fails for {w}",
    ]


def test_grid_octagons_pass_the_eight_cycle_check():
    # G(436512) is a 3x3 grid: 4321-avoiding, yet its rim is an induced 8-cycle
    w = (4, 3, 6, 5, 1, 2)
    assert perm.avoids(w, (4, 3, 2, 1))
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
    dag = words._SweepTables()
    for w in perms:
        assert graph_as_scan(classes._scan_impl(w, 10**8, dag)) == fresh[w], w
        assert words._word_count(w, dag.words) == fresh[w]["word_count"], w


@pytest.mark.parametrize("suite_reads", [True, False])
def test_layers_read_after_a_sweep_are_right(monkeypatch, s5, suite_reads):
    # a sweep builds G(w) on its DAG and counts no class size; the suite
    # reads the bare mask-flip pairs, never the labelled edges, and unless
    # it ran then, Y is first read once the sweep is over
    if not suite_reads:
        monkeypatch.setattr(suite, "check_permutation", lambda g: [])
    assert suite.scan_sn(5, threads=1) == []

    def kept(g):
        suite.check_permutation(g)
        return g

    sized = []
    real = classes._class_size
    monkeypatch.setattr(classes, "_class_size", lambda *args: sized.append(args) or real(*args))
    graphs = classes._sweep(s5, kept, 10**8)
    assert sized == []
    unread = {"edges", "_y"} if not suite_reads else {"edges"}
    for g in graphs.values():
        assert unread.isdisjoint(vars(g)), g.w
        assert graph_as_scan(g) == graph_as_scan(classes.build_graph(g.w)), g.w


def test_no_tables_outlive_a_sweep():
    # before, during and after a sweep, and around a refused one
    assert global_dags() == []
    during = classes._sweep(enumerate_sn(3), lambda g: global_dags(), 10**8)
    assert list(during.values()) == [[]] * 6
    assert global_dags() == []
    with pytest.raises(BudgetExceeded):
        suite.scan_sn(4, budget=2, threads=1)
    assert global_dags() == []
    classes.build_graph(longest_element(5)).max_windows
    assert global_dags() == []


def test_scan_leaves_no_cyclic_garbage():
    # every object a sweep makes is freed by reference counting alone
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert suite.scan_sn(5) == []
        gc.collect()
        assert len(gc.garbage) == 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_pool_job_caches_no_graph(s5):
    # the one sweep job, serial or pooled, reads each G(w) once, keeps none
    # alive once checked, and returns two numbers for the aggregate bound
    refs = []

    def job(g):
        refs.append(weakref.ref(g))
        return suite._check_and_tally(g)

    jobs = classes._sweep(s5, job, 10**8)
    gc.collect()
    assert len(refs) == len(s5) and all(ref() is None for ref in refs)
    graphs = [classes.build_graph(w) for w in s5]
    assert [jobs[g.w] for g in graphs] == [
        (suite.check_permutation(g), bounds._tally(g)) for g in graphs
    ]
    assert all(isinstance(size, int) and ok is True for _, (size, ok) in jobs.values())


def test_sweep_reports_in_lexicographic_order(monkeypatch):
    # jobs run longest first, but the report follows enumerate_sn
    monkeypatch.setattr(suite, "check_permutation", lambda g: [str(g.w)])
    assert suite.scan_sn(4, threads=1) == [str(w) for w in enumerate_sn(4)]


def test_pool_sweep_matches_serial():
    assert suite.scan_sn(5, threads=2) == suite.scan_sn(5, threads=1)


def test_sweep_expands_each_guard_state_once(counted_dags):
    # one DAG serves the guard, the canonical words and Y: each memo of the
    # sweep's DAG gets each state of S_5 once, not once per walk or per w
    assert suite.scan_sn(5, threads=1) == []
    [dag] = counted_dags
    assert dag.once({inverse(w) for w in enumerate_sn(5)})


class FakePool:
    """A stand-in for ``multiprocessing.Pool`` that records its size and runs
    its jobs here, in this process, so no test starts a worker."""

    sizes: list[int] = []
    chunks: list[tuple[list, int]] = []  # (the tasks, the chunksize) per imap

    def __init__(self, processes, initializer):
        self.sizes.append(processes)
        initializer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        classes._pool_dag = None  # a worker's DAG ends with the worker

    def imap(self, func, iterable, chunksize=1):
        iterable = list(iterable)
        self.chunks.append((iterable, chunksize))
        return map(func, iterable)


@pytest.mark.parametrize("n, threads, started", [
    (3, 8, [6]), (3, 2, [2]), (4, 24, [24]), (2, 2, [2]), (1, 8, []), (3, 1, []),
])
def test_sweep_starts_no_idle_worker(monkeypatch, n, threads, started):
    # a pool has no more workers than permutations, and one would run alone
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    assert suite.scan_sn(n, threads=threads) == suite.scan_sn(n, threads=1)
    assert FakePool.sizes == started
    assert global_dags() == []


def test_sweep_sends_about_16_tasks_a_worker(monkeypatch):
    # a task is a run of w, heaviest first, so each of the 2 workers gets
    # about 16 and the first holds the heaviest w
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(FakePool, "chunks", [])
    assert suite.scan_sn(6, threads=2) == suite.scan_sn(6, threads=1)
    [(order, chunk)] = FakePool.chunks
    assert order == sorted(enumerate_sn(6), key=lambda w: (-inversions(w), w))
    assert 2 <= -(-len(order) // chunk) <= 16 * 2 + 1
