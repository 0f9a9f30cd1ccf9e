import gc
import random
import multiprocessing
import weakref
from collections import Counter
from itertools import combinations
from math import inf

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
        structure, "classify_edge_pair", lambda *args: structure.CycleVerdict.EIGHT_CYCLE
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


@pytest.mark.parametrize("w", [(3, 2, 1), (4, 3, 2, 1), (4, 3, 6, 5, 1, 2)])
def test_a_class_with_no_up_move_but_the_top_is_disconnected(w):
    # the pairs with every up-move of the bottom class (mask 0) dropped leave
    # it no edge at all: connectivity read off the up-moves must see that
    g = classes.build_graph(w)
    bottom = g._ids[0]
    g._pairs = tuple(p for p in g._pairs if p[0] != bottom)
    assert all(bottom not in p[:2] for p in g._pairs)
    assert not classes.graph_checks(g).connected
    assert f"G({w}) is not connected" in suite.check_permutation(g)


@pytest.mark.parametrize("heaviest_first", [True, False])
def test_sweep_tables_give_the_fresh_scans(s5, s6_graphs, heaviest_first):
    # s6_graphs and the S_5 graphs below are built with no tables installed
    fresh = {w: graph_as_scan(classes.build_graph(w)) for w in s5}
    fresh.update((w, graph_as_scan(g)) for w, g in s6_graphs.items())
    perms = list(fresh)
    if heaviest_first:
        perms.sort(key=lambda w: (-inversions(w), w))
    dag, counts = words._SweepTables(), {}
    for w in perms:
        assert graph_as_scan(classes._scan_impl(w, dag)) == fresh[w], w
        assert words._within_budget(w, inf, counts) == fresh[w]["word_count"], w


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


def _check_and_tally(g):
    """The per-w job, the oracle of ``scan_sn``'s: the violations and
    ``_tally`` of G(w), every w checked."""
    return suite.check_permutation(g), bounds._tally(g)


def test_pool_job_caches_no_graph(s5):
    # the one sweep job, serial or pooled, reads each G(w) once, keeps none
    # alive once checked, and returns what the per-w job finds, keyed by w,
    # and two numbers for the aggregate bound
    refs = []

    def job(g):
        refs.append(weakref.ref(g))
        return suite._check_orbit_and_tally(g)

    jobs = classes._sweep(s5, job, 10**8)
    gc.collect()
    assert len(refs) == len(s5) and all(ref() is None for ref in refs)
    for g in map(classes.build_graph, s5):
        found, tally = _check_and_tally(g)
        assert jobs[g.w] == ({g.w: found} if found else {}, tally), g.w
    assert all(isinstance(size, int) and ok is True for _, (size, ok) in jobs.values())


def test_sweep_reports_in_lexicographic_order(monkeypatch):
    # jobs run longest first, but the report follows enumerate_sn
    monkeypatch.setattr(suite, "check_permutation", lambda g: [str(g.w)])
    assert suite.scan_sn(4, threads=1) == [str(w) for w in enumerate_sn(4)]


def test_pool_sweep_matches_serial():
    assert suite.scan_sn(5, threads=2) == suite.scan_sn(5, threads=1)


def test_sweep_expands_each_guard_state_once(counted_dags, counted_guards):
    # the budget guard reads one word-count memo, in this process, and one
    # DAG serves the canonical words and Y: each memo gets each state of S_5
    # once, not once per walk or per w
    assert suite.scan_sn(5, threads=1) == []
    [dag] = counted_dags
    [(_, guard)] = counted_guards.values()
    states = {inverse(w) for w in enumerate_sn(5)}
    assert dag.once(states)
    assert set(guard.filled) == states and max(guard.filled.values()) == 1


class FakePool:
    """A stand-in for ``multiprocessing.Pool`` that records its size and the
    shares it maps, and runs them here, in this process, so no test starts a
    worker."""

    sizes: list[int] = []
    shares: list[list] = []  # the shares of each map

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, func, iterable):
        self.shares.append(list(iterable))
        return list(map(func, self.shares[-1]))


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


def test_sweep_deals_each_worker_heavy_and_light_w(monkeypatch):
    # one share a worker, dealt back and forth down the heaviest-first order:
    # each w lands in one share, each share keeps that order, the shares
    # differ in size by at most one w, each starts on one of the heaviest
    # (not on a block of its own), and the first holds w0
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    for n, threads in [(3, 2), (4, 3), (5, 7), (6, 2), (6, 5)]:
        monkeypatch.setattr(FakePool, "shares", [])
        assert suite.scan_sn(n, threads=threads) == suite.scan_sn(n, threads=1)
        [shares] = FakePool.shares
        order = sorted(enumerate_sn(n), key=lambda w: (-inversions(w), w))
        assert len(shares) == threads
        assert sorted(w for share in shares for w in share) == sorted(order)
        assert all(share == sorted(share, key=order.index) for share in shares)
        assert max(map(len, shares)) - min(map(len, shares)) <= 1
        assert [share[0] for share in shares] == order[:threads]
        assert shares[0][0] == longest_element(n)


def test_pooled_sweep_is_refused_here_before_any_graph_or_pool(monkeypatch):
    # every w is checked against the budget in this process, heaviest first,
    # so a pooled sweep is refused as a serial one is, with no pool started
    def no_build(*args):
        raise AssertionError("G(w) built before the budget check")

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(classes, "_scan_impl", no_build)
    refusals = []
    for threads in (1, 2):
        with pytest.raises(BudgetExceeded) as refused:
            suite.scan_sn(4, budget=2, threads=threads)
        refusals.append(str(refused.value))
    # 4321 goes first, and its first state with more than 2 words has 3
    assert refusals == ["at least 3 reduced words exceed the budget of 2"] * 2
    assert FakePool.sizes == []


def _per_w(n, budget=10**8, threads=1):
    """The per-w oracle sweep: ``_check_and_tally`` on every w, reported as
    ``scan_sn`` reports, and its tallies."""
    perms = list(enumerate_sn(n))
    by_perm = classes._sweep(perms, _check_and_tally, budget, threads)
    tallies = {w: tally for w, (_, tally) in by_perm.items()}
    out = [v for w in perms for v in by_perm[w][0]]
    out += [f"aggregate bound fails for n={n}, l={rep.l}: {rep}"
            for rep in bounds.aggregate_reports(n, tallies) if not rep.ok]
    return out, tallies


def _outcomes(g):
    """What each check of ``check_permutation`` reads, in a form that G(w)'s
    isomorphisms to G(w^-1) and G(w0 w w0) keep: ids, index sums and ranks
    do not appear."""
    w = g.w
    rep = classes.graph_checks(g)
    try:
        poset = len(classes.build_poset(g).covers)
    except InvariantViolation as exc:
        poset = str(exc).replace(str(w), "w")
    try:
        cube = structure.embed_hypercube(g).dimension >= (g.max_windows + 1) // 2
    except InvariantViolation:
        cube = False
    label = structure.rectangle_label(g)
    witness = structure.rectangular_witness(w)
    degrees = Counter(x for u, v, _ in g._pairs for x in (u, v))
    eights = None
    if witness != (4, 3, 2, 1):
        verdicts = list(structure._edge_pair_verdicts(g))
        eights = (Counter(verdict for *_, verdict in verdicts),
                  sum(1 for v, a, b, verdict in verdicts
                      if verdict is structure.CycleVerdict.EIGHT_CYCLE
                      and not suite._on_six_cycle(g, v, a, b)))
    return (rep, poset, tuple(bounds.size_bounds(g)[1:]), len(g), inversions(w), cube,
            structure._disjoint(g._triples), witness is None,
            None if label is None else sorted(label.dims),
            sorted(Counter(degrees.values()).items()), len(g._pairs), eights)


def _s7_sample():
    # a seeded sample of S_7, w0_7 among it, closed under the orbits
    sample = random.Random(29).sample(list(enumerate_sn(7)), 60) + [longest_element(7)]
    return sorted({x for w in sample for x in perm._orbit(w)})


@pytest.mark.parametrize("n", [5, 6, 7])
def test_each_check_is_constant_on_every_orbit(n):
    perms = list(enumerate_sn(n)) if n < 7 else _s7_sample()
    outcomes = classes._sweep(perms, _outcomes, 10**12)
    for w in perms:
        assert outcomes[min(perm._orbit(w))] == outcomes[w], w


def _class_map(g, h, image):
    """Class ids of G(w) -> class ids of G(w') along a map of reduced words."""
    return [h.class_by_canonical(words.canonical_letters(image(c))).id for c in g._canonical]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbit_maps_carry_classes_index_sums_and_ranks(n):
    # reversal keeps a class's index sum s and 212-rank r; the letter map
    # i -> n - i sends them to n l(w) - s and N321 - r, so every cover of
    # P(w) flips on both counts; both maps are isomorphisms of G(w)
    graphs = classes._sweep(enumerate_sn(n), lambda g: g, 10**8)
    for w, g in graphs.items():
        l = inversions(w)
        _, inv, flip, _ = perm._orbit(w)
        maps = [(graphs[inv], lambda c: c[::-1], lambda s, r: (s, r)),
                (graphs[flip], lambda c: tuple(n - x for x in c),
                 lambda s, r: (n * l - s, g.n321 - r))]
        for h, image, carry in maps:
            to = _class_map(g, h, image)
            assert sorted(to) == list(range(len(h))), w
            for u, c in enumerate(g._canonical):
                got = sum(h._canonical[to[u]]), h._masks[to[u]].bit_count()
                assert got == carry(sum(c), g._masks[u].bit_count()), (w, c)
            pairs = {frozenset((to[u], to[v])) for u, v, _ in g._pairs}
            assert pairs == {frozenset((u, v)) for u, v, _ in h._pairs}, w


def test_scan_checks_one_w_per_orbit(monkeypatch):
    checked = []
    real = suite.check_permutation
    monkeypatch.setattr(suite, "check_permutation", lambda g: checked.append(g.w) or real(g))
    assert suite.scan_sn(6, threads=1) == []
    assert sorted(checked) == sorted({min(perm._orbit(w)) for w in enumerate_sn(6)})
    assert len(checked) == 230


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fails", [
    lambda g: min(perm._orbit(g.w)) == (2, 4, 5, 1, 3),  # one orbit of four
    lambda g: len(g) == 3 and inversions(g.w) == 6,  # three orbits, by isomorphism invariants
])
def test_a_failing_orbit_is_checked_per_w(monkeypatch, threads, fails):
    # a check patched to fail on whole orbits: scan_sn reports what the
    # per-w sweep reports, each member of a failing orbit once, in order;
    # the members are checked again inside the job of the orbit's least w,
    # so one pool serves the whole sweep
    def cube(g):
        if fails(g):
            raise InvariantViolation(f"no cube in G({g.w})")

    monkeypatch.setattr(suite, "embed_hypercube", cube)
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    want, _ = _per_w(5)
    failing = [w for w, g in classes._sweep(enumerate_sn(5), lambda g: g, 10**8).items()
               if fails(g)]
    assert want == [f"no cube in G({w})" for w in sorted(failing)]
    assert len(failing) >= 4
    assert suite.scan_sn(5, threads=threads) == want
    assert FakePool.sizes == ([threads] if threads > 1 else [])


@pytest.mark.slow
def test_orbit_sweep_matches_the_per_w_sweep_s7():
    want, tallies = _per_w(7, 10**12, threads=2)
    swept = classes._sweep(enumerate_sn(7), suite._check_orbit_and_tally, 10**12, threads=2)
    assert {w: tally for w, (_, tally) in swept.items()} == tallies
    assert suite.scan_sn(7, 10**12, threads=2) == want
