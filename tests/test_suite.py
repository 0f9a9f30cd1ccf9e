import gc
import multiprocessing
import pickle
import random
import weakref
from collections import Counter
from itertools import combinations
from math import inf

import pytest

from oracles import (
    global_dags, graph_as_scan, grid_labelling_ok, induced_cycle_lengths, within_four_off,
)
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

    monkeypatch.setattr(classes, "ClassGraph", no_build)
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


def test_a_pair_within_one_parity_is_not_bipartite(monkeypatch):
    # an extra pair joining classes 0 and 3 of G(4321), index sums 10 and 12
    w = (4, 3, 2, 1)
    g = classes.build_graph(w)
    assert [sum(c) for c in g._canonical[:4]] == [10, 11, 11, 12]
    monkeypatch.setattr(g, "_pairs", g._pairs + ((0, 3, 0),))
    assert classes.graph_checks(g) == classes.GraphReport(True, False)
    assert f"G({w}) is not bipartite by index-sum parity" in suite.check_permutation(g)


@pytest.mark.parametrize("field, message", [
    ("y", "freely braided (3, 2, 1) has 2 classes, expected 2^2"),
    ("n321", "G((3, 2, 1)) is a path with 2 != N321+1 = 3 vertices"),
])
def test_a_size_bound_off_by_one_fails_its_check(monkeypatch, field, message):
    # G(321) is a path of two classes, freely braided with Y = N321 = 1
    real = suite.size_bounds
    monkeypatch.setattr(suite, "size_bounds",
                        lambda g: real(g)._replace(**{field: getattr(real(g), field) + 1}))
    assert suite.check_permutation(classes.build_graph((3, 2, 1))) == [message]


def test_a_failing_aggregate_report_fails_the_scan(monkeypatch):
    rep = bounds.AggregateReport(3, 1, 2, 99, 3, 256, True)
    monkeypatch.setattr(suite, "aggregate_reports", lambda n, sizes: [rep])
    assert suite.scan_sn(3, threads=1) == [f"aggregate bound fails for n=3, l=1: {rep}"]


def _incident_pairs(graphs):
    """(G(w), v, a, b) for each vertex v of each graph and neighbours a < b of v."""
    return [(g, v, a, b) for g in graphs for v in range(len(g))
            for a, b in combinations(sorted(g.neighbors(v)), 2)]


def _six_cycle_mismatches(pairs):
    return [(g.w, v, a, b) for g, v, a, b in pairs
            if suite._on_six_cycle(g, v, a, b) != within_four_off(g, v, a, b)]


def test_six_cycle_probe_matches_the_bfs_s5_s6_and_s7_sample(s5, s6_graphs):
    pairs = _incident_pairs([*map(classes.build_graph, s5), *s6_graphs.values()])
    assert len(pairs) == 43964
    assert _six_cycle_mismatches(pairs) == []
    sample = classes._sweep(random.Random(35).sample(list(enumerate_sn(7)), 40), lambda g: g, 10**12)
    assert _six_cycle_mismatches(_incident_pairs(sample.values())) == []


@pytest.mark.slow
def test_six_cycle_probe_matches_the_bfs_w0_7():
    g = classes.build_graph(longest_element(7), 10**12)
    assert _six_cycle_mismatches(_incident_pairs([g])) == []


class _Cube:
    """A graph of bare masks, as G(w) is: the hypercube's subgraph induced on them."""

    def __init__(self, masks, n321):
        self._masks, self.n321 = tuple(masks), n321
        self._ids = {m: v for v, m in enumerate(masks)}

    def __len__(self):
        return len(self._masks)

    def neighbors(self, cid):
        m = self._masks[cid]
        return frozenset(self._ids[m ^ 1 << k] for k in range(self.n321) if m ^ 1 << k in self._ids)

    def has_edge(self, u, v):
        return (self._masks[u] ^ self._masks[v]).bit_count() == 1


def _walk_stub(order):
    """A ``_Cube`` of the masks that v = 0 passes by flipping i = 1, K = 4 and
    then the order, over i, j = 2, K and L = 8: a path from a = 1 to its last
    mask b = 2, which closes the one cycle through (v, a) and (v, b)."""
    bit = dict(zip("ijKL", (1, 2, 4, 8)))
    masks = [0]
    for c in "iK" + order:
        masks.append(masks[-1] ^ bit[c])
    return _Cube(masks, 4)


@pytest.mark.parametrize("far, found", [((0b111,), True), ((), False)])
def test_six_cycle_probe_takes_the_path_through_the_far_corner(far, found):
    # v = 000, a = 001, b = 010, with 101 and 110 but neither 011 nor 100:
    # with 111, the one path of 4 edges from a to b off v runs a ^ e_2,
    # v ^ e_0 ^ e_1 ^ e_2, b ^ e_2, which no pair of S_5, S_6 or S_7's sample needs
    g = _Cube([0b000, 0b001, 0b010, 0b101, 0b110, *far], 3)
    assert suite._on_six_cycle(g, 0, 1, 2) is within_four_off(g, 0, 1, 2) is found


@pytest.mark.parametrize("order", ["LijLK", "LijKL", "LjiKL", "jLiKL", "jLKiL", "LjiLK", "LjKiL"])
def test_each_octagon_order_closes_the_cycle_that_takes_it(order):
    # S_4 to S_6 and 300 seeded w of S_7 close octagons by the first three
    # orders alone; each order must close the one cycle of its own stub
    g = _walk_stub(order)
    assert len(g) == 8 and induced_cycle_lengths(g, 0, 1, 7) == {8}
    assert structure.classify_edge_pair(g, 0, 1, 7) is structure.CycleVerdict.EIGHT_CYCLE


def test_six_cycle_probe_takes_the_path_through_v_and_k():
    # v = 000, a = 001, b = 010 and the path a ^ e_2, v ^ e_2, b ^ e_2 alone:
    # the order ijK, where the far-corner stub takes jiK
    g = _walk_stub("ijK")
    assert [*g._masks] == [0b000, 0b001, 0b101, 0b100, 0b110, 0b010]
    assert suite._on_six_cycle(g, 0, 1, 5) is within_four_off(g, 0, 1, 5) is True


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
        assert graph_as_scan(classes.ClassGraph(w, dag)) == fresh[w], w
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


def _check_and_size(g):
    """The per-w job, the oracle of ``scan_sn``'s: the violations of G(w)
    and |G(w)|, every w checked."""
    return suite.check_permutation(g), len(g)


def test_pool_job_caches_no_graph(s5):
    # the one sweep job, serial or pooled, reads each G(w) once, keeps none
    # alive once checked, and returns what the per-w job finds, keyed by w,
    # and |G(w)| for the aggregate bound
    refs = []

    def job(g):
        refs.append(weakref.ref(g))
        return suite._check_orbit(g)

    reps = [w for w in s5 if w == min(perm._orbit(w))]
    jobs = classes._sweep(reps, job, 10**8)
    gc.collect()
    assert len(refs) == len(reps) and all(ref() is None for ref in refs)
    for g in map(classes.build_graph, reps):
        found, size = _check_and_size(g)
        assert jobs[g.w] == ({g.w: found} if found else {}, size), g.w


def test_sweep_reports_in_lexicographic_order(monkeypatch):
    # jobs run longest first, but the report follows enumerate_sn
    monkeypatch.setattr(suite, "check_permutation", lambda g: [str(g.w)])
    assert suite.scan_sn(4, threads=1) == [str(w) for w in enumerate_sn(4)]


def _record_workers(monkeypatch, method=None) -> list:
    """The real worker processes that sweeps start from now on, of the
    given start method (None: the default one), in order."""
    started = []

    def process(*args, **kwargs):
        started.append(proc := multiprocessing.get_context(method).Process(*args, **kwargs))
        return proc

    monkeypatch.setattr(multiprocessing, "Process", process)
    return started


@pytest.mark.usefixtures("light_shares")
def test_pool_sweep_matches_serial():
    assert suite.scan_sn(5, threads=2) == suite.scan_sn(5, threads=1)


@pytest.mark.usefixtures("light_shares")
@pytest.mark.parametrize("method", [m for m in ("spawn", "forkserver")
                                    if m in multiprocessing.get_all_start_methods()])
def test_pool_sweep_runs_in_workers_that_inherit_nothing(monkeypatch, method):
    # a spawned or forkserver worker imports redweave afresh and gets the
    # filled DAG, the job and its share by pickle
    want = suite.scan_sn(5)
    started = _record_workers(monkeypatch, method)
    assert suite.scan_sn(5, threads=2) == want
    assert len(started) == 1 and started[0].pid is not None


class FakeProcess:
    """A stand-in for ``multiprocessing.Process`` that records the share it
    is given and works it here, in this process, when started, so no test
    starts a worker.  Its results wait in the sweep's own pipe, which holds
    the few of a test, until the sweep reads them."""

    shares: list[list] = []  # the share of each worker started, in order
    stops: list[tuple[int, str]] = []  # (worker's place in shares, "terminate" or "join")

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.place = len(self.shares)
        self.shares.append(self.args[1])
        self.target(*self.args)

    def terminate(self):
        self.stops.append((self.place, "terminate"))

    def join(self):
        self.stops.append((self.place, "join"))


@pytest.fixture
def fake_workers(monkeypatch):
    """The shares of the workers that sweeps start from now on, each run by
    a ``FakeProcess``, in order; ``FakeProcess.stops`` records how they end."""
    monkeypatch.setattr(multiprocessing, "Process", FakeProcess)
    monkeypatch.setattr(FakeProcess, "shares", [])
    monkeypatch.setattr(FakeProcess, "stops", [])
    return FakeProcess.shares


def _started(workers: list) -> list[int]:
    """The processes that work the shares of a sweep, this one included:
    [] if this one works alone."""
    return [len(workers) + 1] if workers else []


@pytest.mark.usefixtures("light_shares")
def test_sweep_expands_each_guard_state_once(monkeypatch, counted_dags, counted_guards,
                                             fake_workers):
    # the budget guard reads one word-count memo, in this process, and one
    # DAG serves the canonical words and Y: each memo gets each state of S_5
    # once, not once per walk or per w; with any number of shares, this
    # process fills the live runs of every state before the first job of
    # any share, so no share expands one: each worker's (run first by
    # FakeProcess) and then share 0's, here
    ready = []
    real = classes._run
    monkeypatch.setattr(classes, "_run", lambda job, perms, dag: ready.append(set(dag.live)) or
                        real(job, perms, dag))
    states = {inverse(w) for w in enumerate_sn(5)}
    for threads in (1, 2, 3):
        for made in (counted_dags, counted_guards, ready, fake_workers):
            made.clear()
        assert suite.scan_sn(5, threads=threads) == []
        [dag] = counted_dags
        [(_, guard)] = counted_guards.values()
        assert dag.once(states)
        assert set(guard.filled) == states and max(guard.filled.values()) == 1
        assert ready == [states] * threads and len(fake_workers) == threads - 1


@pytest.mark.usefixtures("light_shares")
@pytest.mark.parametrize("n, threads, started", [
    (3, 8, [4]), (3, 2, [2]), (4, 24, [13]), (2, 2, [2]), (1, 8, []), (3, 1, []),
])
def test_sweep_starts_no_idle_worker(fake_workers, n, threads, started):
    # a sweep has no more processes than jobs, one per orbit (4 on S_3, 13
    # on S_4), and one would run alone
    assert suite.scan_sn(n, threads=threads) == suite.scan_sn(n, threads=1)
    assert _started(fake_workers) == started
    assert global_dags() == []


@pytest.mark.parametrize("threads", [2, 64])
def test_a_light_sweep_starts_no_worker(fake_workers, threads):
    # S_6's 230 orbit jobs hold 4,141 classes, less than one share pays for,
    # so its sweep runs here alone at any thread count
    assert suite.scan_sn(6, threads=threads) == []
    assert fake_workers == []


@pytest.mark.parametrize("share_classes", [1, 111, 112, 223, 224])
def test_a_sweep_starts_a_share_per_share_classes(monkeypatch, fake_workers, share_classes):
    # S_5's 45 orbit jobs hold 223 classes: at 3 threads, as many shares as
    # _SHARE_CLASSES fit in them, one at least and 3 at most
    reps, live = [w for w in enumerate_sn(5) if w == min(perm._orbit(w))], {}
    assert sum(words._class_count(w, live) for w in reps) == 223
    monkeypatch.setattr(classes, "_SHARE_CLASSES", share_classes)
    assert suite.scan_sn(5, threads=3) == []
    assert len(fake_workers) == max(1, min(3, 223 // share_classes)) - 1


@pytest.mark.slow
def test_a_heavy_sweep_starts_a_real_worker(monkeypatch):
    # S_7's 1,388 orbit jobs hold 135,611 classes, 8 shares' worth: at 2
    # threads one worker starts, with the real gate and start method
    started = _record_workers(monkeypatch)
    assert suite.scan_sn(7, 10**12, threads=2) == []
    assert len(started) == 1 and started[0].pid is not None


def _heaviest_first(n: int) -> tuple[list, dict]:
    """The least w of each orbit of S_n, in the order ``_sweep`` deals them
    (|G(w)| down, then longest first, then lexicographic), and each |G(w)|,
    counted as the canonical words of a serial sweep."""
    reps = [w for w in enumerate_sn(n) if w == min(perm._orbit(w))]
    weight = classes._sweep(reps, len, 10**8)
    return sorted(reps, key=lambda w: (-weight[w], -inversions(w), w)), weight


@pytest.mark.usefixtures("light_shares")
def test_sweep_deals_each_worker_heavy_and_light_w(monkeypatch, fake_workers):
    # one share a process, dealt heaviest first by |G(w)|, each w to the
    # least-loaded share, the lowest on ties (Graham's LPT rule): each w
    # lands in one share, share k starts on the k-th heaviest, the first,
    # which this process works once every worker has started, on w0, each
    # share goes down in weight, and the loads differ by at most the heaviest
    # w; a w is the least of its orbit, as scan_sn deals no other
    ran = []
    real = classes._run
    monkeypatch.setattr(classes, "_run", lambda job, perms, dag: ran.append(perms) or
                        real(job, perms, dag))
    for n, threads in [(3, 2), (4, 3), (5, 7), (6, 2), (6, 5)]:
        want = suite.scan_sn(n, threads=1)
        ran.clear()
        fake_workers.clear()
        assert suite.scan_sn(n, threads=threads) == want
        assert ran[:-1] == fake_workers
        shares = ran[-1:] + fake_workers
        order, weight = _heaviest_first(n)
        assert len(shares) == threads
        assert sorted(w for share in shares for w in share) == sorted(order)
        assert [share[0] for share in shares] == order[:threads]
        assert shares[0][0] == longest_element(n)
        assert all(weight[x] >= weight[y] for share in shares for x, y in zip(share, share[1:]))
        loads = [sum(weight[w] for w in share) for share in shares]
        assert max(loads) - min(loads) <= weight[order[0]]
        dealt = [0] * threads  # each w went to the least-loaded share, not round the table
        for w in order:
            k = next(k for k, share in enumerate(shares) if w in share)
            assert k == dealt.index(min(dealt)), w
            dealt[k] += weight[w]


@pytest.mark.usefixtures("light_shares")
def test_an_error_in_the_last_share_is_raised_here_and_stops_every_worker(monkeypatch,
                                                                         fake_workers):
    # a job that raises in the last worker's share: the sweep raises that
    # error, sent back over its pipe, once share 0 and the earlier worker's
    # results are read, and every worker is terminated and joined
    bad = _heaviest_first(5)[0][2]  # the third heaviest, the first of share 2 of 3
    real = suite.check_permutation

    def check(g):
        if g.w == bad:
            raise InvariantViolation(f"no cube in G({g.w})")
        return real(g)

    monkeypatch.setattr(suite, "check_permutation", check)
    with pytest.raises(InvariantViolation) as raised:
        suite.scan_sn(5, threads=3)
    assert str(raised.value) == f"no cube in G({bad})"
    assert bad in fake_workers[-1] and len(fake_workers) == 2
    assert FakeProcess.stops == [(0, "terminate"), (0, "join"), (1, "terminate"), (1, "join")]


@pytest.mark.usefixtures("light_shares")
def test_a_worker_that_cannot_start_raises_its_own_error(monkeypatch):
    # as a spawn worker's start() does on a job that does not pickle: the
    # sweep stops only the workers that started, so that error is raised
    class Unstartable(multiprocessing.Process):
        def start(self):
            raise pickle.PicklingError("the job does not pickle")

    monkeypatch.setattr(multiprocessing, "Process", Unstartable)
    with pytest.raises(pickle.PicklingError, match="the job does not pickle"):
        suite.scan_sn(4, threads=2)


@pytest.mark.usefixtures("light_shares")
def test_pooled_sweep_is_refused_here_before_any_graph_or_pool(monkeypatch, fake_workers):
    # every w is checked against the budget in this process, heaviest first,
    # so a pooled sweep is refused as a serial one is, with no worker started
    def no_build(*args):
        raise AssertionError("G(w) built before the budget check")

    monkeypatch.setattr(classes, "ClassGraph", no_build)
    refusals = []
    for threads in (1, 2):
        with pytest.raises(BudgetExceeded) as refused:
            suite.scan_sn(4, budget=2, threads=threads)
        refusals.append(str(refused.value))
    # 4321 goes first, and its first state with more than 2 words has 3
    assert refusals == ["at least 3 reduced words exceed the budget of 2"] * 2
    assert fake_workers == []


def _per_w(n, budget=10**8, threads=1):
    """The per-w oracle sweep: ``_check_and_size`` on every w, reported as
    ``scan_sn`` reports, and each |G(w)|."""
    perms = list(enumerate_sn(n))
    by_perm = classes._sweep(perms, _check_and_size, budget, threads)
    sizes = {w: size for w, (_, size) in by_perm.items()}
    out = [v for w in perms for v in by_perm[w][0]]
    out += [f"aggregate bound fails for n={n}, l={rep.l}: {rep}"
            for rep in bounds.aggregate_reports(n, sizes) if not rep.ok]
    return out, sizes


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
    # and builds G(w) for that w alone: the other members are credited its |G(w)|
    checked, built = [], []
    real, real_build = suite.check_permutation, classes.ClassGraph
    monkeypatch.setattr(suite, "check_permutation", lambda g: checked.append(g.w) or real(g))
    monkeypatch.setattr(classes, "ClassGraph", lambda w, dag: built.append(w) or real_build(w, dag))
    assert suite.scan_sn(6, threads=1) == []
    assert sorted(checked) == sorted(built) == sorted({min(perm._orbit(w)) for w in enumerate_sn(6)})
    assert len(checked) == 230


@pytest.mark.usefixtures("light_shares")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fails", [
    lambda g: min(perm._orbit(g.w)) == (2, 4, 5, 1, 3),  # one orbit of four
    lambda g: len(g) == 3 and inversions(g.w) == 6,  # three orbits, by isomorphism invariants
])
def test_a_failing_orbit_is_checked_per_w(monkeypatch, fake_workers, threads, fails):
    # a check patched to fail on whole orbits: scan_sn reports what the
    # per-w sweep reports, each member of a failing orbit once, in order;
    # the members are checked again inside the job of the orbit's least w,
    # so one set of workers serves the whole sweep
    def cube(g):
        if fails(g):
            raise InvariantViolation(f"no cube in G({g.w})")

    monkeypatch.setattr(suite, "embed_hypercube", cube)
    want, _ = _per_w(5)
    failing = [w for w, g in classes._sweep(enumerate_sn(5), lambda g: g, 10**8).items()
               if fails(g)]
    assert want == [f"no cube in G({w})" for w in sorted(failing)]
    assert len(failing) >= 4
    assert suite.scan_sn(5, threads=threads) == want
    assert _started(fake_workers) == ([threads] if threads > 1 else [])


@pytest.mark.slow
def test_orbit_sweep_matches_the_per_w_sweep_s7(credited_sizes):
    want, sizes = _per_w(7, 10**12, threads=2)
    assert suite.scan_sn(7, 10**12, threads=2) == want
    assert credited_sizes == [sizes]
    assert sum(sizes.values()) == 361071


def _past_s8_sample(n, quotas, seed, cap=2 * 10**4):
    """Seeded orbit representatives of S_n with |G(w)| <= cap, read off one
    live-run memo by ``_class_count`` before any G(w) is built: quotas[0]
    rectangular w, quotas[1] other 4321-avoiders, and quotas[2] of the rest,
    at most three of each length."""
    rng, live, seen = random.Random(seed), {}, set()
    rect, avoiders, rest = [], [], {}  # rest: length -> its w
    while (len(rect) < quotas[0] or len(avoiders) < quotas[1]
           or sum(map(len, rest.values())) < quotas[2]):
        w = min(perm._orbit(tuple(rng.sample(range(1, n + 1), n))))
        if w in seen:
            continue
        seen.add(w)
        if structure.is_rectangular(w):
            kept, quota = rect, quotas[0]
        elif perm.avoids(w, (4, 3, 2, 1)):
            kept, quota = avoiders, quotas[1]
        else:  # three of a length, while the rest's quota has room
            kept = rest.setdefault(inversions(w), [])
            quota = min(3, len(kept) + quotas[2] - sum(map(len, rest.values())))
        if len(kept) < quota and words._class_count(w, live) <= cap:
            kept.append(w)
    return rect, avoiders, [w for ws in rest.values() for w in ws]


@pytest.mark.slow
@pytest.mark.parametrize("n, quotas", [(9, (60, 100, 60)), (10, (30, 50, 30))])
def test_the_suite_holds_on_a_sample_past_s8(n, quotas):
    # each G(w) is built with no word budget: a w with 2*10^4 classes can
    # have more than 10^8 words; a rectangular w's labels are judged twice
    rect, avoiders, rest = _past_s8_sample(n, quotas, 35)
    for w in rect + avoiders + rest:
        g = classes.build_graph(w, inf)
        assert suite.check_permutation(g) == [], w
        assert w not in rect or grid_labelling_ok(g, structure.rectangle_label(g)), w
