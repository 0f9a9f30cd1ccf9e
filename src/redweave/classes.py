"""Commutation classes, the braid-move graph G(w), and its ranked poset P(w).

``build_graph(w, budget)`` is G(w), built afresh and guarded by the word budget:
``g.vertices`` are the classes (id, canonical word, size) in lexicographic
order, ``g.edges`` the braid moves between them, ``g.max_windows`` is Y.
G(w) is built in layers.  The canonical words and their triple masks (one
int per class, a bitmask over w's 321-triples) come up front, by one walk in
``words`` on the memos of a ``_SweepTables``: ``build_graph``'s own, or the
one a ``_sweep`` shares among its w.  The graph keeps them alone, by id: the
records of ``g.vertices`` are made on first read, which only the ``classes``
command and library callers make.  The bare mask-flip edges ``_pairs``, which
every check reads, and Y, on the one memo the graph keeps, come on first read
and are kept; the edge labels only on the first read of ``g.edges``, which
only ``graph`` text and JSON output makes; a class size on each read.  A
braid move flips one bit of a mask (probed per unset bit), and its popcount
is its rank in P(w): G(w) is the hypercube's subgraph induced on the masks,
and every graph read comes off them and their ``{mask: id}`` dict ``_ids``,
with no adjacency stored.  Every function of G(w), here and in ``subnet``,
``structure``, ``bounds`` and ``suite``, takes the graph; the word budget of
a G(w) is checked by ``build_graph``, or by ``_sweep`` in the process that calls it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

from .errors import InputError, InvariantViolation, WORD_BUDGET_DEFAULT
from .perm import Perm, _triples321, check_perm, inversions
from .words import (Letters, Word, _Cache, _SweepTables, _all_within_budget, _canonical_words,
                    _class_count, _most_windows, _paths, _within_budget, crossing_events)

Wires = tuple[int, int, int]
EdgeLabel = tuple[int, Wires]  # (braid index i, sorted value triple re-crossed)


def _heap(letters: Letters, n: int) -> tuple[int, dict]:
    """The heap of a word over letters 1..n-1, as (mask, moves by letter).

    Pieces of one letter form a chain, and the k-th piece of letter x can
    be placed once the pieces of x, x-1 and x+1 written before it in the
    word are placed.  An order ideal is thus its vector of per-letter
    counts, packed into one int of fields ``mask`` wide; moves[x] is (the
    shift of x's field, those of x-1 and x+1, the (lo, hi) needs of each
    piece of x then None, the step that adds one piece of x).
    """
    bits = max(len(letters), 1).bit_length()
    seen = [0] * (n + 1)
    needs: list[list] = [[] for _ in range(n + 1)]  # letter -> (lo, hi) per piece
    for x in letters:
        needs[x].append((seen[x - 1], seen[x + 1]))
        seen[x] += 1
    return (1 << bits) - 1, {x: (x * bits, (x - 1) * bits, (x + 1) * bits, needs[x] + [None],
                                 1 << (x * bits)) for x in range(1, n) if needs[x]}


def _class_size(letters: Letters, n: int) -> int:
    """Words in the class of a canonical word: linear extensions of its heap,
    counted by a DP over its order ideals by size, one layer at a time."""
    mask, heap = _heap(letters, n)
    moves = tuple(heap.values())
    layer = {0: 1}
    for _ in letters:
        nxt: dict[int, int] = {}
        for ideal, ways in layer.items():
            for shift, lo_shift, hi_shift, need, step in moves:
                req = need[(ideal >> shift) & mask]
                if (
                    req is not None
                    and (ideal >> lo_shift) & mask >= req[0]
                    and (ideal >> hi_shift) & mask >= req[1]
                ):
                    nxt[ideal + step] = nxt.get(ideal + step, 0) + ways
        layer = nxt
    return sum(layer.values())


class CommClass(NamedTuple):
    id: int
    canonical: Word

    @property
    def size(self) -> int:
        """The words in the class, counted on each read."""
        return _class_size(self.canonical.letters, self.canonical.n)


class Edge(NamedTuple):
    u: int
    v: int
    labels: tuple[EdgeLabel, ...]


class ClassGraph:
    """G(w): one vertex per commutation class, edges labeled by braid moves.

    Vertex ids are dense integers in lexicographic order of the
    canonical words, so output is reproducible.  Y and the least word
    attaining it ride along.  The graph is read-only.  Only the canonical
    words and their masks are built with it; each other layer but the class
    sizes is kept on first read.
    """

    def __init__(self, w: Perm, dag: _SweepTables):
        self.w = w
        self.n = len(w)
        self._triples = _triples321(w)  # a < b < c, by mask bit
        self._canonical, self._masks = _canonical_words(w, dag.live, self._triples)  # by id
        self._best = dag.best  # the memo Y fills, the one of dag the graph keeps

    @cached_property
    def vertices(self) -> tuple[CommClass, ...]:
        """The class records, made on first read: no check reads them."""
        return tuple(CommClass(i, Word(c, self.n)) for i, c in enumerate(self._canonical))

    @cached_property
    def _ids(self) -> dict[int, int]:
        """The class of each triple mask: G(w) as points of the hypercube."""
        ids = {m: v for v, m in enumerate(self._masks)}
        if len(ids) != len(self._canonical):
            raise InvariantViolation(f"two classes of {self.w} share a triple mask")
        return ids

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int, int], ...]:
        """The bare edges: (u, v, j) for classes u < v one flip of bit j apart.
        Setting bit j turns a window i, i+1, i into i+1, i, i+1, and the greedy
        that builds a canonical (lexicographically greatest) word then takes i + 1
        where the lower class's takes at most i, at the first letter they differ."""
        ids = self._ids
        found, full = [], (1 << len(self._triples)) - 1
        for u, m in enumerate(self._masks):
            free = full ^ m
            while free:  # each unset bit, lowest first
                bit = free & -free
                if (v := ids.get(m | bit)) is not None:
                    found.append((u, v, bit.bit_length() - 1))
                free ^= bit
        return tuple(sorted(found))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The pairs labelled, with one crossing pass over each lower-mask class u:
        the move re-crosses triple j at the letter where its (a, b) crosses in u."""
        out = []
        for u, v, j in self._pairs:
            if not out or out[-1].u != u:
                word = self._canonical[u]
                at = dict(zip(crossing_events(Word(word, self.n)), word))  # (a, b) -> letter
            t = self._triples[j]
            out.append(Edge(u, v, ((at[t[:2]], t),)))
        return tuple(out)

    @cached_property
    def _y(self) -> tuple[int, Letters]:
        return _most_windows(self.w, self._best)

    max_windows = property(lambda self: self._y[0])  # Y
    max_window_word = property(lambda self: self._y[1])  # the least word with Y windows
    n321 = property(lambda self: len(self._triples))  # N321(w), read off the triple masks' bits

    def __len__(self) -> int:
        return len(self._canonical)

    def neighbors(self, cid: int) -> frozenset[int]:
        m, ids = self._masks[cid], self._ids
        return frozenset(ids[x] for j in range(self.n321) if (x := m ^ (1 << j)) in ids)

    def has_edge(self, u: int, v: int) -> bool:
        return (self._masks[u] ^ self._masks[v]).bit_count() == 1

    def class_by_canonical(self, letters: Letters) -> CommClass:
        i = bisect_left(self._canonical, letters)
        if i == len(self) or self._canonical[i] != letters:
            raise KeyError(letters)
        return CommClass(i, Word(self._canonical[i], self.n))


def class_members(letters: Letters) -> set[Letters]:
    """Every word in the commutation class of the given word: the paths of
    ``words._paths`` over its heap's order ideals, each a linear extension."""
    if bad := sorted({x for x in letters if x < 1}):
        raise InputError(f"letters {bad} are below 1")
    mask, heap = _heap(letters, max(letters, default=0) + 1)
    steps = _Cache(lambda ideal: [
        ((x,), ideal + step) for x, (shift, lo, hi, need, step) in heap.items()
        if (req := need[(ideal >> shift) & mask]) is not None
        and (ideal >> lo) & mask >= req[0] and (ideal >> hi) & mask >= req[1]])
    return set(_paths(steps.__getitem__, 0))


def build_graph(w: Perm, budget: int = WORD_BUDGET_DEFAULT) -> ClassGraph:
    """G(w), built afresh on memos of its own; refused when |R(w)| exceeds budget."""
    w = check_perm(w)
    _within_budget(w, budget)
    return ClassGraph(w, _SweepTables())


_scan_impl = ClassGraph  # the name that perfbench/tracer.py reads at install; nothing here calls it


def _run(job: Callable[[ClassGraph], object], perms: list[Perm], dag: _SweepTables) -> list:
    """[job(G(w)) for w in perms] on ``dag``: the sweep loop of every process."""
    return [job(ClassGraph(w, dag)) for w in perms]


def _work(job: Callable[[ClassGraph], object], perms: list[Perm], dag: _SweepTables, out) -> None:
    """A worker's ``_run``, sent over the pipe end ``out`` as (True, results) or (False, error)."""
    try:
        out.send((True, _run(job, perms, dag)))
    except Exception as exc:
        out.send((False, exc))


def _sweep(perms: Iterable[Perm], job: Callable[[ClassGraph], object], budget: int,
           threads: int = 1) -> dict:
    """{w: job(G(w))} for each w of perms (one at least), on one DAG, by one
    ``_run`` per share: share 0 here, each other in one of ``min(threads,
    len(perms)) - 1`` worker processes of the default start method, so with
    one thread none starts.  The w go longest first, lexicographic among
    equals, and pass ``words._within_budget`` here, in that order on one
    word-count memo, before any G(w) is built.  The DAG below the first w (w0
    in a scan, above every w) is then filled here: a forked worker inherits
    it, a spawn or forkserver one gets it by pickle, with job (which must then
    pickle) and its share.  The w are dealt back and forth (0, 1, ..., t-1,
    t-1, ..., 0, ...), so each share gets heavy and light w, starts on one of
    the heaviest and ends about when share 0 does; the workers' results are
    read here in share order.  A worker's error is raised here
    (``ChildProcessError`` if it exits with nothing sent), and any error stops
    every worker.  ``suite.scan_sn`` gives the least w of each orbit."""
    order = sorted(perms, key=lambda w: (-inversions(w), w))
    _all_within_budget(order, budget)  # before any G(w)
    dag = _SweepTables()
    _class_count(order[0], dag.live), _most_windows(order[0], dag.best)  # every process's DAG
    turn = 2 * min(threads, len(order))  # share k takes places k and 2t - 1 - k of every 2t
    shares = [[w for p, w in enumerate(order) if p % turn in (k, turn - 1 - k)]
              for k in range(turn // 2)]
    procs = []  # (worker, the pipe end its results come in on), in share order
    try:
        for share in shares[1:]:
            import multiprocessing  # only once a worker starts

            get, put = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_work, args=(job, share, dag, put))
            proc.start()
            procs.append((proc, get))
            put.close()  # the worker holds the one copy left: EOF once it exits
        done = [_run(job, shares[0], dag)]
        for proc, get in procs:
            try:
                ok, out = get.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(f"a scan worker exited with code {proc.exitcode} "
                                        "before it sent its results") from None
            if not ok:
                raise out
            done.append(out)
    finally:
        for proc, _ in procs:  # one that has sent its results is only exiting
            proc.terminate()
            proc.join()
    return {w: out for share, outs in zip(shares, done) for w, out in zip(share, outs)}


class RankedPoset(NamedTuple):
    """P(w): classes ordered by downward braid moves, ranked by 212-count."""

    elements: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]  # (upper, lower)
    rank: dict[int, int]


def build_poset(g: ClassGraph) -> RankedPoset:
    """Rank the classes of G(w) by 212-count and orient its edges as covers.

    A class's 212-count is the popcount of its triple mask.  Raises
    ``InvariantViolation`` unless every edge joins index sums one apart,
    every cover drops the rank by one, and the ranks fill 0..N321.
    """
    ranks = {i: m.bit_count() for i, m in enumerate(g._masks)}
    sums = [sum(c) for c in g._canonical]
    covers = []
    for u, v, _ in g._pairs:
        upper, lower = (u, v) if sums[u] > sums[v] else (v, u)
        if sums[upper] - sums[lower] != 1:
            raise InvariantViolation(
                f"edge {u}-{v} of G({g.w}) joins index sums {sums[u]} and {sums[v]}"
            )
        if ranks[upper] - ranks[lower] != 1:
            raise InvariantViolation(
                f"cover {upper}->{lower} of P({g.w}) drops the 212-count by "
                f"{ranks[upper] - ranks[lower]}, not 1"
            )
        covers.append((upper, lower))
    if set(ranks.values()) != set(range(g.n321 + 1)):
        raise InvariantViolation(
            f"ranks of P({g.w}) are {sorted(set(ranks.values()))}, "
            f"expected 0..{g.n321}"
        )
    covers.sort()
    return RankedPoset(tuple(range(len(g))), tuple(covers), ranks)


class GraphReport(NamedTuple):
    connected: bool
    bipartite: bool  # index-sum parity is a proper 2-coloring

    @property
    def ok(self) -> bool:
        return self.connected and self.bipartite


def graph_checks(g: ClassGraph) -> GraphReport:
    """Connected when all classes but one have an up-move (are the lower end of a
    pair): up-moves from any class, each setting a bit, end at that one."""
    parity = [sum(c) % 2 for c in g._canonical]
    bipartite = all(parity[u] != parity[v] for u, v, _ in g._pairs)
    return GraphReport(len({u for u, _, _ in g._pairs}) == len(g) - 1, bipartite)

