"""Commutation classes, the braid-move graph G(w), and its ranked poset P(w).

``build_graph(w, budget)`` is G(w), built afresh and guarded by the word budget:
``g.vertices`` are the classes (id, canonical word, size) in lexicographic
order, ``g.edges`` the braid moves between them, ``g.max_windows`` is Y.
G(w) is built in layers.  The canonical words come up front, by a walk in
``words`` on the memos of the ``_SweepTables`` passed in: one per ``_run``,
the sweep loop of every process, of which ``build_graph`` is a sweep of one.
The graph keeps them alone, by id: the records of ``g.vertices`` are made
on its first read, which only the ``classes`` command and library callers make.
The bare mask-flip edges ``_pairs``, which every check reads, and Y, on the
one memo the graph keeps, come on first read and are kept; the edge labels
only on the first read of ``g.edges``, which only ``graph`` text and JSON
output makes; a class size on each read.  Edges and ranks read one int per
class, its ``_triple_masks`` bitmask over w's 321-triples, read off its value
triples: a braid move flips one bit (probed per unset bit), and the popcount
is its rank in P(w).  G(w) is the hypercube's subgraph induced on the masks:
every graph read comes off them and their ``{mask: id}`` dict ``_ids``, with
no adjacency stored.  Every function of G(w), here and in ``subnet``,
``structure``, ``bounds`` and ``suite``, takes the graph; the word budget of
a G(w) is checked in ``_sweep`` alone, in the process that calls it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, partial
from typing import Callable, Iterable, NamedTuple

from .errors import InputError, InvariantViolation, WORD_BUDGET_DEFAULT
from .perm import Perm, _triples321, check_perm, inversions
from .words import (Letters, Word, _Cache, _SweepTables, _all_within_budget, _canonical_words,
                    _most_windows, _paths, crossing_events)

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


def _triple_masks(triples: tuple[Wires, ...], n: int, words: Iterable[Letters]) -> list[int]:
    """The triple mask of each reduced word (letter tuple) of w, in one crossing pass each.

    Bit j is set when (b, c) crosses before (a, b) for the j-th 321-triple
    a < b < c of w.  The mask fixes the commutation class, and a braid move
    flips one bit (the higher Bruhat order; Ziegler 1993, Elnitsky 1997).
    Crossing the pair (u, v) marks the triples it is the (b, c) of, in
    ``bc[u][v]``, and sets the bits of the marked ones it is the (a, b) of.
    """
    ab = [[0] * (n + 1) for _ in range(n + 1)]
    bc = [[0] * (n + 1) for _ in range(n + 1)]
    for j, (a, b, c) in enumerate(triples):
        ab[a][b] |= 1 << j
        bc[b][c] |= 1 << j
    out = []
    for word in words:
        seq = list(range(n + 1))  # seq[p] is the wire at position p, from 1
        mask = crossed = 0
        for i in word:
            u, v = seq[i], seq[i + 1]
            seq[i], seq[i + 1] = v, u
            mask |= ab[u][v] & crossed
            crossed |= bc[u][v]
        out.append(mask)
    return out


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
    words are built with it; each other layer but the class sizes is kept
    on first read.
    """

    def __init__(self, w: Perm, canonical: tuple[Letters, ...], best: dict):
        self.w = w
        self.n = len(w)
        self._canonical = canonical  # the canonical word of each class, by id
        self._best = best  # the memo Y fills: the sweep's, or the graph's own

    @cached_property
    def vertices(self) -> tuple[CommClass, ...]:
        """The class records, made on first read: no check reads them."""
        return tuple(CommClass(i, Word(c, self.n)) for i, c in enumerate(self._canonical))

    _triples = cached_property(lambda self: _triples321(self.w))  # a < b < c, by mask bit

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The triple mask of each class, by id."""
        return tuple(_triple_masks(self._triples, self.n, self._canonical))

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
    """G(w), built afresh by a sweep of w alone; refused when |R(w)| exceeds budget."""
    w = check_perm(w)
    return _sweep([w], lambda g: g, budget)[w]


def _scan_impl(w: Perm, dag: _SweepTables) -> ClassGraph:
    """G(w) on the memos of ``dag``, of which it keeps Y's alone, with no
    budget check.  The canonical words come in lexicographic order, so a
    class's id is its position."""
    return ClassGraph(w, tuple(_canonical_words(w, dag.live)), dag.best)


def _run(job: Callable[[ClassGraph], object], perms: list[Perm]) -> list:
    """[job(G(w)) for w in perms] on one DAG: the sweep loop of every process."""
    dag = _SweepTables()
    return [job(_scan_impl(w, dag)) for w in perms]


def _sweep(perms: Iterable[Perm], job: Callable[[ClassGraph], object], budget: int,
           threads: int = 1) -> dict:
    """{w: job(G(w))} for each w of perms, by one ``_run`` here if
    ``min(threads, len(perms))`` is 1, else one per share in a pool of that
    many, started by the platform's default method, whose workers may import
    redweave afresh (spawn, forkserver): each ``_run`` fills its own DAG under
    any method, the refill accepted over choosing one; job must then pickle.  The
    w go longest first, lexicographic among equals, and each passes
    ``words._within_budget`` here, in that order on one word-count memo,
    before any G(w) is built, so the first refusal in that order is raised.  They
    are dealt to the shares back and forth (0, 1, ..., t-1, t-1, ..., 0,
    ...): each share gets heavy and light w alike and starts on one of the
    heaviest, which fills most of its DAG.  The job runs on every w given:
    ``suite.scan_sn`` gives the least w of each symmetry orbit alone.
    """
    order = sorted(perms, key=lambda w: (-inversions(w), w))
    _all_within_budget(order, budget)  # before any G(w)
    threads = min(threads, len(order))
    if threads <= 1:
        return dict(zip(order, _run(job, order)))
    from multiprocessing import Pool

    turn = 2 * threads  # share k takes places k and 2t - 1 - k of every 2t
    shares = [[w for p, w in enumerate(order) if p % turn in (k, turn - 1 - k)]
              for k in range(threads)]
    with Pool(threads) as pool:
        done = pool.map(partial(_run, job), shares)
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

