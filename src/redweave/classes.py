"""Commutation classes, the braid-move graph G(w), and its ranked poset P(w).

``build_graph(w, budget)`` is G(w), cached and guarded by the word budget:
``g.vertices`` are the classes (id, canonical word, size) in lexicographic
order, ``g.edges`` the braid moves between them, ``g.max_windows`` is Y.
G(w) is built in layers: canonical words up front, as the paths over the
live runs of the weak-order DAG in ``words`` (outside a sweep the word
count and Y each walk a DAG of their own); class sizes, edges and Y are
computed on first read and kept on the shared graph.  Edges and ranks
read one int per class, its ``_triple_masks`` bitmask over the 321-triples
of w: a braid move flips one bit, and the popcount is its rank in P(w).
Every function of G(w), here and in ``subnet``, ``structure``, ``bounds``
and ``suite``, takes the graph; ``build_graph`` alone checks the budget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from .errors import BudgetExceeded, InvariantViolation, WORD_BUDGET_DEFAULT
from .perm import Perm, check_perm, inverse, pattern_occurrences
from .words import (
    Letters,
    Word,
    _dag,
    _fill,
    count_reduced_words,
    crossing_events,
)

Wires = tuple[int, int, int]
EdgeLabel = tuple[int, Wires]  # (braid index i, sorted value triple re-crossed)


def _canonical_words(w: Perm) -> list[Letters]:
    """The canonical word of every class of w, in lexicographic order.

    A reduced word is canonical (the lexicographically greatest of its
    class) exactly when no letter exceeds its predecessor by two or more.
    These are the paths over the DAG's live runs, letters ascending: each
    run reaches the identity, and a frame is pushed only where paths branch.
    """
    out, buf = [], []
    frames = [(iter(_dag(keep_kids=False).live_runs(w)), 0)]  # live runs, len(buf) before them
    while frames:
        runs, mark = frames[-1]
        run = next(runs, None)
        if run is None:
            frames.pop()
            del buf[mark:]
        elif run[1]:
            frames.append((iter(run[1]), len(buf)))
            buf += run[0]
        else:
            out.append((*buf, *run[0]))
    return out or [()]  # the identity has no live runs and one empty word


def _class_count(w: Perm) -> int:
    """|G(w)|, the number of canonical words: the root's live path count."""
    return sum(run[2] for run in _dag(keep_kids=False).live_runs(w)) or 1


def _class_size(letters: Letters, n: int) -> int:
    """Words in the class of a canonical word: linear extensions of its heap.

    Pieces of one letter form a chain, and the k-th piece of letter x can
    be placed once the pieces of x, x-1 and x+1 written before it in the
    word are placed.  An order ideal is thus its vector of per-letter
    counts, packed into one int; the DP walks the ideals by size,
    keeping one layer at a time.
    """
    bits = max(len(letters), 1).bit_length()
    mask = (1 << bits) - 1
    seen = [0] * (n + 1)
    needs: list[list] = [[] for _ in range(n + 1)]  # letter -> (lo, hi) per piece
    for x in letters:
        needs[x].append((seen[x - 1], seen[x + 1]))
        seen[x] += 1
    moves = [
        (x * bits, (x - 1) * bits, (x + 1) * bits, needs[x] + [None], 1 << (x * bits))
        for x in range(1, n)
        if needs[x]
    ]
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


def _triple_masks(triples: tuple[Wires, ...], n: int, words: Iterable[Word]) -> list[int]:
    """The triple mask of each reduced word of w, in one crossing pass each.

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
        mask = crossed = 0
        for u, v in crossing_events(word):
            mask |= ab[u][v] & crossed
            crossed |= bc[u][v]
        out.append(mask)
    return out


def _most_windows(w: Perm) -> tuple[int, Letters]:
    """Y and the lexicographically least reduced word with Y braid windows.

    best(q, a, b) is the most windows a word can still gain from state q
    when its last two letters are a, b; a is kept only while it can
    close a window (|a - b| = 1), which keeps the memo small.  The DP
    reads q's children off the DAG and runs on an explicit stack; its
    memo is the DAG's ``best``.
    """
    dag = _dag()
    best = dag.best

    def options(key: tuple[Perm, int, int]):
        """(letter, next key, windows gained) per letter, ascending."""
        q, a, b = key
        return [(i, (p, b if abs(b - i) == 1 else 0, i), int(a == i)) for i, p in dag.kids(q)]

    key = (inverse(w), 0, 0)
    _fill(best, key, options, lambda opts: max([g + best[nk] for _, nk, g in opts], default=0))
    y, word = best[key], []
    while dag.kids(key[0]):
        i, key = next((i, nk) for i, nk, g in options(key) if g + best[nk] == best[key])
        word.append(i)
    return y, tuple(word)


@dataclass(frozen=True)
class CommClass:
    id: int
    canonical: Word

    @cached_property
    def size(self) -> int:
        return _class_size(self.canonical.letters, self.canonical.n)


class Edge(NamedTuple):
    u: int
    v: int
    labels: tuple[EdgeLabel, ...]


class ClassGraph:
    """G(w): one vertex per commutation class, edges labeled by braid moves.

    Vertex ids are dense integers in lexicographic order of the
    canonical words, so output is reproducible.  Y and the least word
    attaining it ride along.  The graph is cached and shared: read-only.
    Only the vertices are built with it; each other layer is kept on first read.
    """

    def __init__(self, w: Perm, vertices: tuple[CommClass, ...]):
        self.w = w
        self.n = len(w)
        self.vertices = vertices

    @cached_property
    def _triples(self) -> tuple[Wires, ...]:
        """The 321-triples a < b < c of w, by bit of the triple masks."""
        w = self.w
        return tuple(sorted((w[k], w[j], w[i]) for i, j, k in pattern_occurrences(w, (3, 2, 1))))

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The triple mask of each class, by id."""
        return tuple(_triple_masks(self._triples, self.n, (c.canonical for c in self.vertices)))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Pairs of classes whose masks differ in one bit, through one dict; the
        move re-crosses that bit's triple at the letter where its (a, b) crosses
        in the lower class."""
        ids = {m: v for v, m in enumerate(self._masks)}
        if len(ids) != len(self.vertices):
            raise InvariantViolation(f"two classes of {self.w} share a triple mask")
        found = []
        for u, m in enumerate(self._masks):
            ups = [(t, ids[m | 1 << j]) for j, t in enumerate(self._triples)
                   if not m >> j & 1 and m | 1 << j in ids]
            if not ups:
                continue
            word = self.vertices[u].canonical
            at = dict(zip(crossing_events(word), word.letters))  # (a, b) -> its letter
            for t, v in ups:
                label = ((at[t[:2]], t),)
                found.append((u, v, label) if u < v else (v, u, label))
        del ids  # before the edge tuples are made, to keep the peak down
        return tuple(Edge(*e) for e in sorted(found))

    @cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(frozenset, adj))

    @cached_property
    def _y(self) -> tuple[int, Letters]:
        return _most_windows(self.w)

    max_windows = property(lambda self: self._y[0])  # Y
    max_window_word = property(lambda self: self._y[1])  # the least word with Y windows
    n321 = property(lambda self: len(self._triples))  # N321(w), read off the triple masks' bits

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors(self, cid: int) -> frozenset[int]:
        return self._adj[cid]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def class_by_canonical(self, letters: Letters) -> CommClass:
        i = bisect_left(self.vertices, letters, key=lambda c: c.canonical.letters)
        if i == len(self.vertices) or self.vertices[i].canonical.letters != letters:
            raise KeyError(letters)
        return self.vertices[i]


@lru_cache(maxsize=4096)
def _scan_impl(w: Perm) -> ClassGraph:
    """G(w) with its canonical words: the DFS yields them in lexicographic
    order, so a class's id is its position."""
    n = len(w)
    return ClassGraph(w, tuple(CommClass(i, Word(c, n)) for i, c in enumerate(_canonical_words(w))))


@lru_cache(maxsize=4096)
def _word_total(w: Perm) -> int:
    return count_reduced_words(w)


def class_members(letters: Letters) -> set[Letters]:
    """Every word in the commutation class of the given word (BFS over swaps)."""
    seen = {tuple(letters)}
    frontier = [tuple(letters)]
    while frontier:
        nxt = []
        for ls in frontier:
            for p in range(len(ls) - 1):
                if abs(ls[p] - ls[p + 1]) >= 2:
                    other = ls[:p] + (ls[p + 1], ls[p]) + ls[p + 2 :]
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
        frontier = nxt
    return seen


def _guarded(w: Perm, budget: int) -> Perm:
    """w, checked, unless |R(w)| exceeds budget."""
    w = check_perm(w)
    if (total := _word_total(w)) > budget:
        raise BudgetExceeded(f"{total} reduced words exceed the budget of {budget}")
    return w


def build_graph(w: Perm, budget: int = WORD_BUDGET_DEFAULT) -> ClassGraph:
    """The cached G(w); refused when |R(w)| exceeds budget."""
    return _scan_impl(_guarded(w, budget))


@dataclass(frozen=True)
class RankedPoset:
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
    ranks = {c.id: m.bit_count() for c, m in zip(g.vertices, g._masks)}
    sums = {c.id: sum(c.canonical.letters) for c in g.vertices}
    covers = []
    for e in g.edges:
        upper, lower = (e.u, e.v) if sums[e.u] > sums[e.v] else (e.v, e.u)
        if sums[upper] - sums[lower] != 1:
            raise InvariantViolation(
                f"edge {e.u}-{e.v} of G({g.w}) joins index sums "
                f"{sums[e.u]} and {sums[e.v]}"
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
    return RankedPoset(tuple(c.id for c in g.vertices), tuple(covers), ranks)


@dataclass(frozen=True)
class GraphReport:
    connected: bool
    bipartite: bool  # index-sum parity is a proper 2-coloring

    @property
    def ok(self) -> bool:
        return self.connected and self.bipartite


def graph_checks(g: ClassGraph) -> GraphReport:
    if not g.vertices:
        return GraphReport(True, True)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    parity = {c.id: sum(c.canonical.letters) % 2 for c in g.vertices}
    bipartite = all(parity[e.u] != parity[e.v] for e in g.edges)
    return GraphReport(len(seen) == len(g.vertices), bipartite)

