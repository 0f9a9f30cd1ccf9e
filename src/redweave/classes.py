"""Commutation classes, the braid-move graph G(w), and its ranked poset P(w).

``build_graph(w, budget)`` is G(w), cached and guarded by the word budget:
``g.vertices`` are the classes (id, canonical word, size) in lexicographic
order, ``g.edges`` the braid moves between them, ``g.max_windows`` is Y.
G(w) is built in layers: canonical words up front; class sizes, edges and Y
computed on first read and kept on the shared graph, so callers pay for what they read.
Every function of G(w), here and in ``subnet``, ``structure``, ``bounds`` and
``suite``, takes the graph; ``build_graph`` alone checks the budget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import BudgetExceeded, InvariantViolation, WORD_BUDGET_DEFAULT
from .perm import Perm, check_perm, identity, inverse, pattern_count
from .words import (
    Letters,
    Word,
    _left_descents,
    _peel,
    _sweep_tables,
    _walk_words,
    canonical_letters,
    count_reduced_words,
)

Wires = tuple[int, int, int]
EdgeLabel = tuple[int, Wires]  # (braid index i, sorted value triple re-crossed)


def _canonical_words(w: Perm) -> list[Letters]:
    """The canonical word of every class of w, in lexicographic order.

    A reduced word is canonical (the lexicographically greatest of its
    class) exactly when no letter exceeds its predecessor by two or
    more.  The word DFS offers only such letters and remembers (state,
    cap) pairs that lead nowhere, in the sweep's table if one is
    installed.
    """
    tables = _sweep_tables()
    return list(_walk_words(w, True, tables.dead if tables is not None else set()))


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


def _down_braids(canon: Letters, n: int) -> list[tuple[Letters, EdgeLabel]]:
    """The braid moves (x, x-1, x) available in the class of canon.

    Such a window exists exactly when two consecutive pieces of letter x
    have a single piece of x-1 or x+1 between them, and it is x-1.  A
    member word realizing it lists first every piece not above the first
    x, then the window, then the rest; the move's target class and the
    three wires it re-crosses are read off that word.
    """
    out = []
    for a, x in enumerate(canon):
        between = []
        for b in range(a + 1, len(canon)):
            if canon[b] == x:
                break
            if abs(canon[b] - x) == 1:
                between.append(b)
        else:
            continue  # a holds the last x
        if len(between) != 1 or canon[between[0]] != x - 1:
            continue
        y = x - 1
        above = {x}  # letters of the pieces above the first x seen so far
        prefix: list[int] = []
        rest: list[int] = []
        for k, z in enumerate(canon):
            if k > a and not above.isdisjoint((z - 1, z, z + 1)):
                above.add(z)
                if k not in (between[0], b):
                    rest.append(z)
            elif k != a:
                prefix.append(z)
        seq = list(range(1, n + 1))
        for z in prefix:
            seq[z - 1], seq[z] = seq[z], seq[z - 1]
        wires = tuple(sorted(seq[y - 1 : y + 2]))
        target = canonical_letters((*prefix, y, x, y, *rest))
        out.append((target, (y, wires)))
    return out


def _most_windows(w: Perm) -> tuple[int, Letters]:
    """Y and the lexicographically least reduced word with Y braid windows.

    best(q, a, b) is the most windows a word can still gain from state q
    when its last two letters are a, b; a is kept only while it can
    close a window (|a - b| = 1), which keeps the memo small.  The DP
    runs on an explicit stack, like the budget guard, and keeps its
    memo in the sweep's table if one is installed.
    """
    done = identity(len(w))
    tables = _sweep_tables()
    best = tables.best if tables is not None else {}

    def options(key: tuple[Perm, int, int]):
        """(letter, next key, windows gained) per letter, ascending."""
        q, a, b = key
        return [
            (i, (_peel(q, i), b if abs(b - i) == 1 else 0, i), int(a == i))
            for i in _left_descents(q)
        ]

    key = (inverse(w), 0, 0)
    stack: list = [(key, None)]
    while stack:
        k, opts = stack.pop()
        if opts is not None:  # every key below k is solved by now
            top = 0
            for _, nk, gain in opts:
                if gain + best[nk] > top:
                    top = gain + best[nk]
            best[k] = top
        elif k not in best:
            if k[0] == done:
                best[k] = 0
                continue
            opts = options(k)
            stack.append((k, opts))
            stack += [(nk, None) for _, nk, _ in opts if nk not in best]

    y = best[key]
    word = []
    while key[0] != done:
        i, key = next(
            (i, nk) for i, nk, gain in options(key) if gain + best[nk] == best[key]
        )
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
    def edges(self) -> tuple[Edge, ...]:
        """Each edge found from its downward side; ids through one dict."""
        ids = {c.canonical.letters: c.id for c in self.vertices}
        labels: dict[tuple[int, int], set[EdgeLabel]] = {}
        for u, c in enumerate(self.vertices):
            for target, label in _down_braids(c.canonical.letters, self.n):
                v = ids[target]
                labels.setdefault((u, v) if u < v else (v, u), set()).add(label)
        del ids  # before the edge tuples are made, to keep the peak down
        return tuple(Edge(u, v, tuple(sorted(ls))) for (u, v), ls in sorted(labels.items()))

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


def build_graph(w: Perm, budget: int = WORD_BUDGET_DEFAULT) -> ClassGraph:
    """The cached G(w); refused when |R(w)| exceeds budget."""
    w = check_perm(w)
    total = _word_total(w)
    if total > budget:
        raise BudgetExceeded(f"{total} reduced words exceed the budget of {budget}")
    return _scan_impl(w)


@dataclass(frozen=True)
class RankedPoset:
    """P(w): classes ordered by downward braid moves, ranked by 212-count."""

    elements: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]  # (upper, lower)
    rank: dict[int, int]


def build_poset(g: ClassGraph) -> RankedPoset:
    """Rank the classes of G(w) by 212-count and orient its edges as covers.

    Raises ``InvariantViolation`` unless every edge joins index sums one
    apart, every cover drops the rank by one, and the ranks fill 0..N321.
    """
    from .subnet import count_212  # subnet imports this module for build_graph

    ranks = {c.id: count_212(c.canonical) for c in g.vertices}
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
    n321 = pattern_count(g.w, (3, 2, 1))
    if set(ranks.values()) != set(range(n321 + 1)):
        raise InvariantViolation(
            f"ranks of P({g.w}) are {sorted(set(ranks.values()))}, "
            f"expected 0..{n321}"
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

