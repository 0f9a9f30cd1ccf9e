"""Independent brute-force oracles: slow, definitional reference paths.

Apart from ``word_walk_scan``, nothing here uses the library's
canonicalization, descent recursion, or cycle classifier; these re-derive
everything from the raw rewriting relations so the fast paths can be
checked against them.  ``word_walk_scan`` is a word-by-word sweep that
the class-level ``build_graph`` replaced; it rests only on the word-level
enumeration and canonical form, which the closures here check.
``graph_as_scan`` puts a ``ClassGraph`` in the shape it returns.
``canonical_words_dfs`` is the canonical-word DFS that the live DAG of
``words`` replaced: it walks states with its own descents and remembers
the (state, cap) pairs that lead to no word.
``list_moves`` and ``apply_move`` name and apply the single rewrites of
one word, as ``rewrite_neighbors`` does without naming them.
``local_rule_sets`` finds the classes of w as the sets of 321-triples
that a local rule on every 4 values allows (the higher Bruhat order), with
the rule read off ``classes_bfs`` of the 4-patterns; ``triple_set`` gives
a word's set by replaying its wires.  ``order_by_covers`` is a poset's
order as the transitive closure of its covers, to be compared with
inclusion of the triple masks.
``aggregate_by_encodings`` checks the aggregate bound by comparing the set
of parenthesis encodings at each length with their number, where
``bounds.aggregate_reports`` rests on a lemma instead: ``paren_decoding``
inverts ``bounds.paren_encoding`` on every canonical word.  The oracle reads
the encoding through its module, so a patched encoding reaches it.
``global_dags`` names the module globals of redweave that hold a DAG.
``count_212`` counts a word's 212-subnetworks from its crossings, the rank
statistic that ``build_poset`` reads as a popcount.
``contains`` is pattern containment by standardizing each subsequence.
``friendliness_by_indices`` is p-friendliness read on the index sets of
the patterns, where ``subnet.friendliness`` reads value triples.
``grid_labelling_ok`` checks a grid labelling of G(w) against its public
edges and ranks alone, where ``rectangle_label`` reads the triple masks.
``within_four_off`` is a BFS over ``g.neighbors``, where ``suite._on_six_cycle``
probes the ``{mask: id}`` dict.
``OracleGraph`` is G(w) from ``classes_bfs`` and ``rewrite_neighbors``
alone, with its own adjacency sets, BFS and parity: the graph reads of
``ClassGraph`` come off the triple masks instead.
"""

import sys
from enum import Enum
from functools import cache
from itertools import combinations, product
from typing import NamedTuple

from redweave import InputError, Word
from redweave import bounds
from redweave.bounds import AggregateReport, catalan
from redweave.classes import build_poset
from redweave.perm import Perm, identity, inverse
from redweave.words import (
    _SweepTables,
    braid_windows,
    canonical_letters,
    crossing_events,
    reduced_letter_seqs,
)


def one_reduced_word(w: Perm) -> tuple[int, ...]:
    """Bubble-sort word: repeatedly fix the first descent."""
    seq = list(w)
    word = []
    # sort w back to the identity, recording swaps; the reverse sorts the
    # identity up to w
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                word.append(i + 1)
                changed = True
    return tuple(reversed(word))


def rewrite_neighbors(ls: tuple[int, ...], braids: bool = True):
    """All words one relation away: commutations and (optionally) braids."""
    for p in range(len(ls) - 1):
        if abs(ls[p] - ls[p + 1]) >= 2:
            yield ls[:p] + (ls[p + 1], ls[p]) + ls[p + 2 :]
    if braids:
        for p in range(len(ls) - 2):
            x, y = ls[p], ls[p + 1]
            if ls[p + 2] == x and abs(y - x) == 1:
                yield ls[:p] + (y, x, y) + ls[p + 3 :]


def _closure(seed: tuple[int, ...], braids: bool) -> set[tuple[int, ...]]:
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for ls in frontier:
            for other in rewrite_neighbors(ls, braids):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


def all_words_bfs(w: Perm) -> set[tuple[int, ...]]:
    """Every reduced word of w, by closure under all relations from one word."""
    if w == identity(len(w)):
        return {()}
    return _closure(one_reduced_word(w), braids=True)


def commutation_class_bfs(ls: tuple[int, ...]) -> set[tuple[int, ...]]:
    return _closure(tuple(ls), braids=False)


def classes_bfs(w: Perm) -> list[set[tuple[int, ...]]]:
    """Partition of all reduced words into commutation classes, by components."""
    remaining = all_words_bfs(w)
    out = []
    while remaining:
        cls = commutation_class_bfs(min(remaining))
        out.append(cls)
        remaining -= cls
    out.sort(key=min)
    return out


def triple_set(ls: tuple[int, ...], n: int) -> frozenset[tuple[int, int, int]]:
    """The triples a < b < c whose three pairs all cross in the word ls, with
    (b, c) crossing before (a, b): its 212-subnetworks, by replaying the wires."""
    seq = list(range(1, n + 1))
    when = {}  # (smaller, larger) value pair -> step at which it crosses
    for t, i in enumerate(ls):
        u, v = seq[i - 1], seq[i]
        when[min(u, v), max(u, v)] = t
        seq[i - 1], seq[i] = v, u
    return frozenset(
        (a, b, c)
        for a, c in when
        for b in range(a + 1, c)
        if (a, b) in when and (b, c) in when and when[b, c] < when[a, b]
    )


@cache
def _restrictions(p: Perm) -> set[frozenset]:
    """The triple sets of the commutation classes of a 4-pattern p."""
    return {triple_set(min(c), len(p)) for c in classes_bfs(p)}


def local_rule_sets(w: Perm) -> list[frozenset]:
    """Every set of 321-triples of w that, on each 4 values of w, restricts to
    the triple set of a class of their standardized pattern.

    Backtracking over the triples in order: each 4-value check runs as soon
    as the last of its triples is decided, so no 2^k enumeration happens.
    """
    n = len(w)
    pos = {v: i for i, v in enumerate(w)}
    triples = [t for t in combinations(range(1, n + 1), 3) if pos[t[2]] < pos[t[1]] < pos[t[0]]]
    index = {t: j for j, t in enumerate(triples)}
    checks: dict[int, list] = {}  # last triple index -> [(triple indices, allowed subsets)]
    for quad in combinations(range(1, n + 1), 4):
        inside = sorted(index[t] for t in combinations(quad, 3) if t in index)
        if not inside:
            continue
        rank = {v: k + 1 for k, v in enumerate(quad)}
        pattern = tuple(rank[v] for v in sorted(quad, key=pos.get))
        allowed = {
            frozenset(index[tuple(quad[x - 1] for x in t)] for t in s)
            for s in _restrictions(pattern)
        }
        checks.setdefault(inside[-1], []).append((inside, allowed))
    out = []

    def extend(j: int, chosen: frozenset) -> None:
        if j == len(triples):
            out.append(frozenset(triples[k] for k in chosen))
            return
        for nxt in (chosen, chosen | {j}):
            if all(nxt.intersection(js) in allowed for js, allowed in checks.get(j, ())):
                extend(j + 1, nxt)

    extend(0, frozenset())
    return out


def order_by_covers(covers, size: int) -> list[int]:
    """Bit v of entry u is set when v = u or v lies below u: the reflexive and
    transitive closure of (upper, lower) covers over elements 0..size-1."""
    below: list[list[int]] = [[] for _ in range(size)]
    for upper, lower in covers:
        below[upper].append(lower)
    down: dict[int, int] = {}

    def fill(u: int) -> int:
        if u not in down:
            down[u] = 1 << u  # set first, so a cycle of covers cannot loop
            for v in below[u]:
                down[u] |= fill(v)
        return down[u]

    return [fill(u) for u in range(size)]


class OracleGraph:
    """G(w) by rewriting alone: the classes by commutation closure, an edge
    where a braid rewrite joins two of them, vertex ids in order of the
    lexicographically greatest word of each class (the library's canonical
    word), and the ``graph_checks`` pair by BFS and index-sum parity."""

    def __init__(self, w: Perm):
        classes = sorted(classes_bfs(w), key=max)
        self.canonical = [max(c) for c in classes]
        where = {ls: k for k, c in enumerate(classes) for ls in c}
        self.adj: list[set[int]] = [set() for _ in classes]
        for ls, k in where.items():
            for other in rewrite_neighbors(ls):
                if where[other] != k:
                    self.adj[k].add(where[other])
        seen = frontier = {0}
        while frontier:
            frontier = {y for x in frontier for y in self.adj[x]} - seen
            seen = seen | frontier
        parity = [sum(ls) % 2 for ls in self.canonical]
        self.connected = len(seen) == len(classes)
        self.bipartite = all(parity[u] != parity[v] for u in range(len(classes))
                             for v in self.adj[u])

    def __len__(self) -> int:
        return len(self.adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def induced_cycle_lengths(g, v: int, a: int, b: int) -> set[int]:
    """Lengths (4, 6, or 8) of induced cycles through the edges (v,a), (v,b)."""
    found = set()

    def chordless(cycle: list[int]) -> bool:
        k = len(cycle)
        for i in range(k):
            for j in range(i + 1, k):
                gap = min(j - i, k - (j - i))
                if gap != 1 and g.has_edge(cycle[i], cycle[j]):
                    return False
        return True

    for length in (4, 6, 8):
        # simple paths a -> ... -> b with length-2 edges, avoiding v
        target_edges = length - 2
        stack = [(a, [a])]
        while stack:
            node, path = stack.pop()
            if len(path) - 1 == target_edges:
                if node == b and chordless([v] + path):
                    found.add(length)
                continue
            for nb in sorted(g.neighbors(node)):
                if nb != v and nb not in path:
                    stack.append((nb, path + [nb]))
            # allow ending exactly at b only at full length; handled above
        if found:
            break  # shortest induced cycle decides the verdict
    return found


def within_four_off(g, v: int, a: int, b: int) -> bool:
    """Whether a and b are at most 4 apart in G(w) - v: whether their balls
    of radius 2 there, each found by a BFS over ``g.neighbors``, meet."""

    def ball(x: int) -> set[int]:
        seen = frontier = {x}
        for _ in range(2):
            frontier = {y for z in frontier for y in g.neighbors(z)} - seen - {v}
            seen = seen | frontier
        return seen

    return not ball(a).isdisjoint(ball(b))


def count_subnetworks_brute(word: Word, members: set, m: int) -> int:
    """Subset-by-subset replay with no shared crossing-event precompute."""
    total = 0
    for sub in combinations(range(1, word.n + 1), m):
        chosen = set(sub)
        seq = list(range(1, word.n + 1))
        out = []
        for i in word.letters:
            u, v = seq[i - 1], seq[i]
            if u in chosen and v in chosen:
                rel = [x for x in seq if x in chosen]
                out.append(rel.index(u) + 1)
            seq[i - 1], seq[i] = v, u
        if tuple(out) in members:
            total += 1
    return total


def word_walk_scan(w: Perm) -> dict:
    """Class sizes, edge labels and Y of w, by visiting each reduced word in turn.

    Classes and edges are keyed by canonical words.
    """
    n = len(w)
    sizes: dict[tuple[int, ...], int] = {}
    edges: dict[tuple, set] = {}
    best = -1
    best_word: tuple[int, ...] = ()
    for ls in reduced_letter_seqs(w):
        canon = canonical_letters(ls)
        sizes[canon] = sizes.get(canon, 0) + 1
        windows = [
            p
            for p in range(len(ls) - 2)
            if ls[p] == ls[p + 2] and abs(ls[p + 1] - ls[p]) == 1
        ]
        if len(windows) > best:
            best = len(windows)
            best_word = ls
        for p in windows:
            i = ls[p + 1]
            if i != ls[p] - 1:  # record each edge from its downward side only
                continue
            # the three wires sit at positions i..i+2 just before the window
            seq = list(range(1, n + 1))
            for x in ls[:p]:
                seq[x - 1], seq[x] = seq[x], seq[x - 1]
            wires = tuple(sorted(seq[i - 1 : i + 2]))
            target = canonical_letters(ls[:p] + (i, ls[p], i) + ls[p + 3 :])
            key = (canon, target) if canon < target else (target, canon)
            edges.setdefault(key, set()).add((i, wires))
    return {
        "w": w,
        "word_count": sum(sizes.values()),
        "class_sizes": sizes,
        "edges": {k: frozenset(v) for k, v in edges.items()},
        "max_windows": best,
        "max_window_word": best_word,
    }


def canonical_words_dfs(w: Perm) -> list[tuple[int, ...]]:
    """The canonical words of w (no letter exceeds its predecessor by 2 or
    more), in lexicographic order, by DFS over the left descents of the
    inverse; a frame is skipped when its (state, cap) is known dead."""
    n = len(w)
    done = identity(n)
    q = inverse(w)
    if q == done:
        return [()]

    def descents(q):
        return [i for i in range(1, n) if q[i] < q[i - 1]]

    out, buf, dead = [], [], set()
    frames = [[q, n - 1, iter(descents(q)), False]]  # state, cap, descents, found
    while frames:
        frame = frames[-1]
        q, cap, it, found = frame
        i = next(it, n)
        if i > cap:
            frames.pop()
            if not found:
                dead.add((q, cap))
            if frames:
                buf.pop()
                frames[-1][3] |= found
            continue
        p = q[: i - 1] + (q[i], q[i - 1]) + q[i + 1 :]
        pcap = min(i + 1, n - 1)
        if p == done:
            frame[3] = True
            out.append((*buf, i))
        elif (p, pcap) not in dead:
            buf.append(i)
            frames.append([p, pcap, iter(descents(p)), False])
    return out


def aggregate_by_encodings(n: int, canonicals: dict) -> list:
    """The aggregate report of S_n at each length l >= 1, from the canonical
    words of each w: injective when the encodings at l are all distinct."""
    groups = {l: [] for l in range(1, n * (n - 1) // 2 + 1)}
    for w, canon in canonicals.items():
        if l := sum(1 for i, j in combinations(range(n), 2) if w[i] > w[j]):
            groups[l].append(canon)
    reports = []
    for l, group in groups.items():
        encodings = [bounds.paren_encoding(c) for canon in group for c in canon]
        reports.append(AggregateReport(
            n=n,
            l=l,
            count_perms=len(group),
            sum_classes=len(encodings),
            catalan=catalan(l + n - 1),
            four_power=4 ** (l + n),
            injective=len(set(encodings)) == len(encodings),
        ))
    return reports


def paren_decoding(text: str, l: int) -> tuple[int, ...]:
    """The letter sequence of length l, with no ascent of two or more, whose
    ``paren_encoding`` is text: the first letter is the pair count less
    l - 1, and each later ``)^d(`` run steps down by d - 1.

    >>> paren_decoding('(())((())())', 5)
    (2, 1, 2, 3, 2)
    """
    if not l:
        return ()
    letters = [x := len(text) // 2 - l + 1]
    for run in text[x:].split("(")[:-1]:
        letters.append(x := x + 1 - len(run))
    return tuple(letters)


def graph_as_scan(g) -> dict:
    """A ``ClassGraph`` in the shape ``word_walk_scan`` returns."""
    canon = [c.canonical.letters for c in g.vertices]
    return {
        "w": g.w,
        "word_count": sum(c.size for c in g.vertices),
        "class_sizes": {c.canonical.letters: c.size for c in g.vertices},
        "edges": {(canon[e.u], canon[e.v]): frozenset(e.labels) for e in g.edges},
        "max_windows": g.max_windows,
        "max_window_word": g.max_window_word,
    }


class MoveKind(Enum):
    COMMUTATION = "commutation"
    BRAID_UP = "braid_up"      # window (i, i+1, i); raises the index sum by 1
    BRAID_DOWN = "braid_down"  # window (i+1, i, i+1); lowers the index sum by 1


class Move(NamedTuple):
    kind: MoveKind
    pos: int  # 1-based index of the leftmost letter of the affected window


def list_moves(word: Word) -> list[Move]:
    """All commutation positions and long-braid windows of a reduced word.

    Overlapping windows are each reported.

    >>> [(m.kind.value, m.pos) for m in list_moves(Word((2, 1, 2, 3, 2), 4))]
    [('braid_down', 1), ('braid_up', 3)]
    """
    ls = word.letters
    out = []
    for p in range(len(ls) - 1):
        if abs(ls[p] - ls[p + 1]) >= 2:
            out.append(Move(MoveKind.COMMUTATION, p + 1))
    for p in braid_windows(ls):
        kind = MoveKind.BRAID_UP if ls[p + 1] > ls[p] else MoveKind.BRAID_DOWN
        out.append(Move(kind, p + 1))
    out.sort(key=lambda m: (m.pos, m.kind.value))
    return out


def apply_move(word: Word, move: Move) -> Word:
    """Rewrite the word under the given move; the evaluation is unchanged."""
    ls = list(word.letters)
    p = move.pos - 1
    if move.kind is MoveKind.COMMUTATION:
        if not (0 <= p < len(ls) - 1) or abs(ls[p] - ls[p + 1]) < 2:
            raise InputError(f"no commutation at position {move.pos} of {word.letters}")
        ls[p], ls[p + 1] = ls[p + 1], ls[p]
    else:
        if not (0 <= p < len(ls) - 2):
            raise InputError(f"no 3-letter window at position {move.pos}")
        a, b, c = ls[p : p + 3]
        want_up = move.kind is MoveKind.BRAID_UP
        if a != c or b != (a + 1 if want_up else a - 1):
            raise InputError(
                f"window {ls[p:p + 3]} at position {move.pos} is not a "
                f"{move.kind.value} window"
            )
        ls[p : p + 3] = [b, a, b]
    return Word(tuple(ls), word.n)


def global_dags() -> list[str]:
    """The module globals of redweave that hold a DAG (memo holder)."""
    return [f"{key}.{name}" for key, mod in list(sys.modules.items())
            if key.startswith("redweave") for name, value in vars(mod).items()
            if isinstance(value, _SweepTables)]


def count_212(word: Word) -> int:
    """Number of 212-subnetworks; the rank statistic of the class poset.

    Values a < b < c induce 2,1,2 exactly when each of their three pairs
    crosses once and (b, c) crosses before (a, b): the induced word is
    then one of the two reduced words of 321, and 1,2,1 crosses (a, b)
    first.  Requiring single crossings keeps this equal to
    ``count_subnetworks(word, TOP_212)`` on non-reduced words too.
    """
    steps: dict[tuple[int, int], list[int]] = {}
    for t, (u, v) in enumerate(crossing_events(word)):
        steps.setdefault((min(u, v), max(u, v)), []).append(t)
    once = {pair: ts[0] for pair, ts in steps.items() if len(ts) == 1}
    return sum(
        1
        for a, b, c in combinations(range(1, word.n + 1), 3)
        if (a, c) in once
        and (a, b) in once
        and (b, c) in once
        and once[b, c] < once[a, b]
    )


def contains(w: Perm, p: Perm) -> bool:
    """Whether some subsequence of w standardizes to p: each of its entries
    has as many smaller entries in it as p's entry there has in p."""
    return any(all(sum(y < x for y in sub) == q - 1 for x, q in zip(sub, p))
               for sub in combinations(w, len(p)))


def _occurrences(w: Perm, p: Perm) -> list[set[int]]:
    """The index sets of w's p-patterns, each subsequence standardized as in
    ``contains``."""
    return [set(idx) for idx in combinations(range(len(w)), len(p))
            if all(sum(w[j] < w[i] for j in idx) == q - 1 for i, q in zip(idx, p))]


def friendliness_by_indices(w: Perm, p: Perm) -> tuple:
    """(k, vacuous, pattern_has_321) of ``subnet.friendliness``, on index sets:
    k when every 321-pattern of w lies in exactly k of its p-patterns."""
    if not _occurrences(p, (3, 2, 1)):
        return None, False, False
    triples = _occurrences(w, (3, 2, 1))
    if not triples:
        return 0, True, True
    counts = {sum(t <= o for o in _occurrences(w, p)) for t in triples}
    return counts.pop() if len(counts) == 1 else None, False, True


def grid_labelling_ok(g, spec) -> bool:
    """Whether spec labels G(w) as the box of its dims: the top class of P(w)
    at the origin, the labels a bijection onto the box, the edges its unit
    pairs, and the axes in normal order (dims weakly increasing, ties broken
    by the canonical word of the class labelled e_j).  These fix the labels,
    as the symmetries of a box that keep a corner only swap equal axes."""
    rank = build_poset(g).rank
    tops = [cid for cid, r in rank.items() if r == max(rank.values())]
    box = set(product(*(range(d + 1) for d in spec.dims)))
    k = len(spec.dims)
    if (len(tops) != 1 or spec.labels.get(tops[0]) != (0,) * k
            or set(spec.labels) != {c.id for c in g.vertices}
            or set(spec.labels.values()) != box or len(box) != len(g.vertices)):
        return False
    if (len(g.edges) != sum(d * len(box) // (d + 1) for d in spec.dims)
            or any(sum(abs(x - y) for x, y in zip(spec.labels[e.u], spec.labels[e.v])) != 1
                   for e in g.edges)):
        return False
    at = {point: cid for cid, point in spec.labels.items()}
    keys = [(d, g.vertices[at[tuple(int(h == j) for h in range(k))]].canonical.letters)
            for j, d in enumerate(spec.dims)]
    return keys == sorted(keys)
