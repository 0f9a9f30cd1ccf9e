"""Structural analysis of G(w): free braiding, hypercubes, rectangles, cycles."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

from .classes import ClassGraph, RankedPoset
from .errors import InputError, InvariantViolation
from .perm import Perm, avoids, pattern_occurrences
from .words import Word, braid_windows, canonical_letters

# Containment of any of these makes G(w) fail to be a rectangle.  The
# list is closed under inversion (G(w) and G(w^-1) are isomorphic via
# word reversal) and verified complete against grid isomorphism for all
# of S_6: the classical triple 4321, 42531, 53142 alone misses e.g.
# 45231, whose graph is a 4-cycle with two pendant edges.
RECT_PATTERNS: tuple[Perm, ...] = (
    (4, 3, 2, 1),
    (4, 2, 5, 3, 1),
    (5, 3, 1, 4, 2),
    (5, 2, 4, 1, 3),
    (3, 5, 2, 4, 1),
    (4, 5, 2, 3, 1),
    (5, 3, 4, 1, 2),
    (4, 5, 3, 1, 2),
)


def is_freely_braided(w: Perm) -> bool:
    """True iff the 321-patterns of w occupy pairwise disjoint position sets.

    Then no two long braid moves ever interfere, so the classes form a
    hypercube and |G(w)| = 2^Y.  (Testing window overlap within single
    words is not enough: in 4231 the two conflicting moves never appear
    in the same word, yet |G| = 3.)
    """
    return _disjoint(tuple(pattern_occurrences(w, (3, 2, 1))))


def _disjoint(triples: tuple) -> bool:
    """Whether no two triples share an entry: positions and values alike."""
    return len({x for t in triples for x in t}) == 3 * len(triples)


@dataclass(frozen=True)
class HypercubeWitness:
    dimension: int
    base_word: Word
    # bit vector over the chosen disjoint moves -> class id in G(w)
    classes: dict[tuple[int, ...], int]


def embed_hypercube(g: ClassGraph) -> HypercubeWitness:
    """A hypercube of dimension >= ceil(Y/2) realized inside G(w).

    Starts from the lexicographically least word attaining Y, applies
    every subset of its same-direction braid moves (those are pairwise
    disjoint), and verifies the resulting classes form a hypercube.
    """
    ls = g.max_window_word
    windows = braid_windows(ls)
    down = [p for p in windows if ls[p + 1] == ls[p] - 1]
    up = [p for p in windows if ls[p + 1] == ls[p] + 1]
    chosen = down if len(down) >= len(up) else up
    k = len(chosen)
    need = (g.max_windows + 1) // 2
    if k < need or any(q - p < 3 for p, q in zip(chosen, chosen[1:])):
        raise InvariantViolation(
            f"same-direction moves of {ls} are not {need} disjoint windows"
        )
    classes: dict[tuple[int, ...], int] = {}
    for bits in product((0, 1), repeat=k):
        cur = list(ls)
        for bit, p in zip(bits, chosen):
            if bit:
                x, y = cur[p], cur[p + 1]
                cur[p : p + 3] = [y, x, y]
        classes[bits] = g.class_by_canonical(canonical_letters(tuple(cur))).id
    if len(set(classes.values())) != 2**k:
        raise InvariantViolation(f"subsets of moves of {ls} collide in G({g.w})")
    for bits, cid in classes.items():
        for j in range(k):
            other = bits[:j] + (1 - bits[j],) + bits[j + 1 :]
            if not g.has_edge(cid, classes[other]):
                raise InvariantViolation(
                    f"missing hypercube edge {bits} -- {other} in G({g.w})"
                )
    return HypercubeWitness(k, Word(ls, g.n), classes)


def rectangular_witness(w: Perm) -> Perm | None:
    """The first forbidden pattern contained in w, or None."""
    for p in RECT_PATTERNS:
        if not avoids(w, p):
            return p
    return None


def is_rectangular(w: Perm) -> bool:
    """Pattern route: 4321-, 42531-, and 53142-avoiding."""
    return rectangular_witness(w) is None


@dataclass(frozen=True)
class RectangleSpec:
    dims: tuple[int, ...]
    labels: dict[int, tuple[int, ...]]  # class id -> lattice point


def _on_four_cycle(g: ClassGraph, v: int, a: int, b: int) -> bool:
    # edges (v, a) and (v, b) lie on a common 4-cycle: a and b share a
    # neighbour other than v (G(w) is bipartite, so the 4-cycle is induced)
    return any(c != v and g.has_edge(c, b) for c in g.neighbors(a))


def rectangle_label(g: ClassGraph, poset: RankedPoset) -> RectangleSpec | None:
    """Grid labeling of G(w), or None when it fails to validate.

    Walks the class poset from its top: the unique maximum gets the zero
    vector, its covers get basis vectors, and each lower class gets
    either 2*v1 - v2 across a straight (non-commuting) edge pair or the
    join (coordinatewise max) of its covers' labels.  The result is
    returned only if it is a bijection onto a grid matching the graph's
    adjacency exactly.
    """
    rank = poset.rank
    maxr = max(rank.values())
    rows: dict[int, list[int]] = {}
    for cid, r in rank.items():
        rows.setdefault(r, []).append(cid)
    if len(rows[maxr]) != 1:
        return None
    top = rows[maxr][0]
    covered = sorted(
        g.neighbors(top), key=lambda cid: g.vertices[cid].canonical.letters
    )
    k = len(covered)
    labels: dict[int, tuple[int, ...]] = {top: (0,) * k}
    for j, cid in enumerate(covered):
        if rank[cid] != maxr - 1:
            return None
        labels[cid] = tuple(1 if h == j else 0 for h in range(k))
    for r in range(maxr - 2, -1, -1):
        for v in rows[r]:
            ups = [u for u in g.neighbors(v) if rank[u] == r + 1]
            if not ups or any(u not in labels for u in ups):
                return None
            candidates = []
            for v1 in ups:
                for v2 in g.neighbors(v1):
                    if rank[v2] == r + 2 and not _on_four_cycle(g, v1, v, v2):
                        candidates.append(
                            tuple(
                                2 * a - b for a, b in zip(labels[v1], labels[v2])
                            )
                        )
            if candidates:
                if len(set(candidates)) != 1:
                    return None
                labels[v] = candidates[0]
            else:
                labels[v] = tuple(max(pt) for pt in zip(*(labels[u] for u in ups)))
    if len(labels) != len(g.vertices) or len(rows.get(0, [])) != 1:
        return None
    dims = labels[rows[0][0]]
    if any(d < 1 for d in dims):
        return None
    grid = set(product(*(range(d + 1) for d in dims)))
    if set(labels.values()) != grid or len(set(labels.values())) != len(labels):
        return None
    ids = [c.id for c in g.vertices]
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            diff = [abs(a - b) for a, b in zip(labels[u], labels[v])]
            unit = sum(diff) == 1
            if g.has_edge(u, v) != unit:
                return None
    # normalize coordinate order: dims weakly increasing, ties broken by the
    # canonical word of the basis class on that axis
    order = sorted(
        range(k), key=lambda j: (dims[j], g.vertices[covered[j]].canonical.letters)
    )
    dims = tuple(dims[j] for j in order)
    labels = {cid: tuple(pt[j] for j in order) for cid, pt in labels.items()}
    return RectangleSpec(dims, labels)


class CycleVerdict(Enum):
    FOUR_CYCLE = "four_cycle"
    EIGHT_CYCLE = "eight_cycle"
    NO_INDUCED_CYCLE = "no_induced_cycle"


def classify_edge_pair(g: ClassGraph, v: int, a: int, b: int) -> CycleVerdict:
    """The shortest induced cycle of G(w) through the edges (v,a) and (v,b).

    A 4-cycle when a and b share a neighbour other than v.  Otherwise an
    8-cycle when some path a -> b of 6 edges keeps its inner vertices
    off v and its neighbours and has no chord; a DFS finds one, dropping
    any vertex adjacent to an earlier vertex of the path.  Otherwise
    there is none.
    """
    if a == b or not g.has_edge(v, a) or not g.has_edge(v, b):
        raise InputError(f"need two distinct edges at vertex {v}")
    if _on_four_cycle(g, v, a, b):
        return CycleVerdict.FOUR_CYCLE
    blocked = g.neighbors(v) | {v}
    path = [a]

    def extend() -> bool:
        if len(path) == 6:  # a and five inner vertices: close at b
            return g.has_edge(path[-1], b) and not any(
                g.has_edge(u, b) for u in path[:-1]
            )
        for x in g.neighbors(path[-1]):
            if x in blocked or any(g.has_edge(u, x) for u in path[:-1]):
                continue
            path.append(x)
            if extend():
                return True
            path.pop()
        return False

    return CycleVerdict.EIGHT_CYCLE if extend() else CycleVerdict.NO_INDUCED_CYCLE

