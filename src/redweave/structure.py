"""Structural analysis of G(w): free braiding, hypercubes, rectangles, cycles."""

from __future__ import annotations

from enum import Enum
from itertools import combinations, product
from math import prod
from typing import Iterator, NamedTuple

from .classes import ClassGraph
from .errors import InputError, InvariantViolation
from .perm import Perm, _pattern, _triples321
from .words import Word, _Cache, braid_windows, canonical_letters

# Containment of any of these makes G(w) fail to be a rectangle.  The
# list is closed under inversion and under conjugation by w0 (G(w) is
# isomorphic to G(w^-1) via word reversal, to G(w0 w w0) via the letter
# map i -> n - i) and verified complete against grid isomorphism for all
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
    """True iff the 321-patterns of w share no value (and so no position).

    Then no two long braid moves ever interfere, so the classes form a
    hypercube and |G(w)| = 2^Y.  (Testing window overlap within single
    words is not enough: in 4231 the two conflicting moves never appear
    in the same word, yet |G| = 3.)
    """
    return _disjoint(_triples321(w))


def _disjoint(triples: tuple) -> bool:
    """Whether no two triples share an entry: positions and values alike."""
    return len({x for t in triples for x in t}) == 3 * len(triples)


class HypercubeWitness(NamedTuple):
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
    """The first forbidden pattern contained in w, or None; the patterns of w
    of each size are listed once, when first needed (size 4 first: 4321)."""
    found = _Cache(lambda k: _patterns(w, k))  # size -> the patterns of w
    for p in RECT_PATTERNS:
        if p in found[len(p)]:
            return p
    return None


def _patterns(w: Perm, k: int) -> set[Perm]:
    """The patterns of w's k-subsequences, by ``perm._pattern``."""
    return set(map(_pattern, combinations(w, k)))


def is_rectangular(w: Perm) -> bool:
    """Pattern route: w avoids every pattern of ``RECT_PATTERNS``."""
    return rectangular_witness(w) is None


class RectangleSpec(NamedTuple):
    dims: tuple[int, ...]
    labels: dict[int, tuple[int, ...]]  # class id -> lattice point


def rectangle_label(g: ClassGraph) -> RectangleSpec | None:
    """Grid labeling of G(w), read off the triple masks, or None when it
    fails to validate.

    An axis is a connected set of w's 321-triples, two triples linked when
    they share two values, and a class's coordinate on it counts the unset
    bits of its mask there, so the top class (every bit set) is the zero
    vector.  The labels are returned only if they biject onto the box of
    the axes' sizes and the edges are exactly its unit pairs.  The axes are
    sorted by size, ties broken by the canonical word of the class one step
    from the top along the axis.

    >>> from redweave.classes import build_graph
    >>> rectangle_label(build_graph((3, 2, 6, 5, 1, 4))).dims == (1, 2)
    True
    """
    axes: list[tuple[int, set]] = []  # (its triples' mask bits, their value pairs)
    for j, (a, b, c) in enumerate(g._triples):
        bits, pairs = 1 << j, {(a, b), (a, c), (b, c)}
        for axis in [x for x in axes if x[1] & pairs]:
            axes.remove(axis)
            bits, pairs = bits | axis[0], pairs | axis[1]
        axes.append((bits, pairs))
    dims = [bits.bit_count() for bits, _ in axes]
    size = prod(d + 1 for d in dims)
    if size != len(g._canonical):  # before any label: w0_7's box has 2^35 points
        return None
    full = (1 << len(g._triples)) - 1
    labels = {cid: tuple(((full ^ m) & bits).bit_count() for bits, _ in axes)
              for cid, m in enumerate(g._masks)}
    # each label lies in the box, so distinct labels fill it; the edges
    # (distinct pairs) are then its unit pairs when each joins one and they
    # are as many
    if (len(set(labels.values())) != size
            or len(g._pairs) != sum(d * size // (d + 1) for d in dims)
            or any(sum(abs(x - y) for x, y in zip(labels[u], labels[v])) != 1
                   for u, v, _ in g._pairs)):
        return None
    basis = {pt.index(1): cid for cid, pt in labels.items() if sum(pt) == 1}  # axis -> e_j's class
    order = sorted(range(len(dims)),
                   key=lambda j: (dims[j], g._canonical[basis[j]]))
    return RectangleSpec(tuple(dims[j] for j in order),
                         {cid: tuple(pt[j] for j in order) for cid, pt in labels.items()})


class CycleVerdict(Enum):
    FOUR_CYCLE = "four_cycle"
    EIGHT_CYCLE = "eight_cycle"
    NO_INDUCED_CYCLE = "no_induced_cycle"


def classify_edge_pair(g: ClassGraph, v: int, a: int, b: int) -> CycleVerdict:
    """The shortest induced cycle of G(w) through the edges (v,a) and (v,b).

    A 4-cycle when the mask v ^ a ^ b is a class: in the hypercube, it and v
    are the only common neighbours of a and b.  Otherwise an 8-cycle when some
    path a -> b of 6 edges keeps its inner vertices off v and its neighbours
    and has no chord; a DFS finds one, dropping any vertex adjacent to an
    earlier vertex of the path or more bit flips from b than the path has
    edges left (an edge flips one bit).  Otherwise there is none.
    """
    if not all(0 <= x < len(g) for x in (v, a, b)):
        raise InputError(f"vertices {v}, {a}, {b} are not all in 0..{len(g) - 1}")
    if a == b or not g.has_edge(v, a) or not g.has_edge(v, b):
        raise InputError(f"need two distinct edges at vertex {v}")
    m = g._masks
    if m[v] ^ m[a] ^ m[b] in g._ids:  # induced, as G(w) is bipartite
        return CycleVerdict.FOUR_CYCLE
    found = _closes_chordless(g, [m[a]], m[v], m[b])
    return CycleVerdict.EIGHT_CYCLE if found else CycleVerdict.NO_INDUCED_CYCLE


def _edge_pair_verdicts(g: ClassGraph) -> Iterator[tuple[int, int, int, CycleVerdict]]:
    """(v, a, b, verdict) for each vertex v of G(w) and each pair a < b of its
    neighbours, by v: ``classify_edge_pair`` of every incident edge pair."""
    for v in range(len(g)):
        for a, b in combinations(sorted(g.neighbors(v)), 2):
            yield v, a, b, classify_edge_pair(g, v, a, b)


def _closes_chordless(g: ClassGraph, path: list[int], v: int, b: int) -> bool:
    """Whether path, off v and its neighbours (all masks), extends to a and five inner
    vertices that close at b with no chord: a module function, so no closure keeps G(w) alive."""
    if len(path) == 6:
        return (path[-1] ^ b).bit_count() == 1 and all((b ^ y).bit_count() > 1 for y in path[:-1])
    for j in range(g.n321):
        x = path[-1] ^ (1 << j)
        if (x not in g._ids or (x ^ b).bit_count() > 6 - len(path) or (x ^ v).bit_count() < 2
                or any((x ^ y).bit_count() == 1 for y in path[:-1])):
            continue
        path.append(x)
        if _closes_chordless(g, path, v, b):
            return True
        path.pop()
    return False

