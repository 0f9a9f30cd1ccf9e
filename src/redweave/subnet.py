"""Induced words on value subsets and subnetwork counting.

A word of w induces, on any m chosen values, the record of their mutual
crossings expressed in the alphabet 1..m-1.  A subset whose induced word
lies in a prescribed set X is an X-subnetwork.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple

from . import classes
from .classes import ClassGraph, build_graph, class_members
from .errors import InputError
from .perm import Perm, _ints, _triples321, longest_element, pattern_occurrences
from .words import (Letters, Word, _w0_letter_weights, crossing_events, evaluate, index_sum,
                    reduced_letter_seqs)


class WordSet(NamedTuple):
    """A finite set of reduced words, all evaluating to one permutation of size m."""

    words: frozenset[Letters]
    m: int
    perm: Perm | None  # the common evaluation; None for the empty set


def word_set(words: Iterable[Letters], m: int) -> WordSet:
    ws = frozenset(tuple(w) for w in words)
    perm = None
    for ls in ws:
        p, reduced = evaluate(Word(ls, m))
        if not reduced:
            raise InputError(f"{ls} is not reduced over 1..{m - 1}")
        if perm is None:
            perm = p
        elif p != perm:
            raise InputError(f"words evaluate to different permutations: {perm} vs {p}")
    return WordSet(ws, m, perm)


# The set from the S_4 longest-word enumeration formula; digits 123212 etc.
WARRINGTON_X = word_set(
    [(1, 2, 3, 2, 1, 2), (3, 2, 1, 2, 3, 2), (2, 1, 2, 3, 2, 1), (2, 3, 2, 1, 2, 3)], 4
)

# The top commutation class of 321: the rank statistic of the class poset.
TOP_212 = word_set([(2, 1, 2)], 3)


def s4_longest_classes() -> list[WordSet]:
    """The commutation classes of the longest word of S_4, each as a WordSet."""
    g = build_graph((4, 3, 2, 1))
    return [word_set(class_members(c), 4) for c in g._canonical]


def _preset(text: str) -> WordSet:
    if text == "warrington-x":
        return WARRINGTON_X
    _, _, k = text.partition(":")
    try:
        if int(k) >= 0:  # a negative index would count from the end
            return s4_longest_classes()[int(k)]
    except (ValueError, IndexError):
        pass
    raise InputError("expected s4-longest-classes:K with K in 0..7")


def parse_word_set(text: str, m: int | None = None) -> WordSet:
    """Parse a semicolon-separated word set or a named preset.

    Presets: "warrington-x", "s4-longest-classes:K" for K in 0..7; an m
    other than the preset's size is refused.
    """
    if m is not None and m < 1:
        raise InputError(f"pattern size m = {m} is below 1")
    text = text.strip()
    if text == "warrington-x" or text.startswith("s4-longest-classes"):
        preset = _preset(text)
        if m not in (None, preset.m):
            raise InputError(f"{text} has pattern size m = {preset.m}, not {m}")
        return preset
    try:
        words = [tuple(_ints(c)) for c in text.split(";") if c.strip()]
    except ValueError:
        raise InputError(f"cannot parse word set: {text!r}") from None
    if not words and m is None:
        raise InputError("empty word set needs an explicit pattern size m")
    if m is None:
        m = max(max(w) for w in words) + 1
    return word_set(words, m)


def _induced(events: list[tuple[int, int]], subset: tuple[int, ...]) -> Letters:
    chosen = set(subset)
    order = list(subset)
    out = []
    for u, v in events:
        if u in chosen and v in chosen:
            j = order.index(u)
            order[j], order[j + 1] = order[j + 1], order[j]
            out.append(j + 1)
    return tuple(out)


def induced_word(word: Word, subset: Iterable[int]) -> Word:
    """The reduced word a subset of values traces out under a word of w.

    Whenever a letter crosses two chosen values that are currently the
    j-th and (j+1)-th chosen values from the left, the letter j is
    emitted.

    >>> induced_word(Word((1, 2, 1, 3, 2), 4), [1, 2, 4]).letters
    (1, 2, 1)
    """
    sub = tuple(sorted(set(int(v) for v in subset)))
    if not sub or sub[0] < 1 or sub[-1] > word.n:
        raise InputError(f"subset {sub} not within 1..{word.n}")
    return Word(_induced(crossing_events(word), sub), len(sub))


def _subnetworks(word: Word, x: WordSet) -> Iterator[tuple[int, ...]]:
    """The m-value subsets whose induced word lies in x, one at a time."""
    if x.m > word.n or not x.words:
        return
    events = crossing_events(word)
    members = x.words
    for sub in combinations(range(1, word.n + 1), x.m):
        if _induced(events, sub) in members:
            yield sub


def _avoids(word: Word, x: WordSet) -> bool:
    """No X-subnetwork; stops at the first one found."""
    return next(_subnetworks(word, x), None) is None


def count_subnetworks(word: Word, x: WordSet) -> int:
    """Number of m-value subsets whose induced word lies in x."""
    return sum(1 for _ in _subnetworks(word, x))


def _closed(x: WordSet) -> bool:
    """Whether X is a union of commutation classes."""
    return all(class_members(ls) <= x.words for ls in x.words)


def count_x_avoiding_words(g: ClassGraph, x: WordSet) -> int:
    """How many reduced words of w induce no X-subnetwork at all.

    When X is a union of commutation classes, the subnetwork count is
    constant on each class of w, so a class is tested once through its
    canonical word and counted with its size.  Otherwise every reduced
    word of w is tested, as ``reduced_letter_seqs`` streams it.
    """
    if _closed(x):
        return sum(classes._class_size(c, g.n) for c in g._canonical
                   if _avoids(Word(c, g.n), x))
    return sum(1 for ls in reduced_letter_seqs(g.w) if _avoids(Word(ls, g.n), x))


def count_x_avoiding_classes(g: ClassGraph, x: WordSet) -> int:
    """How many commutation classes of w are X-avoiding, each tested through
    its canonical word: sound only if X is a union of commutation classes, so
    any other X is refused, as a class of w could both avoid and contain it."""
    if not _closed(x):
        raise InputError("X is not a union of commutation classes")
    return sum(1 for c in g._canonical if _avoids(Word(c, g.n), x))


class Friendliness(NamedTuple):
    k: int | None        # None when w is not p-friendly
    vacuous: bool        # w has no 321-pattern at all
    pattern_has_321: bool


def friendliness(w: Perm, p: Perm) -> Friendliness:
    """The constant k if every 321-triple of w sits in exactly k p-patterns (as value sets)."""
    if not _triples321(p):
        return Friendliness(None, False, False)
    triples = [set(t) for t in _triples321(w)]
    if not triples:
        return Friendliness(0, True, True)
    occs = [{w[i] for i in o} for o in pattern_occurrences(w, p)]
    counts = {sum(1 for o in occs if t <= o) for t in triples}
    if len(counts) == 1:
        return Friendliness(counts.pop(), False, True)
    return Friendliness(None, False, True)


class FriendlyPrediction(NamedTuple):
    predicted: int
    actual: int
    k: int
    c: int  # index sum of the lowest class of w
    x: WordSet


def _check_word_of(w: Perm, word: Word) -> None:
    if evaluate(word) != (w, True):
        raise InputError(f"{word.letters} is not a reduced word of {w}")


def _top_class(p: Perm) -> WordSet:
    """The commutation class of p with the highest index sum, as a WordSet."""
    top = max(build_graph(p)._canonical, key=lambda c: (sum(c), c))
    return word_set(class_members(top), len(p))


def predicted_count_friendly(g: ClassGraph, word: Word, p: Perm) -> FriendlyPrediction:
    """k * index_sum(word) - c, alongside the directly counted value.

    Applies when p has exactly one 321-pattern, w is p-friendly with
    constant k, X is the top commutation class of p, and c is the index
    sum of the lowest commutation class of w.
    """
    w = g.w
    if len(_triples321(p)) != 1:
        raise InputError(f"pattern {p} must contain exactly one 321-pattern")
    fr = friendliness(w, p)
    if fr.k is None:
        raise InputError(f"{w} is not {p}-friendly")
    _check_word_of(w, word)
    x = _top_class(p)
    c = min(map(sum, g._canonical))  # the index sum, a class invariant
    predicted = fr.k * index_sum(word) - c
    return FriendlyPrediction(predicted, count_subnetworks(word, x), fr.k, c, x)


def predicted_count_w0_s4(word: Word, n: int) -> int:
    """Closed form for the WARRINGTON_X subnetwork count on words of n,n-1,...,1."""
    wp, reduced = evaluate(word)
    if wp != longest_element(n) or not reduced:
        raise InputError(f"{word.letters} is not a reduced word of the longest element of S_{n}")
    weight = _w0_letter_weights(n)
    return sum(weight[i] for i in word.letters) - 2 * comb(n, 4)


def reverse_word(word: Word) -> tuple[Word, bool]:
    """The reversed word and whether it still evaluates to the same permutation.

    The reverse always evaluates to the inverse, so the flag holds
    exactly for involutions.
    """
    rev = Word(word.letters[::-1], word.n)
    return rev, evaluate(rev)[0] == evaluate(word)[0]


def complement_word(word: Word) -> tuple[Word, bool]:
    """Letters mapped r -> n-r, and whether the evaluation is unchanged."""
    comp = Word(tuple(word.n - r for r in word.letters), word.n)
    return comp, evaluate(comp)[0] == evaluate(word)[0]
