"""Reduced words: evaluation, enumeration, braid moves, canonical forms.

Letters are 1-based and act on positions: letter i swaps the entries at
positions i and i+1 of the one-line notation.  A word is reduced when its
length equals the inversion number of the permutation it evaluates to.
The reduced words of w are the paths from w to the identity in the
weak-order DAG, whose children ``kids`` computes afresh.  The walks over
it (|R(w)|, the reduced words, the canonical words with their triple masks
and their count |G(w)|, and Y) live here, each on a memo it is given, of the
layout that ``_SweepTables`` holds.
The Warrington counts are a least-weight path fold on the same DAG.
"""

from __future__ import annotations

from math import comb, inf
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import BudgetExceeded, InputError, WORD_BUDGET_DEFAULT
from .perm import Perm, _ints, identity, inverse, inversions, longest_element

Letters = tuple[int, ...]


class Word(NamedTuple):
    letters: Letters
    n: int  # ambient size: letters range over 1..n-1


def word_of(letters, n: int) -> Word:
    letters = tuple(int(x) for x in letters)
    bad = [x for x in letters if not 1 <= x <= n - 1]
    if bad:
        raise InputError(f"letters {bad} out of range 1..{n - 1}")
    return Word(letters, n)


def parse_word(text: str, n: int) -> Word:
    """Parse "2,1,3,2,3", "2 1 3 2 3", or compact digits "21323" (letters <= 9)."""
    try:
        letters = _ints(text)
    except ValueError:
        raise InputError(f"cannot parse word: {text.strip()!r}") from None
    return word_of(letters, n)


def evaluate(word: Word) -> tuple[Perm, bool]:
    """Apply the letters left to right to the identity.

    Returns the resulting permutation and whether the word is reduced.

    >>> evaluate(Word((1, 2, 1, 3, 2), 4))
    ((3, 4, 2, 1), True)
    >>> evaluate(Word((1, 1), 3))
    ((1, 2, 3), False)
    """
    seq = list(range(1, word.n + 1))
    for i in word.letters:
        if not 1 <= i <= word.n - 1:
            raise InputError(f"letter {i} out of range for n={word.n}")
        seq[i - 1], seq[i] = seq[i], seq[i - 1]
    w = tuple(seq)
    return w, len(word.letters) == inversions(w)


def index_sum(word: Word) -> int:
    return sum(word.letters)


def crossing_events(word: Word) -> list[tuple[int, int]]:
    """The value pairs swapped by each letter, in order (left value first)."""
    seq = list(range(1, word.n + 1))
    events = []
    for i in word.letters:
        u, v = seq[i - 1], seq[i]
        seq[i - 1], seq[i] = v, u
        events.append((u, v))
    return events


class _SweepTables:
    """The memos of G(w)'s walks over the weak-order DAG below w, one dict each.

    A state is the inverse q of a permutation (q[v-1] is the position of
    v), and ``kids(q)`` are its children.  ``live[q]`` keeps the children
    that a canonical word can take, as runs (letters, below, c): after
    letter i the next may be at most i + 1, and a run goes on while that
    leaves one live child.  ``below`` is the live runs after it, cut to that
    cap (empty at the identity), and c > 0 counts the canonical words
    through it.  ``best`` is the Y DP's memo.  A walk fills the memo it is
    given and expands only the states that it does not hold yet.  A G(w)
    built alone gets a holder of its own, which fills only what G(w) reads;
    a sweep gets one for all its w, filled below the first (w0 of S_n in a
    scan) before any job runs or any worker starts.
    """

    def __init__(self) -> None:
        self.live: dict[Perm, tuple] = {}
        self.best: dict[tuple[Perm, int, int], int] = {}


def kids(q: Perm) -> tuple[tuple[int, Perm], ...]:
    """(i, s_i q) per left descent i of the state q (q[i] < q[i-1]), ascending:
    a reduced word of q is i followed by one of s_i q; the identity has none."""
    return tuple([(i, q[: i - 1] + (q[i], q[i - 1]) + q[i + 1 :])
                  for i in range(1, len(q)) if q[i] < q[i - 1]])


def _fill(memo: dict, root, below, value):
    """memo[k] = value(below(k)) for each key k below root, children first,
    and then memo[root]; ``below(k)`` lists k's children as (letter, key, ...).
    What is pushed while k waits lies below k, so each key is expanded at
    most once per memo."""
    stack: list[tuple] = [(root, None)]
    while stack:
        k, ks = stack.pop()
        if ks is not None:  # every key below k is valued by now
            memo[k] = value(ks)
        elif k not in memo:
            ks = below(k)
            stack.append((k, ks))
            stack += [(e[1], None) for e in ks if e[1] not in memo]
    return memo[root]


def _paths(steps: Callable, root) -> Iterator[Letters]:
    """The letters along each path from root to a node with no steps, in the
    order of the steps; ``steps(x)`` lists x's steps as (letters, next, ...).
    A DFS on an explicit stack, which reads a node's steps when it gets there."""
    buf: list[int] = []
    frames = [(iter(steps(root)), 0)]  # the steps left, and len(buf) before them
    if not steps(root):
        yield ()
    while frames:
        more, mark = frames[-1]
        step = next(more, None)
        if step is None:
            frames.pop()
            del buf[mark:]
        elif nxt := steps(step[1]):
            frames.append((iter(nxt), len(buf)))
            buf += step[0]
        else:
            yield (*buf, *step[0])


class _Cache(dict):
    """f(key), computed on the first read of ``self[key]`` and kept: a walk's
    cache of f, keyed by the argument itself (``functools.cache`` keeps a
    1-tuple around each, 2 MB more at the peak of Y on w0_8)."""

    def __init__(self, f: Callable) -> None:
        self.f = f

    def __missing__(self, key):
        return self.setdefault(key, self.f(key))


def reduced_letter_seqs(w: Perm) -> Iterator[Letters]:
    """The reduced letter sequences of w, streamed lexicographically: the
    DAG's paths from w, letters ascending.  The walk reads a state's
    children when it first gets there and keeps them until it ends."""
    steps = _Cache(lambda q: tuple([((i,), p) for i, p in kids(q)]))
    return _paths(steps.__getitem__, inverse(w))


def _live_runs(w: Perm, live: dict) -> tuple:
    """The live runs from the state of w (empty for the identity), on the memo ``live``."""
    def runs(ks: tuple) -> tuple:
        out = []
        for i, p in ks:
            below = tuple(run for run in live[p] if run[0][0] <= i + 1)
            if len(below) == 1:  # the next letter is forced: the run goes on
                letters, below, c = below[0]
                out.append(((i, *letters), below, c))
            elif below or not live[p]:  # no live run below: p is the identity
                out.append(((i,), below, sum(run[2] for run in below) or 1))
        return tuple(out)

    return _fill(live, inverse(w), kids, runs)


def _canonical_words(w: Perm, live: dict, triples: tuple) -> tuple[tuple, tuple[int, ...]]:
    """The canonical words of w in lexicographic order (no letter exceeds its
    predecessor by two or more: the greatest of a class), the paths over the
    live runs, and their masks: bit j is set when (b, c) crosses before (a, b)
    for the j-th of ``triples``.  A frame, pushed only where paths branch, holds
    the word, wires, mask and triples whose (b, c) crossed, so each run is
    crossed once per branch of the prefix tree."""
    n = len(w)
    ab, bc = ([[0] * (n + 1) for _ in range(n + 1)] for _ in "ab")  # the triples of each pair
    for j, (a, b, c) in enumerate(triples):
        ab[a][b] |= 1 << j
        bc[b][c] |= 1 << j
    found, masks = [], []
    frames = [(iter(_live_runs(w, live) or (((), (), 1),)), (), list(range(n + 1)), 0, 0)]
    while frames:
        more, word, seq, mask, crossed = frames[-1]  # seq[p]: the wire at position p
        if (run := next(more, None)) is None:
            frames.pop()
            continue
        word, seq = word + run[0], seq[:]
        for i in run[0]:
            u, v = seq[i], seq[i + 1]
            seq[i], seq[i + 1] = v, u
            mask |= ab[u][v] & crossed
            crossed |= bc[u][v]
        if run[1]:
            frames.append((iter(run[1]), word, seq, mask, crossed))
        else:
            found.append(word)
            masks.append(mask)
    return tuple(found), tuple(masks)


def _class_count(w: Perm, live: dict) -> int:
    """|G(w)|, the number of canonical words: the root's live path count."""
    return sum(run[2] for run in _live_runs(w, live)) or 1


def _least_weight_paths(w: Perm, weight: list[int], canonical: bool) -> tuple[float, int]:
    """(least weight, number of paths at it) over the reduced words of w, a
    word weighing the sum of ``weight[i]`` over its letters i; over the
    canonical words alone, one per class, when ``canonical``.

    A key is (state, cap): the next letter is at most cap, the last letter
    + 1 on a canonical word and len(w) on any word.  The identity's one
    path is seeded, so any other key with no step is a dead end, (inf, 0).
    """
    n = len(w)
    memo = {(identity(n), cap): (0, 1) for cap in range(n + 1)}

    def below(key: tuple[Perm, int]) -> list:
        q, cap = key
        return [(i, (p, i + 1 if canonical else n)) for i, p in kids(q) if i <= cap]

    def value(ks: list) -> tuple[float, int]:
        least = min([memo[k][0] + weight[i] for i, k in ks], default=inf)
        return least, sum([memo[k][1] for i, k in ks if memo[k][0] + weight[i] == least])

    return _fill(memo, (inverse(w), n), below, value)


def _w0_letter_weights(n: int) -> list[int]:
    """Letter i's weight (i - 1)(n - i - 1) in Warrington's closed form, by i."""
    return [(i - 1) * (n - i - 1) for i in range(n)]


def _warrington_count(n: int, classes: bool = False, budget: int = WORD_BUDGET_DEFAULT) -> int:
    """The reduced words of n, n-1, ..., 1 (its commutation classes, with
    ``classes``) that have no ``subnet.WARRINGTON_X`` subnetwork.

    By Warrington's closed form (``subnet.predicted_count_w0_s4``) a word
    has its letter weight less 2 C(n, 4) such subnetworks.  That is never
    negative, so the avoiding words are the least-weight paths of the DAG
    when the least weight is 2 C(n, 4), and there are none otherwise.  The
    weight is constant on a class.  Refused, as G(w) is, when w has more
    than budget reduced words.

    >>> _warrington_count(4), _warrington_count(4, classes=True)
    (12, 4)
    """
    if n < 1:
        raise InputError(f"n = {n} is below 1")
    w = longest_element(n)
    _within_budget(w, budget)
    least, count = _least_weight_paths(w, _w0_letter_weights(n), classes)
    return count if least == 2 * comb(n, 4) else 0


def _most_windows(w: Perm, best: dict) -> tuple[int, Letters]:
    """Y and the lexicographically least reduced word with Y braid windows.

    best(q, a, b) is the most windows a word can still gain from state q
    when its last two letters are a, b; a is kept only while it can
    close a window (|a - b| = 1), which keeps the memo small.  The DP
    runs on an explicit stack and fills ``best``.  It reads a state once
    per (a, b), so it keeps the children it reads, for the traceback too.
    """
    below = _Cache(kids).__getitem__

    def options(key: tuple[Perm, int, int]):
        """(letter, next key, windows gained) per letter, ascending."""
        q, a, b = key
        return [(i, (p, b if abs(b - i) == 1 else 0, i), int(a == i)) for i, p in below(q)]

    key, word = (inverse(w), 0, 0), []
    y = left = _fill(best, key, options, lambda o: max([g + best[k] for _, k, g in o], default=0))
    while opts := options(key):  # take the first option that gains all ``left`` still to gain
        i, key, gain = next(o for o in opts if o[2] + best[o[1]] == left)
        word.append(i)
        left -= gain
    return y, tuple(word)


def _within_budget(w: Perm, budget: int, memo: dict | None = None) -> int:
    """|R(w)| on ``memo`` (a fresh one if None), refused past budget: the word
    budget's one check, made before any other walk of w, and the one count of |R(w)|.

    It refuses at the first state it fills with more than budget paths to the
    identity.  A state q below w has |R(q)| <= |R(w)|, as a path from w to q
    goes in front of each word of q, so it refuses exactly the w with more
    than budget words, and the memo it fills serves that budget alone.
    """
    words = {} if memo is None else memo

    def count(ks: tuple) -> int:
        total = sum([words[p] for _, p in ks]) or 1
        if total > budget:
            raise BudgetExceeded(f"at least {total} reduced words exceed the budget of {budget}")
        return total

    return _fill(words, inverse(w), kids, count)


def _all_within_budget(perms: Iterable[Perm], budget: int) -> None:
    """``_within_budget`` on each w of perms in turn, on one word-count memo
    that is freed on return: the first refusal in that order is raised."""
    counts: dict[Perm, int] = {}
    for w in perms:
        _within_budget(w, budget, counts)


def count_reduced_words(w: Perm) -> int:
    """|R(w)|, on a memo of its own.

    >>> count_reduced_words((4, 3, 2, 1))
    16
    """
    return _within_budget(w, inf)


def enumerate_reduced_words(w: Perm, budget: int = WORD_BUDGET_DEFAULT) -> Iterator[Word]:
    """Every reduced word of w exactly once, lexicographic by letters."""
    _within_budget(w, budget)
    return (Word(ls, len(w)) for ls in reduced_letter_seqs(w))


def braid_windows(letters: Letters) -> list[int]:
    """0-based positions p where letters[p:p+3] is a long-braid window."""
    return [
        p
        for p in range(len(letters) - 2)
        if letters[p] == letters[p + 2] and abs(letters[p + 1] - letters[p]) == 1
    ]


def canonical_letters(letters: Letters) -> Letters:
    """Lexicographically greatest word reachable by commutations alone.

    The result has every adjacent commuting pair with the larger letter
    on the left, which identifies the commutation class uniquely; it is
    computed by inserting each letter as far left as commutations allow.

    >>> canonical_letters((1, 2, 1, 3, 2))
    (1, 2, 3, 1, 2)
    """
    out: list[int] = []
    for x in letters:
        j = len(out)
        while j > 0 and out[j - 1] <= x - 2:
            j -= 1
        out.insert(j, x)
    return tuple(out)


def canonical_form(word: Word) -> Word:
    return Word(canonical_letters(word.letters), word.n)
