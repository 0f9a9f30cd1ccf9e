"""Reduced words: evaluation, enumeration, braid moves, canonical forms.

Letters are 1-based and act on positions: letter i swaps the entries at
positions i and i+1 of the one-line notation.  A word is reduced when its
length equals the inversion number of the permutation it evaluates to.
The reduced words of w are the paths from w to the identity in the
weak-order DAG (``_SweepTables``) that the word count, the word DFS and
``classes`` read: one per sweep, else one per walk, dropped on return.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import BudgetExceeded, InputError, WORD_BUDGET_DEFAULT
from .perm import Perm, inverse, inversions

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
    text = text.strip()
    if not text:
        return Word((), n)
    if "," in text or " " in text:
        parts = text.replace(",", " ").split()
    else:
        parts = list(text)
    try:
        letters = [int(p) for p in parts]
    except ValueError:
        raise InputError(f"cannot parse word: {text!r}") from None
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


def is_reduced(word: Word) -> bool:
    return evaluate(word)[1]


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
    """The weak-order DAG of the states below w, which every walk reads.

    A state is the inverse q of a permutation (q[v-1] is the position of
    v).  ``kids(q)`` is (i, s_i q) per left descent i of q (q[i] < q[i-1]),
    ascending, expanded on first read: a reduced word of q is i followed
    by one of s_i q, and the identity has none.  ``words[q]`` is |R(q)|.
    ``live[q]`` keeps the children that a canonical word can take (see
    ``classes``), as runs (letters, below, c): after letter i the next
    may be at most i + 1, and a run goes on while that leaves one live
    child.  ``below`` is the live runs after it, cut to that cap (empty
    at the identity), and c > 0 counts the canonical words through it.
    ``best`` is the Y DP's memo.  Only a sweep shares a DAG, one for all
    of S_n, so each state is expanded once per sweep.  Elsewhere each walk
    builds its own and drops it (G(w) and Y expand each state thrice), and
    one that reads each state once keeps no children (``keep_kids=False``).
    """

    def __init__(self, keep_kids: bool = True) -> None:
        self.keep_kids = keep_kids
        self._kids: dict[Perm, tuple[tuple[int, Perm], ...]] = {}
        self.words: dict[Perm, int] = {}
        self.live: dict[Perm, tuple] = {}
        self.best: dict[tuple[Perm, int, int], int] = {}

    def kids(self, q: Perm) -> tuple[tuple[int, Perm], ...]:
        kids = self._kids.get(q)
        if kids is None:
            kids = tuple([(i, q[: i - 1] + (q[i], q[i - 1]) + q[i + 1 :])
                          for i in range(1, len(q)) if q[i] < q[i - 1]])
            if self.keep_kids:
                self._kids[q] = kids
        return kids

    def live_runs(self, w: Perm) -> tuple:
        """The live runs from the state of w (empty for the identity)."""
        root = inverse(w)
        _fill(self.live, root, self.kids, self._live_kids)
        return self.live[root]

    def _live_kids(self, kids: tuple) -> tuple:
        out = []
        for i, p in kids:
            below = tuple(run for run in self.live[p] if run[0][0] <= i + 1)
            if len(below) == 1:  # the next letter is forced: the run goes on
                letters, below, c = below[0]
                out.append(((i, *letters), below, c))
            elif below or not self.live[p]:  # no live run below: p is the identity
                out.append(((i,), below, sum(run[2] for run in below) or 1))
        return tuple(out)


def _fill(memo: dict, root, below, value) -> None:
    """memo[k] = value(below(k)) for each key k below root, children first;
    ``below(k)`` lists k's children as (letter, key, ...).  What is pushed
    while k waits lies below k, so each key is expanded at most once per memo."""
    stack: list[tuple] = [(root, None)]
    while stack:
        k, kids = stack.pop()
        if kids is not None:  # every key below k is valued by now
            memo[k] = value(kids)
        elif k not in memo:
            kids = below(k)
            stack.append((k, kids))
            stack += [(e[1], None) for e in kids if e[1] not in memo]


_tables: _SweepTables | None = None


def _install_tables(tables: _SweepTables | None) -> None:
    """Share ``tables`` with every later call in this process; None removes them."""
    global _tables
    _tables = tables


def _dag(keep_kids: bool = True) -> _SweepTables:
    """The sweep's DAG if one is installed, else a fresh one for one call."""
    return _tables if _tables is not None else _SweepTables(keep_kids)


def count_reduced_words(w: Perm) -> int:
    """|R(w)|: the paths from w's state to the identity in the DAG.

    >>> count_reduced_words((4, 3, 2, 1))
    16
    """
    dag, root = _dag(keep_kids=False), inverse(w)
    words = dag.words
    _fill(words, root, dag.kids, lambda kids: sum([words[p] for _, p in kids]) or 1)
    return words[root]


def reduced_letter_seqs(w: Perm) -> Iterator[Letters]:
    """Yield the reduced letter sequences of w, lexicographically: the DAG's
    paths from w, letters ascending, by DFS on an explicit stack.  A state
    is expanded when the DFS first gets there, so the words stream."""
    dag, buf = _dag(), []  # buf: the letters leading to each frame but the first
    frames = [iter(dag.kids(inverse(w)))]
    if not dag.kids(inverse(w)):
        yield ()
    while frames:
        i, p = next(frames[-1], (0, None))
        if p is None:
            frames.pop()
            del buf[-1:]  # the letter into the popped frame; the first has none
        elif dag.kids(p):
            buf.append(i)
            frames.append(iter(dag.kids(p)))
        else:
            yield (*buf, i)


def _within_budget(total: int, budget: int) -> None:  # the word budget's one check
    if total > budget:
        raise BudgetExceeded(f"{total} reduced words exceed the budget of {budget}")


def enumerate_reduced_words(w: Perm, budget: int = WORD_BUDGET_DEFAULT) -> Iterator[Word]:
    """Every reduced word of w exactly once, lexicographic by letters."""
    _within_budget(count_reduced_words(w), budget)
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
