"""Reduced words: evaluation, enumeration, braid moves, canonical forms.

Letters are 1-based and act on positions: letter i swaps the entries at
positions i and i+1 of the one-line notation.  A word is reduced when its
length equals the inversion number of the permutation it evaluates to.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import BudgetExceeded, InputError, WORD_BUDGET_DEFAULT
from .perm import Perm, identity, inverse, inversions

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


# Reduced words are walked on the inverse permutation q, where q[v-1] is the
# position of the value v.  The first letter of a reduced word may be any
# left descent i (the value i+1 sits left of the value i, so q[i] < q[i-1]);
# taking it swaps q[i-1] and q[i], and the walk ends at the identity.


def _left_descents(q: Perm) -> list[int]:
    return [i for i in range(1, len(q)) if q[i] < q[i - 1]]


def _peel(q: Perm, i: int) -> Perm:
    return q[: i - 1] + (q[i], q[i - 1]) + q[i + 1 :]


class _SweepTables:
    """Memos keyed on the walk state q alone, so they hold for every w.

    ``counts`` maps q to |R(q)| (the budget guard), ``dead`` holds the
    (q, cap) pairs from which the canonical DFS finds no word, and
    ``best`` maps (q, a, b) to the Y DP's value.  A sweep over S_n
    installs one set for its whole length, so a state is expanded once
    per sweep rather than once per w above it; outside a sweep each
    call builds its own memo and drops it on return.
    """

    def __init__(self) -> None:
        self.counts: dict[Perm, int] = {}
        self.dead: set[tuple[Perm, int]] = set()
        self.best: dict[tuple[Perm, int, int], int] = {}


_tables: _SweepTables | None = None


def _install_tables(tables: _SweepTables | None) -> None:
    """Share ``tables`` with every later call in this process; None removes them."""
    global _tables
    _tables = tables


def _sweep_tables() -> _SweepTables | None:
    return _tables


def count_reduced_words(w: Perm) -> int:
    """|R(w)| by the descent recursion, memoized over the states below w.

    The recursion runs on an explicit stack, so a long w cannot exhaust
    the interpreter's.  Whatever is pushed while q waits for its count
    lies below q, so each state is expanded at most once per memo.

    >>> count_reduced_words((4, 3, 2, 1))
    16
    """
    memo = _tables.counts if _tables is not None else {}
    memo[identity(len(w))] = 1
    root = inverse(w)
    stack: list[tuple[Perm, list[Perm] | None]] = [(root, None)]
    while stack:
        q, below = stack.pop()
        if below is not None:  # every state below q is counted by now
            total = 0
            for p in below:
                total += memo[p]
            memo[q] = total
        elif q not in memo:
            below = [_peel(q, i) for i in _left_descents(q)]
            stack.append((q, below))
            stack += [(p, None) for p in below if p not in memo]
    return memo[root]


def reduced_letter_seqs(w: Perm) -> Iterator[Letters]:
    """Yield the reduced letter sequences of w, lexicographically.

    The first letter of a reduced word of w may be any left descent i
    (the value i+1 precedes the value i); the rest is a reduced word of
    s_i * w.  Ascending choice of i gives lexicographic order.
    """
    return _walk_words(w, canonical=False, dead=set())


def _walk_words(w: Perm, canonical: bool, dead: set[tuple[Perm, int]]) -> Iterator[Letters]:
    """The reduced words of w in lexicographic order, by DFS over left descents.

    With ``canonical``, a letter may exceed its predecessor by at most
    one, so exactly the canonical word of each class is yielded (see
    ``classes``).  A frame is skipped when (state, cap) is in ``dead``,
    and added to it when it yields no word.  Frames live on an explicit
    stack, one per letter, so a long w cannot exhaust the interpreter's.
    """
    n = len(w)
    done = identity(n)
    q = inverse(w)
    if q == done:
        yield ()
        return
    buf: list[int] = []  # the letters leading to each frame but the first
    frames = [[q, n - 1, iter(_left_descents(q)), False]]  # state, cap, descents, found
    while frames:
        frame = frames[-1]
        q, cap, descents, found = frame
        i = next(descents, n)
        if i > cap:
            frames.pop()
            if not found:
                dead.add((q, cap))
            if frames:
                buf.pop()
                frames[-1][3] |= found
            continue
        p, pcap = _peel(q, i), min(i + 1, n - 1) if canonical else n - 1
        if p == done:
            frame[3] = True
            yield (*buf, i)
        elif (p, pcap) not in dead:
            buf.append(i)
            frames.append([p, pcap, iter(_left_descents(p)), False])


def enumerate_reduced_words(w: Perm, budget: int = WORD_BUDGET_DEFAULT) -> Iterator[Word]:
    """Every reduced word of w exactly once, lexicographic by letters."""
    total = count_reduced_words(w)
    if total > budget:
        raise BudgetExceeded(f"{total} reduced words exceed the budget of {budget}")
    n = len(w)
    return (Word(ls, n) for ls in reduced_letter_seqs(w))


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
