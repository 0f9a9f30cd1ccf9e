"""Counting bounds: per-permutation class-count bounds and the aggregate
Catalan bound via the balanced-parenthesis encoding of representatives.

Both read |G(w)| off the weak-order DAG and build no G(w).  The aggregate
needs only |G(w)| for each w of one length: the encoding is injective on
the canonical words of that length, so their number is at most the
Catalan number of its pair count.  That holds by a lemma, not a check run
per word: the encoding is decoded back on every letter sequence with no
ascent of two or more (its first letter is the pair count less l - 1, and
each later ``)^d(`` run steps down by d - 1), and every canonical word is
such a sequence.  ``tests/test_bounds.py`` checks the lemma."""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import InputError, WORD_BUDGET_DEFAULT
from .perm import Perm, _triples321, check_perm, enumerate_sn, inversions
from .words import Letters, _all_within_budget, _class_count, _most_windows, _within_budget

if TYPE_CHECKING:  # the bounds of one w read the DAG, and load no G(w)
    from .classes import ClassGraph


def catalan(m: int) -> int:
    """The m-th Catalan number, closed form."""
    return comb(2 * m, m) // (m + 1)


class BoundsReport(NamedTuple):
    w: Perm
    y: int
    n321: int
    lower: int
    upper: int              # 3^l(w); strict for l(w) >= 1
    alt_upper: float        # 2.487^l(w), informational only
    actual: int | None      # |G(w)|; None when it was not counted


def _report(w: Perm, y: int, n321: int, actual: int | None) -> BoundsReport:
    l = inversions(w)
    half = (y + 1) // 2
    return BoundsReport(w, y, n321, 2**half + n321 - half, 3**l, 2.487**l, actual)


def size_bounds(g: ClassGraph) -> BoundsReport:
    """2^ceil(Y/2) + N_321(w) - ceil(Y/2) <= |G(w)| < 3^l(w)."""
    return _report(g.w, g.max_windows, g.n321, len(g))


def _size_bounds_of(w: Perm, budget: int = WORD_BUDGET_DEFAULT,
                    actual: bool = True) -> BoundsReport:
    """``size_bounds(build_graph(w, budget))`` with no class listed: Y, N_321
    and |G(w)|, the canonical path count, are read off the weak-order DAG.
    Without ``actual`` no class is counted, and ``actual`` reads None."""
    w = check_perm(w)
    _within_budget(w, budget)
    count = _class_count(w, {}) if actual else None
    return _report(w, _most_windows(w, {})[0], len(_triples321(w)), count)


def paren_encoding(letters: Letters) -> str:
    """Balanced parenthesis string of a canonical representative.

    Writes i_1 left parens, then for each step i_k -> i_{k+1} writes
    i_k - i_{k+1} + 1 right parens and one left paren, and closes with
    i_l right parens; l + i_1 - 1 pairs in total, injective over
    representatives of a fixed length.

    >>> paren_encoding((2, 1, 2, 3, 2))
    '(())((())())'
    """
    if not letters:
        return ""
    text, prev = "(" * letters[0], letters[0]
    for nxt in letters[1:]:
        if nxt > prev + 1:
            raise InputError(
                f"{letters} is not a canonical representative "
                f"(ascent {prev} -> {nxt} commutes)"
            )
        text += ")" * (prev - nxt + 1) + "("
        prev = nxt
    return text + ")" * prev


class AggregateReport(NamedTuple):
    n: int
    l: int
    count_perms: int
    sum_classes: int
    catalan: int
    four_power: int
    injective: bool

    @property
    def ok(self) -> bool:
        return self.sum_classes < self.catalan < self.four_power and self.injective


def aggregate_bound_check(n: int, l: int, budget: int = WORD_BUDGET_DEFAULT) -> AggregateReport:
    """Sum |G(w)| over all w in S_n with l(w) = l against C_{l+n-1} < 4^(l+n).

    Each w of length l passes ``_within_budget``, in lexicographic order on
    one word-count memo, before any class is counted; then each |G(w)| is
    the path count of ``_class_count`` on one live-run memo, and no G(w) is
    built.  Stated for l >= 1: at l = 0 the one empty class meets
    C_{n-1} = 1 for n <= 2.
    """
    perms = enumerate_sn(n)  # refuses n < 1 and n over the S_n cap before the checks below
    if n == 1:
        raise InputError("S_1 has no nontrivial length: its only permutation has length 0")
    if not 1 <= l <= n * (n - 1) // 2:
        raise InputError(f"length {l} is outside 1..{n * (n - 1) // 2} for S_{n}")
    perms = [w for w in perms if inversions(w) == l]
    _all_within_budget(perms, budget)  # before any class is counted
    live: dict = {}
    return aggregate_reports(n, {w: _class_count(w, live) for w in perms})[l - 1]


def aggregate_reports(n: int, sizes: Mapping[Perm, int]) -> list[AggregateReport]:
    """``aggregate_bound_check(n, l)`` for every l >= 1, in one pass over the
    given {w: |G(w)|}.  Injective holds by the module's lemma: canonical
    words of different w differ, as they evaluate to different w."""
    sums = [0] * (n * (n - 1) // 2 + 1)
    perms = sums.copy()
    for w, size in sizes.items():
        l = inversions(w)
        sums[l] += size
        perms[l] += 1
    return [AggregateReport(n, l, perms[l], sums[l], catalan(l + n - 1), 4 ** (l + n), True)
            for l in range(1, len(sums))]
