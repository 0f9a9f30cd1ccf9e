"""Counting bounds: per-permutation class-count bounds and the aggregate
Catalan bound via the balanced-parenthesis encoding of representatives."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping

from .classes import ClassGraph, build_graph
from .errors import InputError, WORD_BUDGET_DEFAULT
from .perm import Perm, enumerate_sn, inversions
from .words import Letters


def catalan(m: int) -> int:
    """The m-th Catalan number, closed form."""
    return comb(2 * m, m) // (m + 1)


@dataclass(frozen=True)
class BoundsReport:
    w: Perm
    y: int
    n321: int
    lower: int
    upper: int              # 3^l(w); strict for l(w) >= 1
    alt_upper: float        # 2.487^l(w), informational only
    actual: int             # |G(w)|


def size_bounds(g: ClassGraph) -> BoundsReport:
    """2^ceil(Y/2) + N_321(w) - ceil(Y/2) <= |G(w)| < 3^l(w)."""
    l = inversions(g.w)
    half = (g.max_windows + 1) // 2
    lower = 2**half + g.n321 - half
    return BoundsReport(g.w, g.max_windows, g.n321, lower, 3**l, 2.487**l, len(g))


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
    parts = ["(" * letters[0]]
    for prev, nxt in zip(letters, letters[1:]):
        drop = prev - nxt + 1
        if drop < 0:
            raise InputError(
                f"{letters} is not a canonical representative "
                f"(ascent {prev} -> {nxt} commutes)"
            )
        parts.append(")" * drop + "(")
    parts.append(")" * letters[-1])
    return "".join(parts)


@dataclass(frozen=True)
class AggregateReport:
    n: int
    l: int
    count_perms: int
    sum_classes: int
    catalan: int
    four_power: int
    injective: bool

    @property
    def ok(self) -> bool:
        return (
            self.sum_classes < self.catalan < self.four_power and self.injective
        )


def _aggregate(n: int, l: int, groups: list[Iterable[Letters]]) -> AggregateReport:
    # one group of canonical words per permutation of length l
    encodings = [paren_encoding(c) for group in groups for c in group]
    return AggregateReport(
        n=n,
        l=l,
        count_perms=len(groups),
        sum_classes=len(encodings),
        catalan=catalan(l + n - 1),
        four_power=4 ** (l + n),
        injective=len(set(encodings)) == len(encodings),
    )


def aggregate_bound_check(n: int, l: int, budget: int = WORD_BUDGET_DEFAULT,
                          cap: int = 6) -> AggregateReport:
    """Sum |G(w)| over all w in S_n with l(w) = l against C_{l+n-1} < 4^(l+n).

    Also checks that the parenthesis encodings of all canonical
    representatives across those w are pairwise distinct.  Stated for
    l >= 1: at l = 0 the one empty class meets C_{n-1} = 1 for n <= 2.
    """
    perms = enumerate_sn(n, cap=cap)  # refuses n < 1 before the checks below
    if n == 1:
        raise InputError("S_1 has no nontrivial length: its only permutation has length 0")
    if not 1 <= l <= n * (n - 1) // 2:
        raise InputError(f"length {l} is outside 1..{n * (n - 1) // 2} for S_{n}")
    groups = [
        [c.canonical.letters for c in build_graph(w, budget).vertices]
        for w in perms
        if inversions(w) == l
    ]
    return _aggregate(n, l, groups)


def aggregate_reports(n: int,
                      canonicals: Mapping[Perm, Iterable[Letters]]) -> list[AggregateReport]:
    """``aggregate_bound_check(n, l)`` for every l >= 1, in one pass.

    ``canonicals`` maps each w in S_n to the canonical words of its
    classes.
    """
    groups: dict[int, list[Iterable[Letters]]] = {
        l: [] for l in range(1, n * (n - 1) // 2 + 1)
    }
    for w, canon in canonicals.items():
        if l := inversions(w):
            groups[l].append(canon)
    return [_aggregate(n, l, group) for l, group in groups.items()]
