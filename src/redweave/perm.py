"""Permutations in one-line notation, inversions, and pattern counting.

A permutation of {1..n} is a plain tuple of its one-line notation
``(w(1), ..., w(n))``.  Everything here is pure and safe to share.
"""

from __future__ import annotations

from itertools import combinations, permutations, starmap
from operator import gt
from typing import Iterable, Iterator

from .errors import BudgetExceeded, InputError, SN_CAP_DEFAULT

Perm = tuple[int, ...]


def check_perm(values: Iterable[int]) -> Perm:
    """Validate one-line notation (a bijection on {1..n}) and return it as a tuple."""
    w = tuple(int(v) for v in values)
    n = len(w)
    if n < 1:
        raise InputError("permutation must have size >= 1")
    if sorted(w) != list(range(1, n + 1)):
        raise InputError(f"not a permutation of 1..{n}: {w}")
    return w


def parse_perm(text: str) -> Perm:
    """Parse "3,4,2,1", "3 4 2 1", or the compact digit form "3421" (n <= 9).

    >>> parse_perm("3421")
    (3, 4, 2, 1)
    >>> parse_perm("4,3,2,1,5,6,7,11,10,8,9")[7:]
    (11, 10, 8, 9)
    """
    try:
        values = _ints(text)
    except ValueError:
        raise InputError(f"cannot parse permutation: {text.strip()!r}") from None
    return check_perm(values)


def _ints(text: str) -> list[int]:
    """The ints of text split on commas or spaces, else one per digit: the
    tokenizer of permutations, words and word sets (ValueError if not ints)."""
    text = text.strip()
    parts = text.replace(",", " ").split() if "," in text or " " in text else text
    return [int(p) for p in parts]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The reversing permutation n, n-1, ..., 1."""
    return tuple(range(n, 0, -1))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def _orbit(w: Perm) -> tuple[Perm, Perm, Perm, Perm]:
    """w, w^-1, w0 w w0 and its inverse: G(w) is isomorphic to G of each, by
    word reversal and the letter map i -> n - i."""
    flip = tuple(len(w) + 1 - v for v in reversed(w))
    return w, inverse(w), flip, inverse(flip)


def inversions(w: Perm) -> int:
    """Number of pairs i < j with w(i) > w(j).

    >>> inversions((3, 4, 2, 1))
    5
    """
    return sum(starmap(gt, combinations(w, 2)))


def pattern_occurrences(w: Perm, p: Perm) -> Iterator[tuple[int, ...]]:
    """Yield the 0-based index tuples of w that carry a p-pattern: those whose
    values sort their positions in the same order as p does (equal argsorts)."""
    k = len(p)
    order = sorted(range(k), key=p.__getitem__)
    positions = range(k)
    for idx, vals in zip(combinations(range(len(w)), k), combinations(w, k)):
        if sorted(positions, key=vals.__getitem__) == order:
            yield idx


def _triples321(w: Perm) -> tuple[tuple[int, int, int], ...]:
    """The value triples a < b < c that w carries as 321-patterns, sorted."""
    return tuple(sorted((z, y, x) for x, y, z in combinations(w, 3) if x > y > z))


def pattern_count(w: Perm, p: Perm) -> int:
    """Number of occurrences of the pattern p in w (N_p(w)).

    >>> pattern_count((3, 4, 2, 1), (2, 3, 1))
    2
    """
    return sum(1 for _ in pattern_occurrences(w, p))


def avoids(w: Perm, p: Perm) -> bool:
    return next(pattern_occurrences(w, p), None) is None


def enumerate_sn(n: int) -> Iterator[Perm]:
    """All n! permutations in lexicographic order of one-line notation;
    refused for n over ``SN_CAP_DEFAULT``."""
    if n < 1:
        raise InputError("n must be >= 1")
    if n > SN_CAP_DEFAULT:
        raise BudgetExceeded(f"refusing to enumerate S_{n} (cap is {SN_CAP_DEFAULT})")
    return permutations(range(1, n + 1))
