"""Batch invariant suite: every structural guarantee, checked per permutation."""

from __future__ import annotations

from collections import Counter

from .bounds import _tally, aggregate_reports, size_bounds
from .classes import ClassGraph, _sweep, build_poset, graph_checks
from .errors import InvariantViolation, WORD_BUDGET_DEFAULT
from .perm import enumerate_sn, inversions
from .structure import (
    CycleVerdict,
    _disjoint,
    _edge_pair_verdicts,
    embed_hypercube,
    rectangle_label,
    rectangular_witness,
)


def check_permutation(g: ClassGraph) -> list[str]:
    """All invariants of w, read off G(w); returns human-readable violations."""
    w = g.w
    out: list[str] = []
    rep = graph_checks(g)
    if not rep.connected:
        out.append(f"G({w}) is not connected")
    if not rep.bipartite:
        out.append(f"G({w}) is not bipartite by index-sum parity")

    try:
        poset = build_poset(g)  # validates rank interval and cover drops
    except InvariantViolation as exc:
        out.append(str(exc))
        poset = None

    bounds = size_bounds(g)
    actual = len(g)
    if actual < bounds.lower:
        out.append(f"lower bound fails for {w}")
    if inversions(w) >= 1 and actual >= bounds.upper:
        out.append(f"upper bound fails for {w}")

    try:
        embed_hypercube(g)
    except InvariantViolation as exc:
        out.append(str(exc))

    if _disjoint(g._triples) and actual != 2**bounds.y:  # freely braided
        out.append(f"freely braided {w} has {actual} classes, expected 2^{bounds.y}")

    witness = rectangular_witness(w)  # one scan serves both pattern tests
    label = rectangle_label(g) if poset is not None else None
    if (witness is None) != (label is not None):
        out.append(f"rectangularity pattern test and labeling disagree for {w}")

    is_path = (
        rep.connected
        and len(g._pairs) == actual - 1
        and max(Counter(x for u, v, _ in g._pairs for x in (u, v)).values(), default=0) <= 2
    )
    if is_path and actual != bounds.n321 + 1:
        out.append(
            f"G({w}) is a path with {actual} != N321+1 = {bounds.n321 + 1} vertices"
        )

    if witness != (4, 3, 2, 1):  # RECT_PATTERNS[0]: w avoids 4321
        # an induced 8-cycle of a 4321-avoider is a grid's rim, as in
        # G(436512), so its two edges at v also lie on a 6-cycle through the
        # grid's centre (true on S_5, S_6 and the 4321-avoiders of S_7)
        for v, a, b, verdict in _edge_pair_verdicts(g):
            if verdict is CycleVerdict.EIGHT_CYCLE and not _on_six_cycle(g, v, a, b):
                out.append(
                    f"4321-avoiding {w} has an induced 8-cycle at vertex "
                    f"{v} on no 6-cycle"
                )
    return out


def _on_six_cycle(g: ClassGraph, v: int, a: int, b: int) -> bool:
    """Whether a and b are at most 4 apart in G(w) - v."""
    seen = frontier = {a}
    for _ in range(4):
        frontier = {y for x in frontier for y in g.neighbors(x)} - seen - {v}
        seen = seen | frontier
    return b in seen


def _check_and_tally(g: ClassGraph) -> tuple[list[str], tuple[int, bool]]:
    """The sweep job of ``scan_sn``: the violations and ``_tally`` of G(w)."""
    return check_permutation(g), _tally(g)


def scan_sn(n: int, budget: int = WORD_BUDGET_DEFAULT, threads: int = 1) -> list[str]:
    """Run the invariant suite over all of S_n; returns all violations.

    Each w is one ``_check_and_tally`` job of ``classes._sweep``, in this
    process or a pool of up to ``threads``; it keeps no G(w) and returns
    two numbers, not the classes, for the aggregate bound.  The budget is
    checked for every w in this process before any job runs; the jobs of a
    process share one DAG of the states of S_n, which the canonical words
    and Y read.  Violations are reported in lexicographic order of w.
    """
    perms = list(enumerate_sn(n))
    by_perm = _sweep(perms, _check_and_tally, budget, threads)
    out = [v for w in perms for v in by_perm[w][0]]
    # aggregate bound, one check per nontrivial word length
    for rep in aggregate_reports(n, {w: tally for w, (_, tally) in by_perm.items()}):
        if not rep.ok:
            out.append(f"aggregate bound fails for n={n}, l={rep.l}: {rep}")
    return out
