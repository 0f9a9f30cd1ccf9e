"""Batch invariant suite: every structural guarantee, checked per permutation."""

from __future__ import annotations

from itertools import combinations

from .bounds import aggregate_reports, size_bounds
from .classes import ClassGraph, build_graph, build_poset, graph_checks
from .errors import InvariantViolation, WORD_BUDGET_DEFAULT
from .perm import Perm, avoids, enumerate_sn, inversions
from .structure import (
    CycleVerdict,
    classify_edge_pair,
    embed_hypercube,
    is_freely_braided,
    is_rectangular,
    rectangle_label,
)
from .words import Letters, _install_tables, _SweepTables


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

    if is_freely_braided(w) and actual != 2**bounds.y:
        out.append(f"freely braided {w} has {actual} classes, expected 2^{bounds.y}")

    label = rectangle_label(g, poset) if poset is not None else None
    if is_rectangular(w) != (label is not None):
        out.append(f"rectangularity pattern test and labeling disagree for {w}")

    is_path = (
        rep.connected
        and len(g.edges) == actual - 1
        and all(len(g.neighbors(c.id)) <= 2 for c in g.vertices)
    )
    if is_path and actual != bounds.n321 + 1:
        out.append(
            f"G({w}) is a path with {actual} != N321+1 = {bounds.n321 + 1} vertices"
        )

    if avoids(w, (4, 3, 2, 1)):
        # an induced 8-cycle of a 4321-avoider is a grid's rim, as in
        # G(436512), so its two edges at v also lie on a 6-cycle through the
        # grid's centre (true on S_5, S_6 and the 4321-avoiders of S_7)
        for c in g.vertices:
            for a, b in combinations(sorted(g.neighbors(c.id)), 2):
                eight = classify_edge_pair(g, c.id, a, b) is CycleVerdict.EIGHT_CYCLE
                if eight and not _on_six_cycle(g, c.id, a, b):
                    out.append(
                        f"4321-avoiding {w} has an induced 8-cycle at vertex "
                        f"{c.id} on no 6-cycle"
                    )
    return out


def _on_six_cycle(g: ClassGraph, v: int, a: int, b: int) -> bool:
    """Whether a and b are at most 4 apart in G(w) - v."""
    seen = frontier = {a}
    for _ in range(4):
        frontier = {y for x in frontier for y in g.neighbors(x)} - seen - {v}
        seen = seen | frontier
    return b in seen


def _worker(args: tuple[Perm, int]) -> tuple[list[str], tuple[Letters, ...]]:
    """The violations of w and its canonical words, for the aggregate bound."""
    g = build_graph(*args)
    return check_permutation(g), tuple(c.canonical.letters for c in g.vertices)


def _init_worker() -> None:
    _install_tables(_SweepTables())  # a pool worker lives as long as its sweep


def scan_sn(n: int, budget: int = WORD_BUDGET_DEFAULT, threads: int = 1) -> list[str]:
    """Run the invariant suite over all of S_n; returns all violations.

    The sweep is one job.  Its permutations share the memos of the
    budget guard, the canonical-word DFS and the Y DP, which depend on
    the walk state alone (each pool worker holds its own set, the serial
    path holds one for the call).  They run longest first, lexicographic
    among equals, so each worker starts near w0, which fills nearly all
    of its tables at once, and the pool ends on the cheapest ones.
    Violations are reported in lexicographic order of w either way.
    The pool's start method is the platform's default, not pinned: under
    fork (Linux, Python <= 3.13) a worker is a copy of this process (its
    calling thread only), redweave imported, so no interpreter, import or
    resource tracker starts.  ``_init_worker`` gives it tables of its own.
    """
    perms = list(enumerate_sn(n))
    heaviest_first = sorted(perms, key=lambda w: (-inversions(w), w))
    jobs = [(w, budget) for w in heaviest_first]
    if threads > 1:
        from multiprocessing import Pool

        with Pool(threads, initializer=_init_worker) as pool:
            results = list(pool.imap(_worker, jobs, chunksize=4))
    else:
        _install_tables(_SweepTables())
        try:
            results = [_worker(job) for job in jobs]
        finally:
            _install_tables(None)
    by_perm = dict(zip(heaviest_first, results))
    out: list[str] = []
    canonicals = {}
    for w in perms:
        violations, canonicals[w] = by_perm[w]
        out.extend(violations)
    # aggregate bound, one check per nontrivial word length
    for rep in aggregate_reports(n, canonicals):
        if not rep.ok:
            out.append(f"aggregate bound fails for n={n}, l={rep.l}: {rep}")
    return out
