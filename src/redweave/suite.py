"""Batch invariant suite: every structural guarantee, checked per permutation."""

from __future__ import annotations

from collections import Counter
from math import inf

from .bounds import aggregate_reports, size_bounds
from .classes import ClassGraph, _sweep, build_graph, build_poset, graph_checks
from .errors import InvariantViolation, WORD_BUDGET_DEFAULT
from .perm import Perm, _orbit, enumerate_sn, inversions
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
        # grid's centre, which probes of the mask dict find (true on S_5, S_6,
        # the 4321-avoiders of S_7 and a seeded sample of S_9 and S_10)
        out += [f"4321-avoiding {w} has an induced 8-cycle at vertex {v} on no 6-cycle"
                for v, a, b, verdict in _edge_pair_verdicts(g)
                if verdict is CycleVerdict.EIGHT_CYCLE and not _on_six_cycle(g, v, a, b)]
    return out


def _on_six_cycle(g: ClassGraph, v: int, a: int, b: int) -> bool:
    """Whether a and b are at most 4 apart in G(w) - v, by probes of ``g._ids``:
    such a path from a = v ^ e_i to b = v ^ e_j flips i, j and a bit x twice,
    through a ^ x, v ^ x or a ^ b ^ v ^ x, b ^ x (x = e_i or e_j: via a ^ b ^ v)."""
    ma, mb, mv, ids = g._masks[a], g._masks[b], g._masks[v], g._ids
    return any(ma ^ x in ids and mb ^ x in ids and (mv ^ x in ids or ma ^ mb ^ mv ^ x in ids)
               for x in (1 << k for k in range(g.n321)))


def _check_orbit(g: ClassGraph) -> tuple[dict[Perm, list[str]], int]:
    """``scan_sn``'s one job, on an orbit's least w: the violations of its
    orbit, keyed by w, and |G(w)|.  If w fails, each other member x is
    checked too, on a G(x) built with no budget: x has as many words as w
    (both maps are bijections), and ``_sweep`` checked that count before any job ran."""
    found: dict[Perm, list[str]] = {}
    if mine := check_permutation(g):
        found = {x: mine if x == g.w else check_permutation(build_graph(x, inf))
                 for x in set(_orbit(g.w))}
    return found, len(g)


def scan_sn(n: int, budget: int = WORD_BUDGET_DEFAULT, threads: int = 1) -> list[str]:
    """Run the invariant suite over all of S_n; returns all violations.

    One ``classes._sweep``, in this process or a pool of up to ``threads``,
    runs ``_check_orbit`` on the least w of each orbit of w -> w^-1 and
    w -> w0 w w0 alone; it keeps no G(w).  The budget is checked for each
    of them here before any job runs (w0 among them, which every w lies
    below); the jobs of a process share one DAG of S_n.  G(w) is isomorphic
    to the graph of each member, by word reversal and i -> n - i, so each
    member is credited its least w's |G(w)| for the aggregate bound, and
    each check passes or fails alike on them.  The graph checks (connected,
    path, |G|, the 8-cycle check, as both maps fix 4321) are isomorphism
    invariants; so are Y, N321, l(w), ``_disjoint`` of the triples, the
    grid labelling and ``RECT_PATTERNS`` (closed under both maps).  Reversal
    keeps a class's index sum s and 212-rank r, the letter map sends them
    to n l(w) - s and N321 - r, so parity and the covers' drops carry over.
    ``embed_hypercube`` passes or fails alike, but its witness differs
    (k = 2 on 35241, 1 on 52413).  The job checks each w of a failing orbit
    on its own G(w), so the violations are the per-w sweep's, in
    lexicographic order of w.
    """
    perms = list(enumerate_sn(n))
    by_rep = _sweep([w for w in perms if w == min(_orbit(w))], _check_orbit, budget, threads)
    found = {x: v for by_w, _ in by_rep.values() for x, v in by_w.items()}
    out = [v for w in perms for v in found.get(w, [])]
    # aggregate bound, one check per nontrivial word length
    sizes = {x: size for w, (_, size) in by_rep.items() for x in _orbit(w)}
    for rep in aggregate_reports(n, sizes):
        if not rep.ok:
            out.append(f"aggregate bound fails for n={n}, l={rep.l}: {rep}")
    return out
