"""The benchmark workloads: their CLI calls and the checks on each output.

A workload is a list of processes; a process is a list of calls; a call
is an argv for ``redweave`` and a check.  A process of one call runs the
CLI as a user would, a process of several calls runs them through
``redweave.cli.run`` in one interpreter (``batch.py``).

Every expected value comes from outside the code being timed: published
counts, or the brute-force oracles in ``tests/oracles.py``, computed
before the timed region.  A check returns None when the output is right
and a one-line reason when it is not.

Only ``s7_struct`` draws its inputs from the seed; the other workloads
have fixed inputs, so their runs differ only by the machine.

Why each workload (and which layers it loads):

- ``w0_deep``: one huge permutation, w0 of S_6 (292,864 words, 908
  classes).  The word DFS, ``canonical_letters`` and ``has_subnetwork``
  do almost all the work; ``structure`` and ``suite`` almost none.
- ``s6_sweep``: breadth over the 720 small permutations of S_6 through
  ``suite``, ``structure`` and ``bounds.aggregate_bound_check``, with two
  pool workers, which is what a bare ``scan 6`` does on two CPUs.
- ``guard_refusal``: w0 of S_9, refused by the budget guard
  ``count_reduced_words``; the only workload with a large memory peak.
  Its passes are short and memory-bound.  On a shared 2-CPU host, runs
  of 20 s swung by half within minutes (4.8 to 7.3 s a pass, a spread
  of 0.32 over ten seeds, wider than the largest regression bound of
  0.25), and 55-second runs do not fit the benchmark's time beside the
  other two, so it is run by hand, not listed in BENCHMARK.json.
- ``s7_struct``: a seeded sample of S_7 through ``graph``, ``rect``,
  ``cube`` and ``cycles`` in one process, so ``structure`` does most of
  the work and the ``scan`` cache is reused across commands.  redweave
  fails two of its checks: ``cycles`` answers ``no_induced_cycle`` for
  edge pairs that lie on an induced 8-cycle (already on S_6, e.g. at
  vertex 1 of G(346521)), and ``rect`` exits 2 on 3254761, where the
  pattern test and the grid labelling disagree.  It is therefore not
  listed in BENCHMARK.json, whose workloads must pass.

BENCHMARK.json lists ``w0_deep`` and ``s6_sweep``; every workload here
runs with ``perfbench/run.py --workload NAME``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable

Check = Callable[[int, str, str], "str | None"]


@dataclass
class Call:
    argv: list[str]
    check: Check


@dataclass
class Workload:
    processes: list[list[Call]]
    inputs: dict = field(default_factory=dict)  # recorded in the results


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except ValueError:
        return {}


def expect_json(key: str, value) -> Check:
    """Exit 0 and ``stdout[key] == value`` in the JSON output."""

    def check(code: int, stdout: str, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        got = _json(stdout).get(key, "<missing>")
        return None if got == value else f"{key} = {got!r}, expected {value!r}"

    return check


def expect_refusal(code: int, stdout: str, stderr: str) -> str | None:
    """Exit 3, nothing on stdout, and a budget refusal on stderr."""
    if code != 3:
        return f"exit {code}, expected 3"
    if stdout:
        return "stdout not empty on a refusal"
    if not stderr.startswith("budget refusal"):
        return f"stderr does not start with 'budget refusal': {stderr[:80]!r}"
    return None


def expect_exit0(code: int, stdout: str, stderr: str) -> str | None:
    return None if code == 0 else f"exit {code}, expected 0"


# |{reduced words of w0 in S_6 with no Warrington X-subnetwork}|, from the
# acceptance criteria; the number of commutation classes of w0 in S_6,
# OEIS A006245.
W0_S6_AVOIDING = 54520
W0_S6_CLASSES = 908


def w0_deep(seed: int, avoiding: int = W0_S6_AVOIDING,
            classes: int = W0_S6_CLASSES) -> Workload:
    return Workload([
        [Call(["warrington", "6", "--format", "json"], expect_json("count", avoiding))],
        [Call(["bounds", "654321", "--actual", "--format", "json"],
              expect_json("actual", classes))],
    ])


def s6_sweep(seed: int) -> Workload:
    return Workload([
        [Call(["scan", "6", "--threads", "2", "--format", "json"],
              expect_json("violations", []))],
    ])


def guard_refusal(seed: int) -> Workload:
    return Workload([
        [Call(["words", "987654321"], expect_refusal)],
        [Call(["graph", "987654321"], expect_refusal)],
    ])


# --- s7_struct --------------------------------------------------------------

S7_LENGTHS = range(9, 14)
S7_PER_LENGTH = 6


def _inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i, j in combinations(range(len(w)), 2) if w[i] > w[j])


def _word_counts(n: int) -> dict[tuple[int, ...], int]:
    """|R(w)| for every w in S_n: the sum over left descents of s_i w."""
    counts = {tuple(range(1, n + 1)): 1}
    for w in sorted(permutations(range(1, n + 1)), key=_inversions):
        if w in counts:
            continue
        pos = {v: k for k, v in enumerate(w)}
        total = 0
        for i in range(1, n):
            if pos[i + 1] < pos[i]:
                q = list(w)
                q[pos[i]], q[pos[i + 1]] = i + 1, i
                total += counts[tuple(q)]
        counts[w] = total
    return counts


def s7_sample(seed: int) -> list[tuple[int, ...]]:
    """A seeded sample of S_7, ``S7_PER_LENGTH`` permutations per l(w) in 9..13.

    Within one length the permutations are ordered by their number of
    reduced words and cut into ``S7_PER_LENGTH`` equal slices; one
    permutation is drawn from each slice.  Work grows with the number of
    reduced words and its spread is wide within one length, so drawing
    per slice keeps the work of a run close across seeds.
    """
    rng = random.Random(seed)
    counts = _word_counts(7)
    sample = []
    for length in S7_LENGTHS:
        pool = sorted((r, w) for w, r in counts.items() if _inversions(w) == length)
        for j in range(S7_PER_LENGTH):
            lo = j * len(pool) // S7_PER_LENGTH
            hi = (j + 1) * len(pool) // S7_PER_LENGTH
            sample.append(pool[rng.randrange(lo, hi)][1])
    return sample


class OracleGraph:
    """G(w) from the oracles alone: classes by commutation closure, edges by
    braid rewrites, vertex ids in order of the lexicographically greatest
    word of each class (the library's canonical word)."""

    def __init__(self, w: tuple[int, ...]):
        from oracles import classes_bfs, rewrite_neighbors

        classes = sorted(classes_bfs(w), key=max)
        self.canonical = [list(max(c)) for c in classes]
        where = {ls: k for k, c in enumerate(classes) for ls in c}
        self.adj: dict[int, set[int]] = {k: set() for k in range(len(classes))}
        for ls, k in where.items():
            for other in rewrite_neighbors(ls):
                j = where[other]
                if j != k:
                    self.adj[k].add(j)
        self.edges = {(u, v) for u in self.adj for v in self.adj[u] if u < v}

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def verdicts(self) -> dict[tuple[int, int, int], set[str]]:
        """Allowed ``cycles`` verdicts for every pair of edges at a vertex."""
        from oracles import induced_cycle_lengths

        out = {}
        for v in self.adj:
            for a, b in combinations(sorted(self.adj[v]), 2):
                lengths = induced_cycle_lengths(self, v, a, b)
                if 4 in lengths:
                    out[(v, a, b)] = {"four_cycle"}
                elif lengths == {8}:
                    out[(v, a, b)] = {"eight_cycle"}
                elif not lengths:
                    out[(v, a, b)] = {"no_induced_cycle"}
                else:
                    out[(v, a, b)] = set()  # no verdict fits a 6-cycle
        return out


def expect_graph(g: OracleGraph) -> Check:
    def check(code: int, stdout: str, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        doc = _json(stdout)
        vertices = doc.get("vertices", [])
        if len(vertices) != len(g.canonical):
            return f"{len(vertices)} vertices, expected {len(g.canonical)}"
        if [v.get("canonical") for v in vertices] != g.canonical:
            return "canonical words differ from the oracle classes"
        got = {tuple(sorted((e["u"], e["v"]))) for e in doc.get("edges", [])}
        return None if got == g.edges else "edges differ from the oracle graph"

    return check


def expect_cycles(verdicts: dict[tuple[int, int, int], set[str]]) -> Check:
    def check(code: int, stdout: str, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        rows = _json(stdout).get("pairs", [])
        got = {(r["v"], r["a"], r["b"]): r["verdict"] for r in rows}
        if len(got) != len(rows) or got.keys() != verdicts.keys():
            return "edge pairs differ from the oracle graph"
        for key, verdict in got.items():
            if verdict not in verdicts[key]:
                return f"pair {key}: {verdict}, oracle allows {sorted(verdicts[key])}"
        return None

    return check


def s7_struct(seed: int) -> Workload:
    sample = s7_sample(seed)
    calls = []
    for w in sample:
        g = OracleGraph(w)
        text = "".join(map(str, w))
        calls += [
            Call(["graph", text, "--format", "json"], expect_graph(g)),
            Call(["rect", text, "--format", "json"], expect_exit0),
            Call(["cube", text, "--format", "json"], expect_exit0),
            Call(["cycles", text, "--format", "json"], expect_cycles(g.verdicts())),
        ]
    return Workload([calls],
                    {"seed": seed, "perms": ["".join(map(str, w)) for w in sample]})


WORKLOADS = {
    "w0_deep": w0_deep,
    "s6_sweep": s6_sweep,
    "s7_struct": s7_struct,
    "guard_refusal": guard_refusal,
}
