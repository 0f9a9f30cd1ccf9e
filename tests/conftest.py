import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from redweave import classes, enumerate_sn, suite, words
from redweave.classes import build_graph
from redweave.words import _SweepTables


@pytest.fixture(scope="session")
def s5():
    return list(enumerate_sn(5))


@pytest.fixture(scope="session")
def s6():
    return list(enumerate_sn(6))


@pytest.fixture(scope="session")
def s6_graphs(s6):
    # G(w) for all of S_6, shared by the heavy criteria
    return {w: build_graph(w) for w in s6}


class CountingDict(dict):
    """A memo that tallies in ``filled`` the keys put into it."""

    def __init__(self):
        self.filled = Counter()

    def __setitem__(self, key, value):
        self.filled[key] += 1
        super().__setitem__(key, value)


@pytest.fixture
def counted_dags(monkeypatch):
    """The DAGs (memo holders) that ``classes`` makes from now on.  Each memo
    is a ``CountingDict``; ``once(states)`` says that the live-run memo got
    each of the states once, and the Y memo each of its keys once, over the
    same states."""
    made = []

    class Counted(_SweepTables):
        def __init__(self):
            self.live, self.best = CountingDict(), CountingDict()
            made.append(self)

        def once(self, states: set) -> bool:
            return (set(self.live.filled) == states == {q for q, _, _ in self.best.filled}
                    and all(max(m.filled.values()) == 1 for m in (self.live, self.best)))

    monkeypatch.setattr(classes, "_SweepTables", Counted)
    return made


@pytest.fixture
def counted_guards(monkeypatch):
    """The word-count memos that the budget guard ``words._within_budget``
    counts on from now on, in every module of redweave that holds it: id of
    a memo -> (the memo, kept so that no other takes its id, and the
    ``CountingDict`` the guard fills in its place).  A call with no memo
    keeps its fresh one."""
    guards = {}
    real = words._within_budget

    def counted(w, budget, memo=None):
        if memo is not None:
            memo = guards.setdefault(id(memo), (memo, CountingDict()))[1]
        return real(w, budget, memo)

    for name, mod in list(sys.modules.items()):
        if name.startswith("redweave") and getattr(mod, "_within_budget", None) is real:
            monkeypatch.setattr(mod, "_within_budget", counted)
    return guards


@pytest.fixture
def credited_sizes(monkeypatch):
    """The {w: |G(w)|} that each ``scan_sn`` from now on hands to the
    aggregate bound, one mapping a run, in order."""
    seen = []
    real = suite.aggregate_reports
    monkeypatch.setattr(suite, "aggregate_reports",
                        lambda n, sizes: seen.append(sizes) or real(n, sizes))
    return seen
