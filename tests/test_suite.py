import pytest

from redweave import InvariantViolation, classes, structure, suite


def counting(monkeypatch, name, calls):
    """Count calls to classes.<name> in every module that binds it."""
    real = getattr(classes, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    for mod in (classes, structure, suite):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)


@pytest.mark.parametrize("w", [(1, 2, 3), (3, 4, 2, 1), (4, 3, 2, 1), (3, 2, 6, 5, 1, 4)])
def test_check_permutation_builds_graph_and_poset_once(monkeypatch, w):
    calls = {"build_graph": 0, "build_poset": 0}
    for name in calls:
        counting(monkeypatch, name, calls)
    assert suite.check_permutation(w) == []
    assert calls == {"build_graph": 1, "build_poset": 1}


def test_failed_poset_leaves_no_grid_label(monkeypatch):
    def broken(g):
        raise InvariantViolation(f"poset of {g.w} broke")

    monkeypatch.setattr(suite, "build_poset", broken)
    assert suite.check_permutation((3, 2, 6, 5, 1, 4)) == [
        "poset of (3, 2, 6, 5, 1, 4) broke",
        "rectangularity pattern test and labeling disagree for (3, 2, 6, 5, 1, 4)",
    ]
