import inspect

import pytest
from hypothesis import given, strategies as st

from oracles import aggregate_by_encodings, global_dags, paren_decoding
from redweave import BudgetExceeded, InputError, bounds, classes
from redweave.bounds import (
    aggregate_bound_check,
    aggregate_reports,
    catalan,
    paren_encoding,
    size_bounds,
)
from redweave.classes import build_graph
from redweave.perm import enumerate_sn, identity, inversions, longest_element, pattern_count


def catalan_recurrence(m: int) -> int:
    """The m-th Catalan number by the convolution recurrence."""
    c = [1]
    for k in range(1, m + 1):
        c.append(sum(c[j] * c[k - 1 - j] for j in range(k)))
    return c[m]


def test_catalan_values():
    assert [catalan(m) for m in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    for m in range(12):
        assert catalan(m) == catalan_recurrence(m)


def test_size_bounds_3421():
    rep = size_bounds(build_graph((3, 4, 2, 1)))
    assert rep.y == 2 and rep.n321 == 2
    assert rep.lower == 3 and rep.actual == 3
    assert rep.upper == 3**5
    assert rep.lower <= rep.actual < rep.upper


def test_size_bounds_identity():
    rep = size_bounds(build_graph(identity(4)))
    assert rep.y == 0 and rep.lower == 1 and rep.actual == 1
    assert rep.upper == 1  # 3^0; equality allowed only in this trivial case


def test_size_bounds_w0_s4():
    rep = size_bounds(build_graph(longest_element(4)))
    assert rep.y == 2 and rep.actual == 8
    assert rep.lower == 2**1 + 4 - 1


def test_paren_encoding_example():
    assert paren_encoding((2, 1, 2, 3, 2)) == "(())((())())"
    assert paren_encoding(()) == ""
    assert paren_encoding((1,)) == "()"
    assert paren_encoding((3, 1)) == "((()))()"


def test_paren_encoding_balance_and_pair_count():
    for letters in [(2, 1, 2, 3, 2), (1,), (3, 1), (2, 1), (3, 2, 1, 2)]:
        enc = paren_encoding(letters)
        assert enc.count("(") == enc.count(")")
        assert enc.count("(") == len(letters) + letters[0] - 1
        depth = 0
        for ch in enc:
            depth += 1 if ch == "(" else -1
            assert depth >= 0
        assert depth == 0


def test_paren_encoding_rejects_commuting_ascent():
    with pytest.raises(InputError):
        paren_encoding((1, 3))  # not canonical: 1 then 3 commutes


def test_paren_encoding_injective_at_fixed_length():
    # injectivity is only promised among representatives of equal length
    seen = {}
    for w in [(4, 3, 2, 1), (3, 4, 2, 1), (4, 2, 3, 1), (2, 4, 3, 1)]:
        for c in build_graph(w).vertices:
            canon = c.canonical.letters
            key = (len(canon), paren_encoding(canon))
            assert seen.setdefault(key, canon) == canon


def test_aggregate_bound_small():
    rep = aggregate_bound_check(3, 2)
    assert rep.count_perms == 2 and rep.sum_classes == 2
    assert rep.catalan == catalan(4) == 14
    assert rep.injective and rep.ok

    rep = aggregate_bound_check(3, 3)
    assert rep.count_perms == 1 and rep.sum_classes == 2
    assert rep.ok

    rep = aggregate_bound_check(4, 5)
    assert rep.sum_classes < rep.catalan < rep.four_power
    assert rep.injective


def test_aggregate_bound_is_stated_for_length_at_least_1():
    # at l = 0 the one empty class would meet C_{n-1} = 1 for n <= 2
    for n in range(2, 5):
        with pytest.raises(InputError, match=f"length 0 is outside 1..{n * (n - 1) // 2}"):
            aggregate_bound_check(n, 0)
    assert aggregate_bound_check(2, 1).ok
    for l in (0, 1):  # S_1 has no length to state it for
        with pytest.raises(InputError, match="S_1 has no nontrivial length"):
            aggregate_bound_check(1, l)


def test_aggregate_reports_match_per_length_checks():
    # the one-pass reports scan_sn builds from the sizes of the G(w) it built
    for n in range(2, 6):
        sizes = classes._sweep(enumerate_sn(n), len, 10**8)
        expected = [aggregate_bound_check(n, l) for l in range(1, n * (n - 1) // 2 + 1)]
        assert aggregate_reports(n, sizes) == expected


def _no_big_ascent(top: int, length: int) -> list[tuple[int, ...]]:
    """Every sequence over letters 1..top of the given length with no ascent
    of two or more, lexicographically."""
    seqs = [()]
    for _ in range(length):
        seqs = [s + (x,) for s in seqs for x in range(1, min(top, s[-1] + 1 if s else top) + 1)]
    return seqs


def _lemma_fails_on(top: int, longest: int) -> tuple[int, ...] | None:
    """The first sequence over letters 1..top, of length at most longest and
    with no ascent of two or more, that ``paren_decoding`` does not get back
    from its encoding or that shares its encoding with another of its
    length; None when there is none.  Every canonical word is such a
    sequence, so where there is none the encoding is injective at each length."""
    for length in range(longest + 1):
        seen: dict[str, tuple[int, ...]] = {}
        for seq in _no_big_ascent(top, length):
            text = bounds.paren_encoding(seq)
            if paren_decoding(text, length) != seq or seen.setdefault(text, seq) != seq:
                return seq
    return None


def test_the_encoding_is_decoded_back_on_every_sequence_with_no_big_ascent():
    # the lemma the aggregate's injective rests on, exhaustively: 38,706 sequences
    assert sum(len(_no_big_ascent(7, length)) for length in range(8)) == 38706
    assert _lemma_fails_on(7, 7) is None


@st.composite
def no_big_ascent(draw, length: int | None = None) -> tuple[int, ...]:
    """A sequence over letters 1..8 of at most 28 letters (of length, if
    given) with no ascent of two or more: every word of S_8 is one."""
    lo, hi = (0, 28) if length is None else (length, length)
    seq: list[int] = []
    for x in draw(st.lists(st.integers(1, 8), min_size=lo, max_size=hi)):
        seq.append(min(x, seq[-1] + 1) if seq else x)
    return tuple(seq)


@given(st.data())
def test_the_encoding_is_decoded_back_and_injective_up_to_s8(data):
    seq = data.draw(no_big_ascent())
    assert paren_decoding(paren_encoding(seq), len(seq)) == seq
    other = data.draw(no_big_ascent(len(seq)))
    assert (paren_encoding(other) == paren_encoding(seq)) == (other == seq)


def test_paren_decoding_inverts_the_encoding(s6_graphs):
    graphs = [build_graph(w) for n in range(1, 6) for w in enumerate_sn(n)]
    canonicals = [c.canonical.letters for g in [*graphs, *s6_graphs.values()] for c in g.vertices]
    assert len(canonicals) == 10190  # every canonical word of S_1..S_6
    for c in canonicals:
        assert paren_decoding(paren_encoding(c), len(c)) == c, c


def _canonicals(g):
    return [c.canonical.letters for c in g.vertices]


def _sizes_and_canonicals(graphs):
    graphs = list(graphs)
    return {g.w: len(g) for g in graphs}, {g.w: _canonicals(g) for g in graphs}


def test_aggregate_reports_match_the_set_of_encodings(s6_graphs):
    for n in range(2, 6):
        sizes, canonicals = _sizes_and_canonicals(build_graph(w) for w in enumerate_sn(n))
        assert aggregate_reports(n, sizes) == aggregate_by_encodings(n, canonicals)
    sizes, canonicals = _sizes_and_canonicals(s6_graphs.values())
    assert aggregate_reports(6, sizes) == aggregate_by_encodings(6, canonicals)


@pytest.mark.slow
def test_aggregate_reports_match_the_set_of_encodings_s7():
    # built by a sweep, on one DAG, keeping the canonical words but no graph
    swept = classes._sweep(enumerate_sn(7), lambda g: (len(g), _canonicals(g)), 10**12)
    sizes = {w: size for w, (size, _) in swept.items()}
    canonicals = {w: cs for w, (_, cs) in swept.items()}
    del swept
    reports = aggregate_reports(7, sizes)
    assert reports == aggregate_by_encodings(7, canonicals)
    assert sum(rep.sum_classes for rep in reports) == 361071 - 1  # all but the identity's
    assert all(rep.ok for rep in reports)


def test_a_non_injective_encoding_fails_the_aggregate(monkeypatch):
    # every word of one length gets one encoding, which decodes to 1, 1, ..., 1:
    # the lemma fails on (2,), and the set of encodings tells the reports apart
    monkeypatch.setattr(bounds, "paren_encoding", lambda letters: "()" * len(letters))
    assert _lemma_fails_on(7, 7) == (2,)
    graphs = classes._sweep(enumerate_sn(4), lambda g: g, 10**8)
    sizes, canonicals = _sizes_and_canonicals(graphs.values())
    by_encodings = aggregate_by_encodings(4, canonicals)
    assert not by_encodings[3 - 1].injective
    assert aggregate_reports(4, sizes) != by_encodings
    assert aggregate_bound_check(4, 3) != by_encodings[3 - 1]


def test_aggregate_is_one_sweep_on_one_dag(monkeypatch, counted_dags):
    # each |G(w)| is a path count on one live-run memo: no G(w) and no DAG
    # of classes is made, and no memo outlives the check
    live = []
    real = bounds._class_count
    monkeypatch.setattr(bounds, "_class_count", lambda w, memo: live.append(memo) or real(w, memo))
    assert aggregate_bound_check(5, 5).ok
    assert len(live) == sum(1 for w in enumerate_sn(5) if inversions(w) == 5)
    assert all(memo is live[0] for memo in live)
    assert counted_dags == []
    assert global_dags() == []


def test_aggregate_refused_by_the_budget_leaves_no_dag():
    with pytest.raises(BudgetExceeded, match="exceed the budget of 1"):
        aggregate_bound_check(5, 5, budget=1)
    assert global_dags() == []


def test_aggregate_honours_the_sn_cap():
    # the cap of enumerate_sn, as for scan_sn; nothing is built before the refusal
    with pytest.raises(BudgetExceeded, match="refusing to enumerate S_9"):
        aggregate_bound_check(9, 1)
    assert "cap" not in inspect.signature(aggregate_bound_check).parameters


def test_size_bounds_of_w_match_the_graph(s5):
    for w in s5 + [longest_element(6)]:
        assert bounds._size_bounds_of(w) == size_bounds(build_graph(w)), w
    for w in (w for n in range(1, 7) for w in enumerate_sn(n)):
        # N_321 read off the 321-triples is the generic pattern count
        assert bounds._size_bounds_of(w, actual=False).n321 == pattern_count(w, (3, 2, 1)), w
    with pytest.raises(BudgetExceeded):
        bounds._size_bounds_of(longest_element(5), budget=767)
    with pytest.raises(InputError):
        bounds._size_bounds_of((1, 1))
