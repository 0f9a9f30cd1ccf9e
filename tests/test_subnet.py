import pytest
from hypothesis import given, strategies as st

from oracles import contains, count_212, count_subnetworks_brute, friendliness_by_indices
from redweave import BudgetExceeded, InputError
from redweave.perm import enumerate_sn, identity, longest_element
from redweave.subnet import (
    TOP_212,
    WARRINGTON_X,
    complement_word,
    count_subnetworks,
    count_x_avoiding_classes,
    count_x_avoiding_words,
    crossing_events,
    friendliness,
    induced_word,
    parse_word_set,
    predicted_count_friendly,
    predicted_count_w0_s4,
    reverse_word,
    s4_longest_classes,
    word_set,
)
from redweave.classes import build_graph, class_members
from redweave.words import Word, _warrington_count, enumerate_reduced_words


def test_word_set_validation():
    ws = word_set([(2, 1, 2), (1, 2, 1)], 3)
    assert ws.perm == (3, 2, 1) and ws.m == 3
    with pytest.raises(InputError):
        word_set([(1, 1)], 3)  # not reduced
    with pytest.raises(InputError):
        word_set([(1,), (2,)], 3)  # different evaluations


def test_warrington_x_contents():
    assert WARRINGTON_X.m == 4 and WARRINGTON_X.perm == (4, 3, 2, 1)
    assert WARRINGTON_X.words == {
        (1, 2, 3, 2, 1, 2),
        (3, 2, 1, 2, 3, 2),
        (2, 1, 2, 3, 2, 1),
        (2, 3, 2, 1, 2, 3),
    }


def test_s4_longest_classes():
    classes = s4_longest_classes()
    assert len(classes) == 8
    assert sum(len(c.words) for c in classes) == 16
    assert all(c.perm == (4, 3, 2, 1) for c in classes)


def test_parse_word_set():
    assert parse_word_set("warrington-x") is WARRINGTON_X
    assert parse_word_set("s4-longest-classes:0").perm == (4, 3, 2, 1)
    assert parse_word_set("212; 121").words == {(2, 1, 2), (1, 2, 1)}
    assert parse_word_set("2,1,2").words == {(2, 1, 2)}
    with pytest.raises(InputError):
        parse_word_set("s4-longest-classes:9")
    with pytest.raises(InputError):  # not read as an index from the end
        parse_word_set("s4-longest-classes:-1")
    with pytest.raises(InputError):
        parse_word_set("")
    assert parse_word_set(" 2 1 2 ;; 1,2,1 ").words == {(2, 1, 2), (1, 2, 1)}
    assert parse_word_set("", 1).words == frozenset()


def test_parse_word_set_checks_m_against_a_preset():
    # m is honoured or refused, never ignored: a preset accepts its own size only
    assert parse_word_set("warrington-x", 4) is WARRINGTON_X
    assert parse_word_set("s4-longest-classes:0", 4) == parse_word_set("s4-longest-classes:0")
    for text, m in [("warrington-x", 3), ("s4-longest-classes:0", 7), ("warrington-x", 5)]:
        with pytest.raises(InputError, match=f"{text} has pattern size m = 4, not {m}"):
            parse_word_set(text, m)


@pytest.mark.parametrize("text, m", [("1,a", None), ("1a", None), ("12;x", None),
                                     ("", 0), ("", -3)])
def test_parse_word_set_rejects_bad_input(text, m):
    # a word that is not digits, or a pattern size below 1, is invalid input
    with pytest.raises(InputError):
        parse_word_set(text, m)


def test_crossing_events():
    assert crossing_events(Word((1, 2, 1), 3)) == [(1, 2), (1, 3), (2, 3)]


def test_induced_word_examples():
    w = Word((1, 2, 1, 3, 2), 4)
    assert induced_word(w, [1, 2, 4]).letters == (1, 2, 1)
    assert induced_word(w, [1, 2, 3, 4]).letters == w.letters
    assert induced_word(w, [1]).letters == ()
    assert induced_word(w, [1, 4]).letters == (1,)  # 4 passes 1 once
    assert induced_word(w, [3, 4]).letters == ()  # 3 and 4 stay in order
    with pytest.raises(InputError):
        induced_word(w, [0, 2])
    with pytest.raises(InputError):
        induced_word(w, [2, 5])


def test_induced_word_self():
    w = Word((2, 3, 2, 1, 2, 3), 4)
    assert induced_word(w, [1, 2, 3, 4]).letters == w.letters


def test_count_212_examples():
    assert count_212(Word((2, 1, 3, 2, 3), 4)) == 2
    assert count_212(Word((2, 1, 2, 3, 2), 4)) == 1
    assert count_212(Word((1, 2, 3, 1, 2), 4)) == 0
    assert count_212(Word((1, 2, 1, 3, 2), 4)) == 0  # same class as the line above
    assert count_212(Word((), 3)) == 0


@st.composite
def any_word(draw):
    # reduced or not: letters are drawn freely, so pairs may recross
    n = draw(st.integers(min_value=4, max_value=7))
    letters = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=24))
    return Word(tuple(letters), n)


@given(any_word())
def test_count_212_matches_count_subnetworks(word):
    assert count_212(word) == count_subnetworks(word, TOP_212)


def test_count_subnetworks_examples():
    assert count_subnetworks(Word((2, 3, 2, 1, 2, 3), 4), WARRINGTON_X) == 1
    assert count_subnetworks(Word((1, 2, 3, 1, 2, 1), 4), WARRINGTON_X) == 0
    top = word_set([(2, 1, 2)], 3)
    assert count_subnetworks(Word((2, 1, 2, 3, 2), 4), top) == 1
    assert count_subnetworks(Word((1, 2, 3, 1, 2), 4), top) == 0
    assert count_subnetworks(Word((1,), 2), WARRINGTON_X) == 0  # m > n
    assert count_subnetworks(Word((1,), 3), word_set([], 2)) == 0


def test_count_subnetworks_matches_brute_oracle():
    for w in enumerate_sn(4):
        for word in enumerate_reduced_words(w):
            for x in (WARRINGTON_X, word_set([(2, 1, 2)], 3), word_set([(1, 2, 1)], 3)):
                assert count_subnetworks(word, x) == count_subnetworks_brute(
                    word, x.words, x.m
                )


def test_count_constant_on_classes():
    w = longest_element(4)
    top = word_set([(2, 1, 2)], 3)
    for c in build_graph(w).vertices:
        counts = {
            count_subnetworks(Word(ls, 4), top)
            for ls in class_members(c.canonical.letters)
        }
        assert len(counts) == 1


def test_x_avoiding_counts():
    w0_3, w0_4 = build_graph(longest_element(3)), build_graph(longest_element(4))
    assert count_x_avoiding_words(w0_3, WARRINGTON_X) == 2
    assert count_x_avoiding_words(w0_4, WARRINGTON_X) == 12
    # the four X-words are each singleton classes, so 8 - 4 remain
    assert count_x_avoiding_classes(w0_4, WARRINGTON_X) == 4
    top = word_set([(2, 1, 2)], 3)
    g = build_graph((3, 4, 2, 1))
    assert count_x_avoiding_words(g, top) == 2
    assert count_x_avoiding_classes(g, top) == 1


def test_x_avoiding_classes_refuses_an_x_that_splits_a_class():
    # G(2143) has one class, {13, 31}: tested through its canonical word 31
    # alone, it would avoid {13} and contain {31}
    g = build_graph((2, 1, 4, 3))
    for x in ([(1, 3)], [(3, 1)]):
        with pytest.raises(InputError, match="not a union of commutation classes"):
            count_x_avoiding_classes(g, word_set(x, 4))
    assert count_x_avoiding_classes(g, word_set([(1, 3), (3, 1)], 4)) == 0


def test_x_avoiding_classes_of_class_unions_count_as_before():
    # each preset is a union of classes: a class avoids it when every word
    # of the class does, and the counts on w0_5 are those of the canonical
    # words alone
    g = build_graph(longest_element(5))
    presets = [WARRINGTON_X, *s4_longest_classes()]
    counts = [count_x_avoiding_classes(g, x) for x in presets]
    assert counts == [8, 39, 40, 40, 38, 40, 38, 40, 39]
    assert counts == [sum(1 for c in g._canonical
                          if not any(count_subnetworks(Word(ls, 5), x) for ls in class_members(c)))
                      for x in presets]


def test_x_avoiding_words_when_x_is_not_a_class_union():
    # 121321 shares its class with 123121 and 121231; summing class sizes
    # would wrongly count all three as containing X
    w0 = longest_element(5)
    g = build_graph(w0)
    assert count_x_avoiding_words(g, word_set([(1, 2, 1, 3, 2, 1)], 4)) == 590
    assert count_x_avoiding_words(g, WARRINGTON_X) == 328
    direct = sum(
        1
        for word in enumerate_reduced_words(w0)
        if count_subnetworks(word, word_set([(1, 2, 1, 3, 2, 1)], 4)) == 0
    )
    assert direct == 590


def test_x_avoiding_words_of_a_non_closed_x_match_the_brute_oracle(s5):
    # neither X is a union of classes: 121321 and 13 each leave class-mates out
    for x in (word_set([(1, 2, 1, 3, 2, 1)], 4), word_set([(1, 3)], 4)):
        for w in s5:
            want = sum(1 for word in enumerate_reduced_words(w)
                       if count_subnetworks_brute(word, x.words, x.m) == 0)
            assert count_x_avoiding_words(build_graph(w), x) == want, (x.words, w)


def test_friendliness_examples():
    fr = friendliness(longest_element(5), longest_element(4))
    assert fr.k == 2 and not fr.vacuous
    fr = friendliness((3, 4, 2, 1), (3, 2, 1))
    assert fr.k == 1
    fr = friendliness(identity(4), (3, 2, 1))
    assert fr.k == 0 and fr.vacuous
    # 3412 has no 321-pattern: no statistic to be friendly about
    assert friendliness((4, 2, 3, 1), (3, 4, 1, 2)).k is None
    assert friendliness((4, 3, 2, 1), (3, 2, 1)).k == 1
    # not friendly: the triples of 53421 sit in 1 or 2 of its 4321-patterns
    assert friendliness((5, 3, 4, 2, 1), (4, 3, 2, 1)).k is None


def test_friendliness_matches_the_index_set_oracle(s5):
    # friendliness reads w's 321-triples and p-patterns as value sets
    patterns = [p for m in (3, 4) for p in enumerate_sn(m) if contains(p, (3, 2, 1))]
    assert len(patterns) == 11
    for w in s5:
        for p in patterns:
            assert tuple(friendliness(w, p)) == friendliness_by_indices(w, p), (w, p)


def test_predicted_count_friendly():
    g = build_graph((3, 4, 2, 1))
    res = predicted_count_friendly(g, Word((2, 1, 3, 2, 3), 4), (3, 2, 1))
    assert res.k == 1 and res.c == 9
    assert res.predicted == 2 and res.actual == 2
    for word in enumerate_reduced_words((3, 4, 2, 1)):
        res = predicted_count_friendly(g, word, (3, 2, 1))
        assert res.predicted == res.actual
    with pytest.raises(InputError):
        predicted_count_friendly(g, Word((1, 2, 1), 4), (3, 2, 1))
    with pytest.raises(InputError):
        predicted_count_friendly(g, Word((2, 1, 3, 2, 3), 4), (3, 4, 1, 2))


def test_predicted_count_refuses_a_w_that_is_not_friendly(s5):
    # 3241 has one 321-pattern; the first w of S_5 not 3241-friendly, by the oracle
    p = (3, 2, 4, 1)
    w = next(w for w in s5 if friendliness_by_indices(w, p)[0] is None)
    assert w == (3, 2, 5, 4, 1)
    g = build_graph(w)
    with pytest.raises(InputError) as refused:
        predicted_count_friendly(g, Word(g._canonical[0], 5), p)
    assert str(refused.value) == f"{w} is not {p}-friendly"


def test_predicted_count_w0_s4_examples():
    assert predicted_count_w0_s4(Word((3, 2, 3, 1, 2, 3), 4), 4) == 0
    assert predicted_count_w0_s4(Word((2, 3, 2, 1, 2, 3), 4), 4) == 1
    with pytest.raises(InputError):
        predicted_count_w0_s4(Word((1, 2, 1), 3), 4)


def test_predicted_count_w0_s4_matches_direct():
    for n in (4, 5):
        for word in enumerate_reduced_words(longest_element(n)):
            assert predicted_count_w0_s4(word, n) == count_subnetworks(
                word, WARRINGTON_X
            )


def test_reverse_word():
    rev, same = reverse_word(Word((2, 1, 2, 3, 2, 1), 4))
    assert rev.letters == (1, 2, 3, 2, 1, 2) and same
    rev, same = reverse_word(Word((1, 2), 3))
    assert rev.letters == (2, 1) and not same  # 231 reversed gives 312


def test_complement_word():
    comp, same = complement_word(Word((1, 2, 1, 3, 2, 1), 4))
    assert comp.letters == (3, 2, 3, 1, 2, 3) and same
    comp, same = complement_word(Word((1,), 3))
    assert comp.letters == (2,) and not same


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_warrington_fold_matches_the_class_sums(n):
    # the fold counts least-weight paths by the closed form; the oracle
    # tests each class of G(w0) for an X-subnetwork
    g = build_graph(longest_element(n), budget=10**15)
    assert _warrington_count(n, budget=10**15) == count_x_avoiding_words(g, WARRINGTON_X)
    assert (_warrington_count(n, classes=True, budget=10**15)
            == count_x_avoiding_classes(g, WARRINGTON_X))


def test_warrington_fold_keeps_the_word_budget_and_refuses_bad_n():
    with pytest.raises(BudgetExceeded):
        _warrington_count(6, classes=True, budget=292_863)
    assert _warrington_count(6, budget=292_864) == 54520
    for n in (0, -1):
        with pytest.raises(InputError):
            _warrington_count(n)
