import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from oracles import (
    Move,
    MoveKind,
    all_words_bfs,
    apply_move,
    commutation_class_bfs,
    list_moves,
)
from redweave import InputError, BudgetExceeded, bounds, suite, words
from redweave.classes import build_graph
from redweave.cli import run
from redweave.perm import _orbit, enumerate_sn, identity, inversions, longest_element
from redweave.words import (
    Word,
    canonical_form,
    canonical_letters,
    count_reduced_words,
    enumerate_reduced_words,
    evaluate,
    index_sum,
    parse_word,
    reduced_letter_seqs,
    word_of,
)


def words_of(w):
    return [word.letters for word in enumerate_reduced_words(w)]


def test_evaluate_examples():
    assert evaluate(Word((1, 2, 1, 3, 2), 4)) == ((3, 4, 2, 1), True)
    assert evaluate(Word((1, 1), 3)) == ((1, 2, 3), False)
    assert evaluate(Word((), 3)) == ((1, 2, 3), True)
    assert evaluate(Word((2, 1, 2, 3, 2), 4))[0] == (3, 4, 2, 1)


def test_evaluate_rejects_bad_letter():
    with pytest.raises(InputError):
        evaluate(Word((3,), 3))


def test_parse_word_and_word_of():
    assert parse_word("2,1,3,2,3", 4).letters == (2, 1, 3, 2, 3)
    assert parse_word("21323", 4).letters == (2, 1, 3, 2, 3)
    assert parse_word("", 4).letters == ()
    with pytest.raises(InputError):
        word_of((4,), 4)
    with pytest.raises(InputError):
        parse_word("2,x", 4)


def test_enumeration_3421_is_lexicographic_and_complete():
    assert words_of((3, 4, 2, 1)) == [
        (1, 2, 1, 3, 2),
        (1, 2, 3, 1, 2),
        (2, 1, 2, 3, 2),
        (2, 1, 3, 2, 3),
        (2, 3, 1, 2, 3),
    ]


def test_enumeration_small_counts():
    assert words_of((1, 2, 3)) == [()]
    assert len(words_of((3, 2, 1))) == 2
    assert count_reduced_words((4, 3, 2, 1)) == 16
    assert count_reduced_words(longest_element(5)) == 768
    assert count_reduced_words(longest_element(6)) == 292864


def test_first_word_comes_before_the_dag_is_built(monkeypatch):
    # the word DFS expands a state when it gets there, once: the first word
    # of w0 of S_6 reads the 16 states on its path, not the 720 below w0
    read, real = [], words.kids

    def counted(q):
        read.append(q)
        return real(q)

    monkeypatch.setattr(words, "kids", counted)
    seqs = reduced_letter_seqs(longest_element(6))
    assert next(seqs) == (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1)
    assert len(read) == len(set(read)) == 16
    assert sum(1 for _ in seqs) == 292863
    assert len(read) == len(set(read)) == 720


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_reduced_words((3, 2, 1), budget=1))


@pytest.fixture
def guarded(monkeypatch):
    """The w of each call of the word budget's guard ``words._within_budget``
    from now on, in every module of redweave that holds it."""
    calls = []
    real = words._within_budget

    def counted(w, budget, memo=None):
        calls.append(w)
        return real(w, budget, memo)

    for name, mod in list(sys.modules.items()):
        if name.startswith("redweave") and getattr(mod, "_within_budget", None) is real:
            monkeypatch.setattr(mod, "_within_budget", counted)
    return calls


W0_4 = longest_element(4)
LENGTH_3 = sorted((w for w in enumerate_sn(4) if inversions(w) == 3),
                  key=lambda w: (-inversions(w), w))  # the order the sweep guards them in
GUARDED = {  # an entry point of one or more w, called at a budget: the w it guards
    "build_graph": (lambda budget: build_graph(W0_4, budget), [W0_4]),
    "scan_sn": (lambda budget: suite.scan_sn(4, budget),  # the least w of each orbit
                sorted((w for w in enumerate_sn(4) if w == min(_orbit(w))),
                       key=lambda w: (-inversions(w), w))),
    "aggregate_bound_check": (lambda budget: bounds.aggregate_bound_check(4, 3, budget),
                              LENGTH_3),
    "_size_bounds_of": (lambda budget: bounds._size_bounds_of(W0_4, budget), [W0_4]),
    "_warrington_count": (lambda budget: words._warrington_count(4, budget=budget), [W0_4]),
    "enumerate_reduced_words": (lambda budget: list(enumerate_reduced_words(W0_4, budget)),
                                [W0_4]),
}


@pytest.mark.parametrize("name", GUARDED)
def test_the_word_budget_has_one_guard(guarded, name):
    # every entry point passes each of its w through words._within_budget
    # once, and a refusal is its message, for the first w in its order
    call, perms = GUARDED[name]
    call(10**8)
    assert guarded == perms
    guarded.clear()
    with pytest.raises(BudgetExceeded) as refusal:
        call(1)
    assert guarded == perms[:1]
    least = re.fullmatch(r"at least (\d+) reduced words exceed the budget of 1", str(refusal.value))
    assert 1 < int(least[1]) <= count_reduced_words(perms[0])


def test_cli_words_has_the_one_guard(guarded, capsys):
    assert run(["words", "4321"]) == 0
    assert guarded == [W0_4]
    assert capsys.readouterr().out.endswith("\ncount 16\n")
    assert run(["words", "4321", "--budget-words", "15"]) == 3
    assert guarded == [W0_4, W0_4]
    assert capsys.readouterr().err == (
        "budget refusal: at least 16 reduced words exceed the budget of 15\n")


@pytest.mark.parametrize("n", [9, 10, 11, 20, 40])
def test_a_refusal_is_bounded(n):
    # the guard stops at the first state past the budget: refusing w0_n fills
    # about a thousand states at most of the n! below it (w0_40 has 1e940 words)
    memo = {}
    with pytest.raises(BudgetExceeded, match=r"^at least \d+ reduced words exceed the budget"):
        words._within_budget(longest_element(n), 10**8, memo)
    assert len(memo) < 5000


def test_the_guard_refuses_exactly_past_the_word_count(s5):
    # against the words closed under braid and commutation moves from one word:
    # refused at budget |R(w)| - 1 with a count N in (budget, |R(w)|], passed at
    # |R(w)| with |R(w)| returned, on a fresh memo and on one shared by all of S_5
    shared = {}
    for w in s5:
        total = len(all_words_bfs(w))
        with pytest.raises(BudgetExceeded) as refusal:
            words._within_budget(w, total - 1)
        least = re.fullmatch(r"at least (\d+) reduced words exceed the budget of (\d+)",
                             str(refusal.value))
        assert int(least[2]) == total - 1 < int(least[1]) <= total, w
        assert words._within_budget(w, total) == total, w
        assert words._within_budget(w, total, shared) == total, w


def test_words_match_bfs_closure_n4():
    for w in enumerate_sn(4):
        assert set(words_of(w)) == all_words_bfs(w)


def test_list_moves_examples():
    moves = list_moves(Word((2, 1, 2, 3, 2), 4))
    assert [(m.kind, m.pos) for m in moves] == [
        (MoveKind.BRAID_DOWN, 1),
        (MoveKind.BRAID_UP, 3),
    ]
    moves = list_moves(Word((2, 1, 3, 2, 3), 4))
    assert [(m.kind, m.pos) for m in moves] == [
        (MoveKind.COMMUTATION, 2),
        (MoveKind.BRAID_DOWN, 3),
    ]
    assert list_moves(Word((), 3)) == []


def test_apply_move():
    w = Word((2, 1, 2, 3, 2), 4)
    assert apply_move(w, Move(MoveKind.BRAID_DOWN, 1)).letters == (1, 2, 1, 3, 2)
    assert apply_move(w, Move(MoveKind.BRAID_UP, 3)).letters == (2, 1, 3, 2, 3)
    with pytest.raises(InputError):
        apply_move(w, Move(MoveKind.COMMUTATION, 1))
    with pytest.raises(InputError):
        apply_move(w, Move(MoveKind.BRAID_UP, 1))
    with pytest.raises(InputError):
        apply_move(w, Move(MoveKind.BRAID_DOWN, 9))


def test_canonical_letters_examples():
    assert canonical_letters((1, 2, 1, 3, 2)) == (1, 2, 3, 1, 2)
    assert canonical_letters((2, 1, 2, 3, 2)) == (2, 1, 2, 3, 2)
    assert canonical_letters((1, 3)) == (3, 1)
    assert canonical_letters(()) == ()
    assert canonical_form(Word((1, 3), 4)) == Word((3, 1), 4)


def test_canonical_is_lex_greatest_in_class():
    for w in enumerate_sn(4):
        for ls in words_of(w):
            cls = commutation_class_bfs(ls)
            assert canonical_letters(ls) == max(cls)


def test_canonical_constant_on_class_random_orders():
    rng = random.Random(7)
    for ls in words_of(longest_element(4)):
        # reach the canonical form by random commutations too
        cur = list(ls)
        for _ in range(60):
            spots = [
                p for p in range(len(cur) - 1) if abs(cur[p] - cur[p + 1]) >= 2
            ]
            if not spots:
                break
            p = rng.choice(spots)
            cur[p], cur[p + 1] = cur[p + 1], cur[p]
        assert canonical_letters(tuple(cur)) == canonical_letters(ls)


@st.composite
def reduced_word_case(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    words = [word for word in enumerate_reduced_words(w)]
    return draw(st.sampled_from(words))


@given(reduced_word_case())
def test_moves_preserve_evaluation(word):
    p, reduced = evaluate(word)
    assert reduced
    for move in list_moves(word):
        other = apply_move(word, move)
        assert evaluate(other) == (p, True)
        if move.kind is MoveKind.COMMUTATION:
            assert index_sum(other) == index_sum(word)
        elif move.kind is MoveKind.BRAID_UP:
            assert index_sum(other) == index_sum(word) + 1
        else:
            assert index_sum(other) == index_sum(word) - 1


@given(reduced_word_case())
def test_canonical_idempotent_and_reduced(word):
    canon = canonical_letters(word.letters)
    assert canonical_letters(canon) == canon
    assert evaluate(Word(canon, word.n))[1]
    assert index_sum(Word(canon, word.n)) == index_sum(word)


def test_index_sum_trivia():
    assert index_sum(Word((), 3)) == 0
    assert index_sum(Word((2, 1, 2, 3, 2), 4)) == 10


def test_identity_only_empty_word():
    assert count_reduced_words(identity(5)) == 1
    assert inversions(identity(5)) == 0


def least_and_count(seqs, weight):
    """(least weight, how many at it) over letter sequences, by brute force."""
    sums = [sum(weight[i] for i in ls) for ls in seqs]
    return (min(sums), sums.count(min(sums))) if sums else (float("inf"), 0)


@pytest.mark.parametrize("weight", [[0, 2, -1, 3, 1], [0, 1, 1, 1, 1], [0, 0, 5, 0, 2]])
def test_least_weight_paths_match_brute_force(weight):
    # over any w of S_5, with weights that tie and go negative; the canonical
    # fold walks (state, cap) keys, whose dead ends must count for nothing
    for w in enumerate_sn(5):
        seqs = list(reduced_letter_seqs(w))
        assert words._least_weight_paths(w, weight, False) == least_and_count(seqs, weight), w
        canonical = {canonical_letters(ls) for ls in seqs}
        assert words._least_weight_paths(w, weight, True) == least_and_count(canonical, weight), w
