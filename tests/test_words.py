import random

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
from redweave import InputError, BudgetExceeded, words
from redweave.perm import enumerate_sn, identity, inversions, longest_element
from redweave.words import (
    Word,
    canonical_form,
    canonical_letters,
    count_reduced_words,
    enumerate_reduced_words,
    evaluate,
    index_sum,
    is_reduced,
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
    # the word DFS expands a state when it gets there: the first word of w0
    # of S_6 reads the 16 states on its path, not the 720 below w0
    dag = words._SweepTables()
    monkeypatch.setattr(words, "_tables", dag)
    seqs = reduced_letter_seqs(longest_element(6))
    assert next(seqs) == (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1)
    assert len(dag._kids) == 16
    assert sum(1 for _ in seqs) == 292863
    assert len(dag._kids) == 720


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_reduced_words((3, 2, 1), budget=1))


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
    assert is_reduced(Word(canon, word.n))
    assert index_sum(Word(canon, word.n)) == index_sum(word)


def test_index_sum_trivia():
    assert index_sum(Word((), 3)) == 0
    assert index_sum(Word((2, 1, 2, 3, 2), 4)) == 10


def test_identity_only_empty_word():
    assert count_reduced_words(identity(5)) == 1
    assert inversions(identity(5)) == 0
