import random

import pytest

from hypcrit.words import (
    compose_words,
    cyclic_reduce,
    invert_word,
    is_reduced,
    letters,
    reduced_word_at,
    reduced_words_of_length,
    reduced_words_upto,
    word_key,
)
from word_oracle import brute_force_reduced_words_upto


def reduce_word(w):
    """Freely reduce a word (cancel adjacent inverse pairs)."""
    stack = []
    for c in w:
        if stack and stack[-1] == c.swapcase():
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


def rand_raw_word(rng, rank, n):
    alpha = letters(rank)
    return "".join(rng.choice(alpha) for _ in range(n))


def test_letters_and_inverses():
    assert letters(2) == ["a", "A", "b", "B"]
    for c in letters(3):
        assert invert_word(c) == c.swapcase()
        assert invert_word(invert_word(c)) == c


def test_reduce_word_is_idempotent_and_reduced():
    rng = random.Random(1)
    for _ in range(500):
        w = rand_raw_word(rng, 2, rng.randrange(0, 12))
        r = reduce_word(w)
        assert is_reduced(r)
        assert reduce_word(r) == r


def test_compose_inverse_gives_identity():
    rng = random.Random(2)
    for _ in range(300):
        w = reduce_word(rand_raw_word(rng, 2, rng.randrange(0, 10)))
        assert compose_words(w, invert_word(w)) == ""
        assert compose_words(invert_word(w), w) == ""


def test_compose_is_associative():
    rng = random.Random(3)
    for _ in range(300):
        u, v, w = (reduce_word(rand_raw_word(rng, 2, rng.randrange(0, 8))) for _ in range(3))
        assert compose_words(compose_words(u, v), w) == compose_words(u, compose_words(v, w))


def test_reduced_word_counts_match_closed_form():
    # free group of rank k: 2k (2k-1)^(n-1) reduced words of length n
    for rank in (2, 3):
        q = 2 * rank
        for n in range(1, 6):
            assert len(reduced_words_of_length(rank, n)) == q * (q - 1) ** (n - 1)
    assert reduced_words_of_length(2, 0) == [""]


def test_enumeration_matches_brute_force_oracle():
    fast = reduced_words_upto(2, 5)
    slow = brute_force_reduced_words_upto(2, 5)
    assert sorted(fast, key=word_key) == sorted(slow, key=word_key)
    assert len(set(fast)) == len(fast)


def test_word_key_is_a_total_length_lex_order():
    ws = reduced_words_upto(2, 3)
    ordered = sorted(ws, key=word_key)
    for u, v in zip(ordered, ordered[1:]):
        assert (len(u), word_key(u)) < (len(v), word_key(v))


def test_cyclic_reduce_fixes_conjugation():
    assert cyclic_reduce("abA") == "b"
    assert cyclic_reduce("aBbA") == ""
    rng = random.Random(4)
    for _ in range(200):
        w = reduce_word(rand_raw_word(rng, 2, rng.randrange(0, 8)))
        c = cyclic_reduce(w)
        assert is_reduced(c)
        # cyclically reduced: first and last letters are not inverse
        if len(c) >= 2:
            assert c[0] != c[-1].swapcase()


def test_rank_edge_cases():
    assert letters(1) == ["a", "A"]
    assert reduced_words_of_length(1, 3) == ["aaa", "AAA"]


def test_unranked_words_are_the_listed_levels():
    # the i-th word of a level from i alone, against the listed level and
    # the brute-force oracle's order, at every index, from both ends
    for rank in (1, 2, 3):
        oracle = brute_force_reduced_words_upto(rank, 6)
        for k in range(7):
            level = reduced_words_of_length(rank, k)
            assert level == [w for w in oracle if len(w) == k]
            n = len(level)
            assert [reduced_word_at(rank, k, i) for i in range(n)] == level
            assert [reduced_word_at(rank, k, i - n) for i in range(n)] == level
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    reduced_word_at(rank, k, i)
