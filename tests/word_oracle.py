"""Independent enumeration of reduced words, the oracle the word, orbit
and acceptance tests compare the canonical enumerators against."""

from itertools import product

from hypcrit.words import is_reduced, letters, word_key


def brute_force_reduced_words_upto(rank, n):
    """Filter all letter strings of length <= n: exponentially slower than
    `reduced_words_upto`. Returns a sorted list (canonical order)."""
    alph = letters(rank)
    found = {""}
    for k in range(1, n + 1):
        for tup in product(alph, repeat=k):
            w = "".join(tup)
            if is_reduced(w):
                found.add(w)
    return sorted(found, key=word_key)
