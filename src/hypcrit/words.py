"""Reduced words in a finitely generated free group.

Generators are lower-case letters 'a', 'b', 'c', ...; the inverse of a
generator is the corresponding upper-case letter. A word is a plain string,
always kept freely reduced. The identity is the empty string.

Canonical letter order (used everywhere a deterministic ordering of words
is needed) is a < A < b < B < c < C < ..., i.e. generator before its
inverse, ranks in alphabet order.
"""

from itertools import chain, islice
from itertools import product as iproduct

_LOWER = "abcdefghijklmnopqrstuvwxyz"


def letters(rank):
    """Alphabet of F_rank in canonical order: [a, A, b, B, ...]."""
    out = []
    for i in range(rank):
        out.append(_LOWER[i])
        out.append(_LOWER[i].upper())
    return out


_ORDER = {}
for _i, _c in enumerate(_LOWER):
    _ORDER[_c] = 2 * _i
    _ORDER[_c.upper()] = 2 * _i + 1


def is_reduced(w):
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def compose_words(u, v):
    """Reduced product u*v of two already-reduced words.

    Only cancellation at the seam can occur, so this is linear in the
    cancelled length.
    """
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == v[j].swapcase():
        i -= 1
        j += 1
    return u[:i] + v[j:]


def invert_word(w):
    return w[::-1].swapcase()


def cyclic_reduce(w):
    """Cyclically reduce a reduced word (conjugation-minimal length)."""
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        w = w[1:-1]
    return w


def word_key(w):
    """Sort key realizing the canonical deterministic order on words.

    Shorter words first, then letterwise by canonical letter rank.
    """
    return (len(w), tuple(_ORDER[c] for c in w))


def word_levels(rank):
    """Iterator over the levels k = 0, 1, 2, ... of the reduced words of
    F_rank: level k lists the words of length k in canonical order, each
    word of level k - 1 followed by every letter that does not cancel its
    last one."""
    alph = letters(rank)
    # letters that may follow a word, keyed by its last letter ("" if none)
    follow = {c: [d for d in alph if d != c.swapcase()] for c in alph}
    follow[""] = alph
    level = [""]
    while True:
        yield level
        level = [w + c for w in level for c in follow[w[-1:]]]


def reduced_words_of_length(rank, n):
    """All reduced words of exactly length n, in canonical order."""
    return next(islice(word_levels(rank), n, None))


def reduced_words_upto(rank, n):
    """All reduced words of length <= n, in canonical order: the first
    n + 1 levels of `word_levels`."""
    return list(chain.from_iterable(islice(word_levels(rank), n + 1)))


def brute_force_reduced_words_upto(rank, n):
    """Independent enumeration: filter all letter strings of length <= n.

    Exponentially slower than reduced_words_upto; used as a test oracle
    only. Returns a sorted list (canonical order).
    """
    alph = letters(rank)
    found = {""}
    for k in range(1, n + 1):
        for tup in iproduct(alph, repeat=k):
            w = "".join(tup)
            if is_reduced(w):
                found.add(w)
    return sorted(found, key=word_key)
