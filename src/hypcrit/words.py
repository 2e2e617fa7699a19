"""Reduced words in a finitely generated free group.

Generators are lower-case letters 'a', 'b', 'c', ...; the inverse of a
generator is the corresponding upper-case letter. A word is a plain string,
always kept freely reduced. The identity is the empty string.

Canonical letter order (used everywhere a deterministic ordering of words
is needed) is a < A < b < B < c < C < ..., i.e. generator before its
inverse, ranks in alphabet order.
"""

from itertools import chain, islice

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


def is_word_over(w, alphabet):
    """Whether w is a nonempty reduced word over the letters `alphabet`."""
    return isinstance(w, str) and bool(w) and set(w) <= set(alphabet) and is_reduced(w)


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


def reduced_word_at(rank, n, i):
    """The i-th reduced word of length n in canonical order (negative i
    counts from the end; IndexError outside the level), built from i alone.

    Level n of `word_levels` is a mixed-radix count: its first digit, base
    2 rank, picks the first letter, and each later digit, base 2 rank - 1,
    picks among the letters that do not cancel the previous one, in
    canonical order.
    """
    q = 2 * rank - 1
    i = range((q + 1) * q ** (n - 1) if n else 1)[i]
    if not n:
        return ""
    digits = []
    for _ in range(n - 1):
        i, d = divmod(i, q)
        digits.append(d)
    ranks = [i]
    for d in reversed(digits):
        # the inverse of letter rank r has rank r ^ 1; skip it
        ranks.append(d + (d >= (ranks[-1] ^ 1)))
    alph = letters(rank)
    return "".join(alph[r] for r in ranks)


def reduced_words_upto(rank, n):
    """All reduced words of length <= n, in canonical order: the first
    n + 1 levels of `word_levels`."""
    return list(chain.from_iterable(islice(word_levels(rank), n + 1)))
