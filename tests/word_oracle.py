"""Independent word computations, the oracles the word, orbit, lemma and
acceptance tests compare the canonical, index-based and table-driven code
against."""

from itertools import product

from hypcrit.words import compose_words, is_reduced, letters, word_key


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


def orbit_graph_steps(entries, R):
    """Steps from the identity to each of `entries`, in entry order, in the
    orbit graph that joins g to g s for every entry s displaced by at most
    R, through the entries; -1 where no path reaches the entry. A
    breadth-first search on words: each step composes g s as a string
    (`compose_words`) and looks it up among the entries' words."""
    index = {e.word: i for i, e in enumerate(entries)}
    steps = [e.word for e in entries if e.word and float(e.displacement) <= float(R) + 1e-12]
    dist = [0] + [-1] * (len(index) - 1)
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for s in steps:
                j = index.get(compose_words(entries[i].word, s))
                if j is not None and dist[j] < 0:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        frontier = nxt
    return dist


def rand_word(rng, alpha, length, w=""):
    """w followed by `length` random letters of alpha, each redrawn while
    it cancels the one before it. A draw is alpha[getrandbits(k)], k =
    len(alpha).bit_length(), redrawn past the alphabet."""
    n, k, bits = len(alpha), len(alpha).bit_length(), rng.getrandbits
    out, inv = list(w), w[-1:].swapcase()
    for _ in range(length):
        r = bits(k)
        while r >= n or alpha[r] == inv:
            r = bits(k)
        out.append(alpha[r])
        inv = alpha[r].swapcase()
    return "".join(out)
