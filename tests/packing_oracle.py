"""Table-based packing and covering numbers, the oracle the scalar audits
of `hypcrit.entropy` are compared against: every closeness is read from a
dense n x n `arrays.pairwise_distances` table, and the hull's distances to
the basepoint from `arrays.distances_to_point`."""

from hypcrit.arrays import distances_to_point, pairwise_distances
from hypcrit.entropy import greedy_covering_count


def close_matrix(space, points, r):
    return pairwise_distances(space, points) <= r + 1e-12


def covering_number(space, points, r):
    """Branch and bound over the table, from the greedy upper bound."""
    n = len(points)
    if n == 0:
        return 0
    close = close_matrix(space, points, r)
    masks = [sum(1 << j for j in range(n) if close[i, j]) for i in range(n)]
    full = (1 << n) - 1
    best = [greedy_covering_count(space, points, r)]

    def search(covered, used):
        if used >= best[0]:
            return
        if covered == full:
            best[0] = used
            return
        low = (~covered) & full
        i = (low & -low).bit_length() - 1
        for j in range(n):
            if close[i, j]:
                search(covered | masks[j], used + 1)

    search(0, 0)
    return best[0]


def packing_number(space, points, r, mode="exact"):
    """Maximum independent set (exact) or lexicographic-first maximal set
    (greedy) in the 2r-close graph of the table."""
    n = len(points)
    if n == 0:
        return 0
    close = close_matrix(space, points, 2 * r)
    if mode == "greedy":
        chosen = []
        for i in range(n):
            if not any(close[i, j] for j in chosen):
                chosen.append(i)
        return len(chosen)
    conflict = [sum(1 << j for j in range(n) if i != j and close[i, j]) for i in range(n)]
    best = [0]

    def search(i, chosen_count, banned):
        if chosen_count + (n - i) <= best[0]:
            return
        if i == n:
            best[0] = max(best[0], chosen_count)
            return
        if not (banned >> i) & 1:
            search(i + 1, chosen_count + 1, banned | conflict[i])
        search(i + 1, chosen_count, banned)

    search(0, 0, 0)
    return best[0]


def packing_chain(space, points, r):
    """(passed, (Pack(2r), Cov(2r), Pack(r))) in exact mode."""
    p2 = packing_number(space, points, 2 * r)
    c2 = covering_number(space, points, 2 * r)
    p1 = packing_number(space, points, r)
    return p2 <= c2 <= p1, (p2, c2, p1)


def packing_growth(action, hull_samples, ts, r):
    """(passed, P, base_radius, rows) of the growth bound P(1 + P)^{T/r - 1}
    against greedy packing numbers of hull pieces."""
    base_radius = 72.0 * action.declared_delta + 3.0 * r
    d0 = distances_to_point(action.space, hull_samples, action.basepoint)
    core = [p for p, d in zip(hull_samples, d0) if d <= base_radius + 1e-9]
    P = max(packing_number(action.space, core, r, "greedy") if core else 1, 1)
    rows = []
    for T in ts:
        sel = [p for p, d in zip(hull_samples, d0) if d <= T + 1e-9]
        measured = packing_number(action.space, sel, r, "greedy") if sel else 0
        rows.append((T, measured, P * (1.0 + P) ** (T / r - 1.0)))
    passed = all(measured <= bound + 1e-9 for _, measured, bound in rows)
    return passed, P, base_radius, tuple(rows)
