"""Kernels over the weight polytope P = {w : sum(w) = 1, lower <= w <= upper}.

- `score_grid` scores every candidate at a batch of weight vectors, each
  score (`score`) accumulated from 0.0 over the attributes in declared
  order.
- `box_simplex_min` gives min over P of ``c . w`` for many coefficient rows,
  in closed form: the greedy fill of a continuous knapsack.
- `max_min_margin` gives max over P of min_r ``c_r . w``, a small linear
  program, solved as its dual by a revised simplex that prices by the most
  negative reduced cost and falls back to Bland's rule on a run of
  degenerate steps, so the same input always takes the same steps.

Everything runs on plain Python floats, lists and tuples, except a linear
program of more than `_PLAIN_LP_SIZE` (64) coefficients, rows times
attributes.  Such a program goes to numpy, imported on its first call,
where it is faster from about 30 x 5 on; a smaller one runs up to 2.4
times as fast on lists (`max_min_margin` gives the measured crossover).
Both solvers take the same pivot rules.  So a desk-size ``udet analyze``
never loads numpy, whose import costs more than the rest of a cold run.
Nothing here imports scipy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

# Simplex tolerances: the least pivot element, and the reduced-cost and
# ratio-tie tolerance.  The program's entries are O(1).
_PIVOT_TOL = 1e-9
_TOL = 1e-12

# Degenerate simplex steps in a row after which pricing turns to Bland's rule.
_DEGENERATE_RUN = 5

# The most coefficients (rows times attributes) of a margin program solved
# on plain Python lists; larger programs go to numpy.
_PLAIN_LP_SIZE = 64


def score(row: Sequence[float], weights: Sequence[float]) -> float:
    """``row . weights``: one candidate's score at one weight vector,
    accumulated from 0.0 over the attributes in declared order."""
    acc = 0.0
    for x, w in zip(row, weights):
        acc += x * w
    return acc


def score_grid(weights: Iterable[Sequence[float]],
               matrix: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    """Weighted scores for every (weight vector, candidate) pair.

    `weights` holds weight vectors and `matrix` one normalized score row per
    candidate, both over the attributes in declared order.  Entry [p][c] is
    `score(matrix[c], weights[p])`.
    """
    return tuple(tuple(score(row, w) for row in matrix) for w in weights)


def _room(lower: Sequence[float], upper: Sequence[float]) -> tuple[list[float], float]:
    """Each attribute's room upper - lower, and the budget 1 - sum(lower)
    clipped to [0, total room]: a P that is a point within tolerance
    spends nothing or everything."""
    room = [u - lo for lo, u in zip(lower, upper)]
    return room, min(max(1.0 - sum(lower), 0.0), sum(room))


def _least_fill(row: Sequence[float], room: Sequence[float], budget: float) -> float:
    """min of ``row . v`` over 0 <= v <= room with sum(v) = budget: the
    budget goes to the cheapest coefficients first, each up to its room.
    The cheapest coefficient often takes all of it."""
    cheapest = min(row)
    if room[row.index(cheapest)] >= budget:
        return cheapest * budget
    value = 0.0
    for j in sorted(range(len(row)), key=row.__getitem__):
        if room[j] >= budget:
            return value + row[j] * budget
        value += row[j] * room[j]
        budget -= room[j]
    return value


def box_simplex_min(coef: Iterable[Sequence[float]], lower: Sequence[float],
                    upper: Sequence[float]) -> list[float]:
    """min over P of ``row . w`` for every row of `coef`.

    Start at `lower`, then spend the budget 1 - sum(lower) on the cheapest
    coefficients first, each up to its room upper - lower.
    """
    room, budget = _room(lower, upper)
    return [score(row, lower) + _least_fill(row, room, budget) for row in coef]


def max_min_margin(coef: Sequence[Sequence[float]], lower: Sequence[float],
                   upper: Sequence[float]) -> float:
    """max over w in P of min_r ``coef[r] . w``; +inf when `coef` has no rows.

    With w = lower + v, budget = 1 - sum(lower) and room = upper - lower,
    this linear program is solved as its dual, which has one row per
    attribute plus one, however many rows `coef` has:

        min  y . (coef lower) + budget mu + room . z
        s.t. sum(y) = 1,  mu + z_i - s_i = (coef^T y)_i for every attribute i,
             y >= 0, z >= 0, s >= 0, mu free.

    That is the least, over mixtures y of the rows, of the mixture's
    greatest value over P.  z_i prices the bound v_i <= room_i and is left
    out where room_i >= budget, since sum(v) = budget implies that bound.
    The search starts at y = the first row, mu = that row's largest
    coefficient and every other surplus s_i basic: a feasible basis.

    A program with at most `_PLAIN_LP_SIZE` coefficients (rows times
    attributes) is solved on plain Python lists (`_plain_simplex_min`), a
    larger one by numpy (`_simplex_min`).  Both take the same columns in
    the same order under the same pivot rules.  Measured per program on
    one x86_64 core, plain Python was faster at 2 x 2 (29 against 70 us),
    10 x 5, 30 x 2 and 16 x 4; numpy was faster at 30 x 5 (141 against
    182 us) and 255 x 20 (1.4 against 10.5 ms).
    """
    if len(coef) == 0:
        return math.inf
    if len(coef) * len(lower) <= _PLAIN_LP_SIZE:
        lower, upper = list(map(float, lower)), list(map(float, upper))
        return _plain_simplex_min([list(map(float, row)) for row in coef], lower,
                                  *_room(lower, upper))
    import numpy as np

    room, budget = _room(lower, upper)
    coef = np.asarray(coef, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    room = np.asarray(room)
    m, k = coef.shape
    capped = np.flatnonzero(room < budget)
    # Columns: y, mu = mu+ - mu-, z of the capped attributes, the surpluses s.
    surplus = m + 2 + capped.size
    a = np.zeros((k + 1, surplus + k))
    a[0, :m] = 1.0
    a[1:, :m] = -coef.T
    a[1:, m] = 1.0
    a[1:, m + 1] = -1.0
    a[1 + capped, m + 2 + np.arange(capped.size)] = 1.0
    a[1:, surplus:] = -np.eye(k)
    cost = np.concatenate((coef @ lower, [budget, -budget], room[capped], np.zeros(k)))
    top = int(np.argmax(coef[0]))
    basis = [0, m if coef[0, top] >= 0.0 else m + 1]
    basis += [surplus + i for i in range(k) if i != top]
    return _simplex_min(cost, a, np.eye(k + 1)[0], np.array(basis))


def _plain_simplex_min(coef: list[list[float]], lower: list[float], room: list[float],
                       budget: float) -> float:
    """The dual program of `max_min_margin` on Python lists: the revised
    simplex of `_simplex_min`, with the same columns, starting basis and
    pivot rules.

    The inverse of the starting basis is written down in closed form; its
    rows give y_0 = r_0, mu = sigma (c_0[top] r_0 + r_top) and s_i =
    (c_0[top] - c_0[i]) r_0 + r_top - r_i for a right-hand side r, with
    rows 1..k of r indexed by attribute.  Each pivot updates the inverse by
    one rank-one step.  Pricing reads the dual vector pi = c_B B^-1: the
    reduced cost of row r's column is ``coef[r] . (lower + pi[1:]) -
    pi[0]``, one `score` per row.
    """
    m, k = len(coef), len(lower)
    capped = [i for i in range(k) if room[i] < budget]
    surplus = m + 2 + len(capped)
    cost = [score(row, lower) for row in coef]
    cost += [budget, -budget, *(room[i] for i in capped), *[0.0] * k]

    def column(j: int) -> list[float]:
        if j < m:
            return [1.0, *(-c for c in coef[j])]
        if j < m + 2:
            return [0.0, *[1.0 if j == m else -1.0] * k]
        col = [0.0] * (k + 1)
        if j < surplus:
            col[1 + capped[j - m - 2]] = 1.0
        else:
            col[1 + j - surplus] = -1.0
        return col

    first = coef[0]
    top = first.index(max(first))
    sign = 1.0 if first[top] >= 0.0 else -1.0
    basis = [0, m if sign > 0.0 else m + 1] + [surplus + i for i in range(k) if i != top]
    inverse = [[1.0] + [0.0] * k, [0.0] * (k + 1)]
    inverse[1][0], inverse[1][1 + top] = sign * first[top], sign
    for i in range(k):
        if i != top:
            row = [0.0] * (k + 1)
            row[0], row[1 + top], row[1 + i] = first[top] - first[i], 1.0, -1.0
            inverse.append(row)
    skip = set()
    degenerate = 0
    while True:
        cost_basis = [cost[j] for j in basis]
        x = [max(row[0], 0.0) for row in inverse]  # basic values; below 0 only by round-off
        pi = [score(cost_basis, col) for col in zip(*inverse)]
        dual = pi[1:]
        w = [lo + p for lo, p in zip(lower, dual)]
        total = sum(dual)
        reduced = [score(row, w) - pi[0] for row in coef]
        reduced += [budget - total, total - budget, *(room[i] - dual[i] for i in capped), *dual]
        for j in basis:
            reduced[j] = 0.0
        entering = [j for j, r in enumerate(reduced) if r < -_TOL and j not in skip]
        if not entering:
            return score(cost_basis, x)
        if degenerate < _DEGENERATE_RUN:
            col = min(entering, key=reduced.__getitem__)
        else:
            col = entering[0]
        entering_column = column(col)
        step = [score(row, entering_column) for row in inverse]
        rows = [p for p, d in enumerate(step) if d > _PIVOT_TOL]
        if not rows:
            if reduced[col] < -_PIVOT_TOL:
                raise ValueError("the linear program is unbounded")
            skip.add(col)  # a reduced cost of round-off size
            continue
        ratios = [x[p] / step[p] for p in rows]
        least = min(ratios)
        leaving = min((p for p, r in zip(rows, ratios) if r <= least + _TOL),
                      key=basis.__getitem__)
        pivot = [v / step[leaving] for v in inverse[leaving]]
        inverse = [pivot if p == leaving else [v - d * u for v, u in zip(row, pivot)]
                   for p, (row, d) in enumerate(zip(inverse, step))]
        basis[leaving] = col
        skip.clear()
        degenerate = degenerate + 1 if least <= _TOL else 0


def _simplex_min(cost, a, b, basis) -> float:
    """min ``cost . x`` subject to ``a x = b`` and x >= 0, from the feasible
    `basis` (one column per row) of a bounded program; numpy arrays.

    A revised simplex.  The column with the most negative reduced cost
    enters, the lowest on ties (Dantzig's rule).  After `_DEGENERATE_RUN`
    degenerate steps in a row, steps of length zero, it switches to Bland's
    rule: the lowest column with a negative reduced cost enters.  The first
    non-degenerate step switches back.  Under either rule, of the rows tied
    in the ratio test the one with the lowest basic column leaves.

    It terminates: a non-degenerate step strictly lowers the objective, so
    no basis recurs across one, and there are finitely many bases; a run of
    degenerate steps ends, since Bland's rule cannot cycle.  Every step
    inverts the basis afresh, so round-off does not build up over degenerate
    steps.  The rule is deterministic: the same input takes the same steps.
    """
    import numpy as np

    skip = np.zeros(a.shape[1], dtype=bool)
    degenerate = 0
    while True:
        inverse = np.linalg.inv(a[:, basis])
        x = np.maximum(inverse @ b, 0.0)  # basic values; below 0 only by round-off
        reduced = cost - (cost[basis] @ inverse) @ a
        reduced[basis] = 0.0
        entering = np.flatnonzero(~skip & (reduced < -_TOL))
        if entering.size == 0:
            return float(cost[basis] @ x)
        if degenerate < _DEGENERATE_RUN:
            col = entering[np.argmin(reduced[entering])]
        else:
            col = entering[0]
        step = inverse @ a[:, col]
        rows = np.flatnonzero(step > _PIVOT_TOL)
        if rows.size == 0:
            if reduced[col] < -_PIVOT_TOL:
                raise ValueError("the linear program is unbounded")
            skip[col] = True  # a reduced cost of round-off size
            continue
        ratios = x[rows] / step[rows]
        least = ratios.min()
        ties = rows[ratios <= least + _TOL]
        basis[ties[np.argmin(basis[ties])]] = col
        skip[:] = False
        degenerate = degenerate + 1 if least <= _TOL else 0
