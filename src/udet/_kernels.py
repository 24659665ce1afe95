"""Kernels over the weight polytope P = {w : sum(w) = 1, lower <= w <= upper}.

- `score_grid` scores every candidate at a batch of weight vectors, each
  score (`score`) accumulated from 0.0 over the attributes in declared
  order.
- `box_simplex_min` gives min over P of ``c . w`` for many coefficient rows,
  in closed form: the greedy fill of a continuous knapsack.
- `max_min_margin` gives max over P of min_r ``c_r . w``, a small linear
  program, solved as its dual by one deterministic revised simplex.

Everything runs on plain Python floats, lists and tuples, except that the
simplex keeps a program of more than `_PLAIN_LP_SIZE` (64) coefficients,
rows times attributes, on numpy arrays, imported on the first such program.
So a desk-size ``udet analyze`` never loads numpy, whose import costs more
than the rest of a cold run.  Nothing here imports scipy.
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

# The most coefficients (rows times attributes) of a margin program kept on
# plain Python lists; larger programs are kept on numpy arrays.
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
    this linear program is solved as its dual (`_simplex_dual`), which has
    one row per attribute plus one, however many rows `coef` has:

        min  y . (coef lower) + budget mu + room . z
        s.t. sum(y) = 1,  mu + z_i - s_i = (coef^T y)_i for every attribute i,
             y >= 0, z >= 0, s >= 0, mu free.

    That is the least, over mixtures y of the rows, of the mixture's
    greatest value over P.  z_i prices the bound v_i <= room_i and is left
    out where room_i >= budget, since sum(v) = budget implies that bound.

    A program with at most `_PLAIN_LP_SIZE` coefficients (rows times
    attributes) keeps its rows and B^-1 on Python lists (`_Lists`), a
    larger one on numpy arrays (`_Arrays`).  On one x86_64 core a 2 x 2
    program took 25 us on lists (30 on arrays), a 255 x 20 one 1.05 ms on
    arrays (9.5 on lists).  Arrays win from about 10 x 5, but lists spare a
    desk-size run numpy's import.
    """
    if len(coef) == 0:
        return math.inf
    lower, upper = list(map(float, lower)), list(map(float, upper))
    if len(coef) * len(lower) > _PLAIN_LP_SIZE:
        return _simplex_dual(_Arrays, coef, lower, *_room(lower, upper))
    coef = [list(map(float, row)) for row in coef]
    return _simplex_dual(_Lists, coef, lower, *_room(lower, upper))


class _Lists:
    """A margin program's rows and basis inverse B^-1 on Python lists, with
    the row prices ``coef[r] . w - pi0``, pi = c_B B^-1, a column's step
    B^-1 a, the rank-one pivot and the basic values, B^-1's first column."""

    def __init__(self, coef: list[list[float]], inverse: list[list[float]]):
        self.coef, self.inverse = coef, inverse

    def prices(self, w: list[float], pi0: float) -> list[float]:
        return [score(row, w) - pi0 for row in self.coef]

    def dual(self, cost_basis: list[float]) -> list[float]:
        return [score(cost_basis, col) for col in zip(*self.inverse)]

    def step(self, column: list[float]) -> list[float]:
        return [score(row, column) for row in self.inverse]

    def pivot(self, leaving: int, step: list[float]) -> None:
        pivot = [v / step[leaving] for v in self.inverse[leaving]]
        self.inverse = [pivot if p == leaving else [v - d * u for v, u in zip(row, pivot)]
                        for p, (row, d) in enumerate(zip(self.inverse, step))]

    def values(self) -> list[float]:
        return [row[0] for row in self.inverse]


class _Arrays:
    """`_Lists` on numpy arrays; each operation returns a list."""

    def __init__(self, coef: Sequence[Sequence[float]], inverse: list[list[float]]):
        import numpy as np
        self.coef, self.inverse = np.array(coef, dtype=np.float64), np.array(inverse)

    def prices(self, w: list[float], pi0: float) -> list[float]:
        return (self.coef @ w - pi0).tolist()

    def dual(self, cost_basis: list[float]) -> list[float]:
        return (cost_basis @ self.inverse).tolist()

    def step(self, column: list[float]) -> list[float]:
        return (self.inverse @ column).tolist()

    def pivot(self, leaving: int, step: list[float]) -> None:
        import numpy as np
        pivot = self.inverse[leaving] / step[leaving]
        self.inverse -= np.multiply.outer(step, pivot)
        self.inverse[leaving] = pivot

    def values(self) -> list[float]:
        return self.inverse[:, 0].tolist()


def _simplex_dual(storage: type[_Lists] | type[_Arrays], coef: Sequence[Sequence[float]],
                  lower: list[float], room: list[float], budget: float) -> float:
    """The dual program of `max_min_margin` by a revised simplex on `storage`.

    Columns: y, mu = mu+ - mu-, z of the capped attributes, surpluses s.
    The start, y = the first row, mu = its largest coefficient and every
    other s_i basic, is feasible; on a right-hand side r, with rows 1..k
    indexed by attribute, its inverse gives y_0 = r_0, mu = sigma (c_0[top]
    r_0 + r_top) and s_i = (c_0[top] - c_0[i]) r_0 + r_top - r_i.  The most
    negative reduced cost enters, the lowest column on ties; after
    `_DEGENERATE_RUN` steps of length zero in a row, the lowest negative one
    (Bland's rule), until a step of positive length.  Of the rows tied in
    the ratio test, the lowest basic column leaves.  A column whose step no
    row bounds is skipped until the next pivot if its reduced cost is
    round-off, else the program is unbounded.  So it terminates, and the
    same input always takes the same steps.
    """
    m, k = len(coef), len(lower)
    capped = [i for i in range(k) if room[i] < budget]
    surplus = m + 2 + len(capped)

    def column(j: int) -> list[float]:
        if j < m:
            return [1.0] + [-c for c in coef[j]]
        if j < m + 2:
            return [0.0, *[1.0 if j == m else -1.0] * k]
        i, unit = (capped[j - m - 2], 1.0) if j < surplus else (j - surplus, -1.0)
        return [unit if p == 1 + i else 0.0 for p in range(k + 1)]

    first = list(map(float, coef[0]))
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
    store = storage(coef, inverse)
    cost = store.prices(lower, 0.0)
    cost += [budget, -budget, *(room[i] for i in capped), *[0.0] * k]
    skip, degenerate = set(), 0
    while True:
        cost_basis = [cost[j] for j in basis]
        x = [0.0 if v < 0.0 else v for v in store.values()]  # below 0 only by round-off
        pi = store.dual(cost_basis)
        dual = pi[1:]
        w = [lo + p for lo, p in zip(lower, dual)]
        total = sum(dual)
        reduced = store.prices(w, pi[0])  # row r: coef[r] . (lower + pi[1:]) - pi[0]
        reduced += [budget - total, total - budget, *(room[i] - dual[i] for i in capped), *dual]
        for j in (*basis, *skip):
            reduced[j] = 0.0
        best = min(reduced)
        if best >= -_TOL:
            return score(cost_basis, x)
        col = (reduced.index(best) if degenerate < _DEGENERATE_RUN  # else Bland's rule
               else next(j for j, r in enumerate(reduced) if r < -_TOL))
        step = store.step(column(col))
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
        store.pivot(leaving, step)
        basis[leaving] = col
        skip.clear()
        degenerate = degenerate + 1 if least <= _TOL else 0
