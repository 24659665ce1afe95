"""Numeric kernels over the weight polytope P = {w : sum(w) = 1, lower <= w <= upper}.

- `score_grid` scores every candidate at a batch of weight vectors,
  accumulating candidate-major, one contiguous row per candidate.
- `box_simplex_min` gives min over P of ``c . w`` for many coefficient rows
  at once, in closed form: the greedy fill of a continuous knapsack.
- `max_min_margin` gives max over P of min_r ``c_r . w``, a small linear
  program, solved as its dual by a revised simplex that prices by the most
  negative reduced cost and falls back to Bland's rule on a run of
  degenerate steps, so the same input always takes the same steps.

Plain numpy.  Nothing here imports scipy, whose import alone costs more
than a whole cold ``udet analyze`` run.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK_POINTS = 8192

# Simplex tolerances: the least pivot element, and the reduced-cost and
# ratio-tie tolerance.  The program's entries are O(1).
_PIVOT_TOL = 1e-9
_TOL = 1e-12

# Degenerate simplex steps in a row after which pricing turns to Bland's rule.
_DEGENERATE_RUN = 5


def score_grid(weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Weighted scores for every (weight vector, candidate) pair.

    `weights` is (n_points, k) on the simplex, `matrix` is the (n_candidates,
    k) normalized score matrix; the result is (n_points, n_candidates), a
    view of a candidate-major buffer.  Each entry is accumulated from 0.0
    over attributes in declared order.
    """
    weights = np.asarray(weights, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    n_pts, k = weights.shape
    scores = np.zeros((matrix.shape[0], n_pts))
    # The products go through a cache-sized buffer, one block of points at a time.
    term = np.empty((matrix.shape[0], min(n_pts, _BLOCK_POINTS)))
    for start in range(0, n_pts, _BLOCK_POINTS):
        block = scores[:, start : start + _BLOCK_POINTS]
        products = term[:, : block.shape[1]]
        for j in range(k):
            np.multiply(matrix[:, j : j + 1], weights[start : start + _BLOCK_POINTS, j],
                        out=products)
            block += products
    return scores.T


def box_simplex_min(coef: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """min over P of ``coef[r] . w`` for every row r of the (m, k) `coef`.

    Start at `lower`, then spend the budget 1 - sum(lower) on the cheapest
    coefficients first, each up to its room upper - lower.  A budget below
    0 or above the total room (P a point, within tolerance) spends nothing
    or everything.
    """
    coef = np.asarray(coef, dtype=np.float64)
    order = np.argsort(coef, axis=1, kind="stable")
    room = (upper - lower)[order]
    spent = np.zeros_like(room)
    np.cumsum(room[:, :-1], axis=1, out=spent[:, 1:])
    fill = np.clip((1.0 - lower.sum()) - spent, 0.0, room)
    ranked = np.take_along_axis(coef, order, axis=1)
    return coef @ lower + np.einsum("rj,rj->r", ranked, fill)


def max_min_margin(coef: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
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
    """
    coef = np.asarray(coef, dtype=np.float64)
    m, k = coef.shape
    if m == 0:
        return math.inf
    room = upper - lower
    budget = min(max(1.0 - float(lower.sum()), 0.0), float(room.sum()))
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


def _simplex_min(cost: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray) -> float:
    """min ``cost . x`` subject to ``a x = b`` and x >= 0, from the feasible
    `basis` (one column per row) of a bounded program.

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
