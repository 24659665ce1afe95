"""Hot numeric kernels: simplex grids, batch scoring, winner scans.

Plain numpy, laid out for the admissible-set grid of up to ~100k points:

- `simplex_compositions` builds the integer grid in closed form (stars and
  bars), and `simplex_grid` caches its float weights once per (G, k) as one
  read-only, attribute-major array, so `grid[:, j]` is contiguous.
- `score_grid` accumulates candidate-major, one contiguous row per
  candidate, and returns the (points, candidates) view of that buffer.
- `winner_stats` scans those candidate rows; it copies only when handed a
  row-major (points, candidates) array.

Every result is bitwise what the plain per-point loops in
``tests/test_kernels.py`` compute.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations

import numpy as np


def composition_count(total: int, parts: int) -> int:
    """Number of non-negative integer vectors of length `parts` summing to `total`."""
    return math.comb(total + parts - 1, parts - 1)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Stars and bars: the k-1 bar positions among total+k-1 slots, in
    lexicographic order, give the compositions in lexicographic order."""
    if total < 0 or parts < 1:
        raise ValueError("total must be >= 0 and parts >= 1")
    count = composition_count(total, parts)
    bars = np.fromiter(
        chain.from_iterable(combinations(range(total + parts - 1), parts - 1)),
        dtype=np.int64, count=count * (parts - 1)).reshape(count, parts - 1)
    slots = np.empty((count, parts + 1), dtype=np.int64)
    slots[:, 0] = -1
    slots[:, 1:parts] = bars
    slots[:, parts] = total + parts - 1
    return np.diff(slots, axis=1) - 1


@lru_cache(maxsize=128)
def simplex_compositions(total: int, parts: int) -> np.ndarray:
    """All non-negative integer vectors summing to `total`, lexicographically
    ascending.  The result is cached and marked read-only."""
    out = _compositions(total, parts)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def simplex_grid(total: int, parts: int) -> np.ndarray:
    """`simplex_compositions(total, parts) / total` as float64 weights.

    Cached and read-only; the (n_points, parts) result is a view of one
    attribute-major buffer.  The integer grid is not kept alongside it.
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    comps = _compositions(total, parts)
    weights = np.empty((parts, comps.shape[0]), dtype=np.float64)
    np.divide(comps.T, float(total), out=weights)
    weights.setflags(write=False)
    return weights.T


_BLOCK_POINTS = 8192


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


def winner_stats(scores: np.ndarray, eps: float):
    """Per-candidate winner statistics over a batch of score rows.

    Returns ``(ever_unique, in_winner_set, beats_all, tie_all)``:
    `ever_unique[c]` — c is the sole argmax (others more than `eps` below) at
    some row; `in_winner_set[c]` — c is within `eps` of some row's maximum;
    `beats_all[a, b]` — a exceeds b by more than `eps` in every row;
    `tie_all[a, b]` — a and b are within `eps` in every row.

    Each unordered pair needs one difference d = s_a - s_b, since
    s_b - s_a == -d exactly in round-to-nearest; a NaN in d makes every
    test false, as it does row by row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] < 1:
        raise ValueError("winner_stats requires at least one score row")
    rows = np.ascontiguousarray(scores.T)
    n_c = rows.shape[0]
    top = rows[0].copy()
    for c in range(1, n_c):
        np.maximum(top, rows[c], out=top)
    member = rows >= top - eps
    unique_points = member.sum(axis=0, dtype=np.int32) == 1
    in_winner_set = member.any(axis=1)
    ever_unique = (member & unique_points).any(axis=1)
    beats_all = np.zeros((n_c, n_c), dtype=np.bool_)
    tie_all = np.eye(n_c, dtype=np.bool_)
    diff = np.empty(rows.shape[1])
    for a in range(n_c):
        for b in range(a + 1, n_c):
            np.subtract(rows[a], rows[b], out=diff)
            lo, hi = diff.min(), diff.max()
            beats_all[a, b] = lo > eps
            beats_all[b, a] = -hi > eps
            tie_all[a, b] = tie_all[b, a] = max(hi, -lo) <= eps
    return ever_unique, in_winner_set, beats_all, tie_all
