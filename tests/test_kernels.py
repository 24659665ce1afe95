from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from udet import _kernels as K


def brute_compositions(total: int, parts: int) -> np.ndarray:
    rows = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
    return np.array(sorted(rows), dtype=np.int64)


@pytest.mark.parametrize("total,parts", [(0, 1), (5, 1), (0, 3), (1, 2), (10, 2),
                                         (10, 3), (7, 4), (4, 5)])
def test_compositions_match_bruteforce_and_backends(total, parts):
    expected = brute_compositions(total, parts)
    assert K.composition_count(total, parts) == expected.shape[0]
    got = K.simplex_compositions(total, parts)
    assert np.array_equal(got, expected)
    assert got.dtype == np.int64


def test_compositions_cached_and_readonly():
    arr = K.simplex_compositions(6, 3)
    assert arr is K.simplex_compositions(6, 3)
    with pytest.raises(ValueError):
        arr[0, 0] = 99


def plain_score_grid(weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Scores accumulated over attributes in declared order, one entry at a time."""
    n_pts, k = weights.shape
    n_c = matrix.shape[0]
    out = np.zeros((n_pts, n_c))
    for p in range(n_pts):
        for c in range(n_c):
            acc = 0.0
            for j in range(k):
                acc += weights[p, j] * matrix[c, j]
            out[p, c] = acc
    return out


def test_score_grid_backends_bitwise_identical():
    rng = np.random.default_rng(7)
    for n_pts, n_c, k in [(1, 2, 1), (17, 3, 2), (200, 5, 4), (50, 2, 7)]:
        weights = rng.random((n_pts, k))
        weights /= weights.sum(axis=1, keepdims=True)
        matrix = rng.random((n_c, k))
        matrix[-1] = -0.0  # sums start from 0.0, so these score +0.0
        expected = plain_score_grid(weights, matrix)
        # every entry, bitwise: the declared-order accumulation is the contract,
        # for row-major and attribute-major weights alike
        for layout in (weights, np.asfortranarray(weights)):
            got = K.score_grid(layout, matrix)
            assert got.shape == (n_pts, n_c)
            assert got.tobytes() == expected.tobytes()


def brute_winner_stats(scores: np.ndarray, eps: float):
    n_pts, n_c = scores.shape
    ever_unique = np.zeros(n_c, dtype=bool)
    in_winner = np.zeros(n_c, dtype=bool)
    beats_all = np.ones((n_c, n_c), dtype=bool)
    tie_all = np.ones((n_c, n_c), dtype=bool)
    np.fill_diagonal(beats_all, False)
    for p in range(n_pts):
        row = scores[p]
        members = [c for c in range(n_c) if row[c] >= row.max() - eps]
        for c in members:
            in_winner[c] = True
        if len(members) == 1:
            ever_unique[members[0]] = True
        for a in range(n_c):
            for b in range(n_c):
                if a == b:
                    continue
                if not (row[a] - row[b] > eps):
                    beats_all[a, b] = False
                if not (abs(row[a] - row[b]) <= eps):
                    tie_all[a, b] = False
    return ever_unique, in_winner, beats_all, tie_all


def test_winner_stats_backends_and_bruteforce():
    rng = np.random.default_rng(11)
    eps = 1e-9
    cases = []
    for n_pts, n_c in [(1, 2), (40, 3), (150, 5)]:
        scores = rng.random((n_pts, n_c))
        # inject exact ties and near-ties to exercise the epsilon window
        scores[0, :] = 0.5
        if n_pts > 2:
            scores[1, 0] = scores[1, 1] + eps / 2
            scores[2, 0] = scores[2, 1] + eps * 2
        cases.append((scores, eps))
    # The all-0.5 rows above leave beats_all all False.  Dyadic scores give gaps
    # of exactly eps: candidate 0 beats 2, but only ties 3 and does not beat 1.
    dyadic = np.array([[0.75, 0.5, 0.0, 0.5],
                       [1.0, 0.5, 0.25, 0.75],
                       [0.5, 0.25, 0.0, 0.25]])
    _, _, beats, ties = brute_winner_stats(dyadic, 0.25)
    assert beats[0, 2] and not beats[0, 1] and ties[0, 3]
    cases.append((dyadic, 0.25))
    for scores, eps in cases:
        expected = brute_winner_stats(scores, eps)
        got = K.winner_stats(scores, eps)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


def test_winner_stats_rejects_empty():
    with pytest.raises(ValueError):
        K.winner_stats(np.empty((0, 3)), 1e-9)


def test_winner_stats_same_for_row_and_column_major_input():
    rng = np.random.default_rng(5)
    weights = K.simplex_grid(12, 4)
    matrix = np.round(rng.random((6, 4)) * 4) / 4  # dyadic: exact ties occur
    view = K.score_grid(weights, matrix)  # the candidate-major view itself
    assert not view.flags.c_contiguous
    expected = brute_winner_stats(np.ascontiguousarray(view), 1e-9)
    for scores in (view, np.ascontiguousarray(view), np.asfortranarray(view)):
        got = K.winner_stats(scores, 1e-9)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


def test_winner_stats_grid_sized_with_ties_and_near_ties():
    eps = 1e-9
    rng = np.random.default_rng(13)
    weights = K.simplex_compositions(30, 3) / 30
    scores = np.array(K.score_grid(weights, rng.random((6, 3))))
    scores[:, 1] = scores[:, 0]  # exact tie everywhere
    scores[:, 2] = scores[:, 0] + eps / 2  # near-tie everywhere, beats nothing
    scores[:, 3] = scores[:, 0] + 2 * eps  # beats 0, 1, 2 everywhere
    scores[::7, 4] = scores[::7, 3]  # exact ties at some points only
    scores[5::11, 5] = scores[5::11, 4] - eps / 4  # near-ties at some points
    expected = brute_winner_stats(scores, eps)
    assert expected[3][0, 1] and expected[3][0, 2] and expected[2][3, 0]
    got = K.winner_stats(scores, eps)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("parts", [3, 4, 5, 6])
def test_default_grids_are_complete_and_lexicographic(parts):
    from udet.semantics import default_grid_subdivisions
    total = default_grid_subdivisions(parts)
    comps = K.simplex_compositions(total, parts)
    assert comps.shape == (K.composition_count(total, parts), parts)
    assert np.all(comps >= 0) and np.all(comps.sum(axis=1) == total)
    step = np.diff(comps, axis=0)
    first = (step != 0).argmax(axis=1)
    assert np.all(step[np.arange(step.shape[0]), first] > 0)  # strictly ascending


def test_simplex_grid_cached_readonly_and_equal_to_compositions():
    grid = K.simplex_grid(9, 4)
    assert grid is K.simplex_grid(9, 4)
    expected = K.simplex_compositions(9, 4).astype(np.float64) / 9.0
    assert grid.shape == expected.shape
    assert np.ascontiguousarray(grid).tobytes() == expected.tobytes()
    assert grid[:, 0].flags.c_contiguous  # attribute-major
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0
    with pytest.raises(ValueError):
        K.simplex_grid(0, 3)
