"""The numeric kernels, and the dense-grid oracle in `helpers` that tests
compare the exact semantics with."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from helpers import (
    brute_winner_stats,
    composition_count,
    dense_subdivisions,
    grid_scores,
    grid_winner_stats,
    numpy_box_simplex_min,
    simplex_compositions,
    simplex_grid,
)

from udet import _kernels as K


def brute_compositions(total: int, parts: int) -> np.ndarray:
    rows = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
    return np.array(sorted(rows), dtype=np.int64)


@pytest.mark.parametrize("total,parts", [(0, 1), (5, 1), (0, 3), (1, 2), (10, 2),
                                         (10, 3), (7, 4), (4, 5)])
def test_compositions_match_bruteforce_and_backends(total, parts):
    expected = brute_compositions(total, parts)
    assert composition_count(total, parts) == expected.shape[0]
    got = simplex_compositions(total, parts)
    assert np.array_equal(got, expected)
    assert got.dtype == np.int64


def test_compositions_cached_and_readonly():
    arr = simplex_compositions(6, 3)
    assert arr is simplex_compositions(6, 3)
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
        # for the program's tuples and the oracle's row- and attribute-major arrays
        got = K.score_grid(tuple(map(tuple, weights.tolist())),
                           tuple(map(tuple, matrix.tolist())))
        assert len(got) == n_pts and {len(row) for row in got} == {n_c}
        assert np.array(got).tobytes() == expected.tobytes()
        for layout in (weights, np.asfortranarray(weights)):
            got = grid_scores(layout, matrix)
            assert got.shape == (n_pts, n_c)
            assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


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
        got = grid_winner_stats(scores, eps)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


def test_winner_stats_rejects_empty():
    with pytest.raises(ValueError):
        grid_winner_stats(np.empty((0, 3)), 1e-9)


def test_winner_stats_same_for_row_and_column_major_input():
    rng = np.random.default_rng(5)
    weights = simplex_grid(12, 4)
    matrix = np.round(rng.random((6, 4)) * 4) / 4  # dyadic: exact ties occur
    view = grid_scores(weights, matrix)  # the candidate-major view itself
    assert not view.flags.c_contiguous
    expected = brute_winner_stats(np.ascontiguousarray(view), 1e-9)
    for scores in (view, np.ascontiguousarray(view), np.asfortranarray(view)):
        got = grid_winner_stats(scores, 1e-9)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


def test_winner_stats_grid_sized_with_ties_and_near_ties():
    eps = 1e-9
    rng = np.random.default_rng(13)
    weights = simplex_compositions(30, 3) / 30
    scores = np.array(grid_scores(weights, rng.random((6, 3))))
    scores[:, 1] = scores[:, 0]  # exact tie everywhere
    scores[:, 2] = scores[:, 0] + eps / 2  # near-tie everywhere, beats nothing
    scores[:, 3] = scores[:, 0] + 2 * eps  # beats 0, 1, 2 everywhere
    scores[::7, 4] = scores[::7, 3]  # exact ties at some points only
    scores[5::11, 5] = scores[5::11, 4] - eps / 4  # near-ties at some points
    expected = brute_winner_stats(scores, eps)
    assert expected[3][0, 1] and expected[3][0, 2] and expected[2][3, 0]
    got = grid_winner_stats(scores, eps)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("parts", [3, 4, 5, 6])
def test_default_grids_are_complete_and_lexicographic(parts):
    total = dense_subdivisions(parts)
    comps = simplex_compositions(total, parts)
    assert comps.shape == (composition_count(total, parts), parts)
    assert np.all(comps >= 0) and np.all(comps.sum(axis=1) == total)
    step = np.diff(comps, axis=0)
    first = (step != 0).argmax(axis=1)
    assert np.all(step[np.arange(step.shape[0]), first] > 0)  # strictly ascending


def test_simplex_grid_cached_readonly_and_equal_to_compositions():
    grid = simplex_grid(9, 4)
    assert grid is simplex_grid(9, 4)
    expected = simplex_compositions(9, 4).astype(np.float64) / 9.0
    assert grid.shape == expected.shape
    assert np.ascontiguousarray(grid).tobytes() == expected.tobytes()
    assert grid[:, 0].flags.c_contiguous  # attribute-major
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0
    with pytest.raises(ValueError):
        simplex_grid(0, 3)


def box_simplex_vertices(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Every vertex of {w : sum(w) = 1, lower <= w <= upper}: all coordinates
    but one at a bound, the free one taking up the rest of the sum."""
    k = len(lower)
    points = []
    for free in range(k):
        others = [j for j in range(k) if j != free]
        for picks in product((0, 1), repeat=k - 1):
            w = np.empty(k)
            for j, pick in zip(others, picks):
                w[j] = upper[j] if pick else lower[j]
            w[free] = 1.0 - w[others].sum()
            if lower[free] - 1e-12 <= w[free] <= upper[free] + 1e-12:
                points.append(w)
    return np.array(points)


def random_box_simplex(rng, k: int):
    """Bounds of a nonempty box-simplex: dyadic or arbitrary, sometimes a point."""
    lower, upper = np.zeros(k), np.ones(k)
    for j in range(k):
        if rng.random() < 0.4:
            lower[j] = rng.integers(0, 5) / 10 if rng.random() < 0.5 else rng.random() * 0.4
        if rng.random() < 0.4:
            upper[j] = max(lower[j], rng.integers(0, 11) / 10 if rng.random() < 0.5
                           else rng.random())
    if rng.random() < 0.1:
        lower = upper = rng.dirichlet(np.ones(k))
    return lower, upper


def random_box_simplex_lps(seed: int, count: int):
    rng = np.random.default_rng(seed)
    while count:
        kind = rng.integers(0, 3)
        k = int(rng.integers(1, 9 if kind == 2 else 7))
        m = int(rng.integers(1, 81 if kind == 2 else 9))
        lower, upper = random_box_simplex(rng, k)
        if lower.sum() > 1.0 or upper.sum() < 1.0:
            continue
        if kind == 0:
            coef = rng.random((m, k)) - rng.random((m, k))
        elif kind == 1:  # small integers: exact ties and degenerate vertices
            coef = (rng.integers(0, 4, (m, k)) - rng.integers(0, 4, (m, k))) / 3.0
        else:  # one candidate against many rivals on a coarse scale, as in
            # instances with hundreds of candidates: highly degenerate
            values = rng.integers(0, 5, (m + 1, k)) / 4.0
            coef = values[0] - values[1:]
        count -= 1
        yield coef, lower, upper


def test_box_simplex_min_is_the_least_vertex_value():
    for coef, lower, upper in random_box_simplex_lps(3, 300):
        vertices = box_simplex_vertices(lower, upper)
        expected = (coef @ vertices.T).min(axis=1)
        got = K.box_simplex_min(coef.tolist(), tuple(lower.tolist()), tuple(upper.tolist()))
        assert isinstance(got, list) and len(got) == len(expected)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
        assert np.allclose(numpy_box_simplex_min(coef, lower, upper), expected,
                           rtol=0.0, atol=1e-12)


def test_box_simplex_min_at_a_point_is_the_dot_product():
    rng = np.random.default_rng(19)
    coef = (rng.random((5, 4)) - 0.5).tolist()
    w = tuple(rng.dirichlet(np.ones(4)).tolist())
    assert K.box_simplex_min(coef, w, w) == [K.score(row, w) for row in coef]
    assert K.box_simplex_min(coef, w, w) == (np.array(coef) @ np.array(w)).tolist()


def highs_max_min_margin(optimize, coef, lower, upper) -> float:
    """max over P of min_r ``coef[r] . w`` by HiGHS: with variables (t, w),
    minimize -t subject to t - coef w <= 0 and sum(w) = 1."""
    m, k = coef.shape
    res = optimize.linprog(
        np.r_[-1.0, np.zeros(k)], A_ub=np.hstack([np.ones((m, 1)), -coef]),
        b_ub=np.zeros(m), A_eq=np.r_[0.0, np.ones(k)][None, :], b_eq=[1.0],
        bounds=[(None, None)] + list(zip(lower, upper)), method="highs")
    assert res.status == 0
    return -res.fun


# `_PLAIN_LP_SIZE` values that store every margin program on numpy
# arrays, and every one on Python lists.
LP_PATHS = {"numpy": 0, "plain": math.inf}


def lp_paths(monkeypatch):
    """Yield each path's name, with `max_min_margin` set to take that path."""
    for name, size in LP_PATHS.items():
        monkeypatch.setattr(K, "_PLAIN_LP_SIZE", size)
        yield name


def test_max_min_margin_matches_highs(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    for coef, lower, upper in random_box_simplex_lps(5, 600):
        expected = highs_max_min_margin(optimize, coef, lower, upper)
        for path in lp_paths(monkeypatch):
            got = K.max_min_margin(coef, lower, upper)
            assert abs(got - expected) <= 1e-12, (path, coef, lower, upper)


@pytest.mark.parametrize("degenerate_run", [K._DEGENERATE_RUN, 0])
def test_max_min_margin_matches_highs_at_256_candidates(monkeypatch, degenerate_run):
    # One candidate against 255 rivals on 20 attributes of two levels: many
    # rows tie at every vertex, so runs of degenerate steps hand pricing to
    # Bland's rule.  A run of 0 prices by Bland's rule alone.
    optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(K, "_DEGENERATE_RUN", degenerate_run)
    rng = np.random.default_rng(2)
    values = rng.integers(0, 2, (256, 20)).astype(np.float64)
    boxes = ((np.zeros(20), np.ones(20)),
             (np.r_[0.3, np.zeros(19)], np.r_[np.ones(10), np.full(10, 0.05)]))
    for lower, upper in boxes:
        for a in range(8):
            coef = values[a] - np.delete(values, a, axis=0)
            expected = highs_max_min_margin(optimize, coef, lower, upper)
            for path in lp_paths(monkeypatch):
                got = K.max_min_margin(coef, lower, upper)
                assert abs(got - expected) <= 1e-12, (path, a)


def test_max_min_margin_lies_between_the_pairwise_bounds(monkeypatch):
    # without scipy: the margin is at least every vertex's worst row and at
    # most every row's best value, and repeats exactly
    for coef, lower, upper in random_box_simplex_lps(7, 200):
        vertices = box_simplex_vertices(lower, upper)
        least = (coef @ vertices.T).min(axis=0).max() - 1e-12
        most = -max(K.box_simplex_min((-coef).tolist(), tuple(lower.tolist()),
                                      tuple(upper.tolist()))) + 1e-12
        for path in lp_paths(monkeypatch):
            got = K.max_min_margin(coef, lower, upper)
            assert least <= got <= most, path
            assert got == K.max_min_margin(coef, lower, upper), path


def test_max_min_margin_without_rows_is_unbounded(monkeypatch):
    for path in lp_paths(monkeypatch):
        assert K.max_min_margin(np.empty((0, 3)), np.zeros(3), np.ones(3)) == np.inf, path


def test_simplex_skips_a_reduced_cost_of_round_off_size():
    # One zero row on two attributes, with a budget below 0: the surplus of
    # the top attribute prices at `budget` and no row bounds its step.  At
    # -5e-10, above -_PIVOT_TOL, its reduced cost is round-off, so it is
    # skipped and the start is optimal; at -5e-9 the program is unbounded.
    program = ([[0.0, 0.0]], [0.0, 0.0], [1.0, 1.0])
    for storage in (K._Lists, K._Arrays):
        assert K._simplex_dual(storage, *program, -5e-10) == 0.0, storage
        with pytest.raises(ValueError, match="the linear program is unbounded"):
            K._simplex_dual(storage, *program, -5e-9)


def test_the_two_lp_paths_agree_and_repeat(monkeypatch):
    # Both storages run the same simplex, so they agree to round-off, and
    # each gives the same value for arrays and for the lists `semantics`
    # passes.  The degenerate 80-row programs exercise Bland's rule.
    for coef, lower, upper in random_box_simplex_lps(11, 600):
        got = {}
        for path in lp_paths(monkeypatch):
            got[path] = K.max_min_margin(coef, lower, upper)
            assert K.max_min_margin(coef, lower, upper) == got[path], path
            assert K.max_min_margin(coef.tolist(), tuple(lower.tolist()),
                                    tuple(upper.tolist())) == got[path], path
        assert abs(got["numpy"] - got["plain"]) <= 1e-12, (coef, lower, upper)


def test_the_size_rule_picks_the_path(monkeypatch):
    # Programs of at most `_PLAIN_LP_SIZE` coefficients never reach the
    # numpy storage, larger ones never reach the list storage, such as one
    # candidate against 255 rivals on 20 attributes.
    def refuse(*args):
        raise AssertionError("wrong path")

    rng = np.random.default_rng(23)
    size = K._PLAIN_LP_SIZE
    for rows, attributes, storage in ((1, 2, "_Arrays"), (size // 4, 4, "_Arrays"),
                                      (size // 4 + 1, 4, "_Lists"), (255, 20, "_Lists")):
        coef = rng.random((rows, attributes)) - 0.5
        lower, upper = np.zeros(attributes), np.ones(attributes)
        expected = K.max_min_margin(coef, lower, upper)
        with monkeypatch.context() as patch:
            patch.setattr(K, storage, refuse)
            assert K.max_min_margin(coef, lower, upper) == expected
