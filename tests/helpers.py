"""Shared builders for the test suite."""

from __future__ import annotations

import dataclasses
import json
import math
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from udet import cli
from udet._kernels import score_grid
from udet.dsl import SourceDocument, parse_instance
from udet.model import (
    HIGHER_BETTER,
    LOWER_BETTER,
    NUMERIC,
    ORDINAL,
    AttributeSchema,
    CriterionSpec,
    Fact,
    Instance,
    OrdinalScale,
)
from udet.semantics import (
    EPS_SCORE,
    AdmissibleSet,
    ScoreMatrix,
    SemanticsResult,
    WinnerStats,
    _closure_matrix,
    admissible_set,
    compatible_answers,
    analyze,
    normalize,
)
from udet.policy import decide
from udet.responses import ResponseEvaluator
from udet.trilemma import PAIRWISE_FORMS, check_trilemma, enumerate_responses, evaluate_space

NEED_SCALE = OrdinalScale("need_scale", ("low", "moderate", "severe"))


def build_scholarship(**overrides) -> Instance:
    """Hand-built twin of the bundled scholarship instance."""
    fields = dict(
        id="scholarship",
        question="Who should receive the scholarship?",
        candidates=("A", "B"),
        scales=(NEED_SCALE,),
        attributes=(
            AttributeSchema("gpa", NUMERIC, HIGHER_BETTER),
            AttributeSchema("need", ORDINAL, HIGHER_BETTER, "need_scale"),
        ),
        facts=(
            Fact("A", "gpa", 9.5),
            Fact("A", "need", "moderate"),
            Fact("B", "gpa", 8.7),
            Fact("B", "need", "severe"),
        ),
        criteria=(
            CriterionSpec("merit_first", (("gpa", 1.0), ("need", 0.0))),
            CriterionSpec("need_first", (("gpa", 0.0), ("need", 1.0))),
        ),
    )
    fields.update(overrides)
    return Instance(**fields)


def build_two_numeric(id: str, values: dict[str, tuple[float, float]],
                      **overrides) -> Instance:
    """Two numeric higher-better attributes x/y; `values[cand] = (x, y)`."""
    fields = dict(
        id=id,
        question="Which candidate should be selected?",
        candidates=tuple(values),
        attributes=(
            AttributeSchema("x", NUMERIC, HIGHER_BETTER),
            AttributeSchema("y", NUMERIC, HIGHER_BETTER),
        ),
        facts=tuple(
            Fact(cand, attr, value)
            for cand, pair in values.items()
            for attr, value in zip(("x", "y"), pair)
        ),
    )
    fields.update(overrides)
    return Instance(**fields)


# --- dense-grid oracle --------------------------------------------------------
#
# A reference for the exact semantics, not used by the program: winner facts
# sampled on the simplex grid {c / G : c a composition of G into k parts},
# restricted to the admissible polytope.  It can miss what happens between
# grid points, so tests compare it with the exact result by inclusion.

MAX_GRID_POINTS = 100_000


def composition_count(total: int, parts: int) -> int:
    """Number of non-negative integer vectors of length `parts` summing to `total`."""
    return math.comb(total + parts - 1, parts - 1)


@lru_cache(maxsize=32)
def simplex_compositions(total: int, parts: int) -> np.ndarray:
    """All non-negative integer vectors summing to `total`, lexicographically
    ascending, cached and read-only.  Stars and bars: the k-1 bar positions
    among total+k-1 slots, in lexicographic order, give the compositions in
    lexicographic order."""
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
    out = np.diff(slots, axis=1) - 1
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def simplex_grid(total: int, parts: int) -> np.ndarray:
    """`simplex_compositions(total, parts) / total` as float64 weights, cached
    and read-only; the (n_points, parts) result is a view of one
    attribute-major buffer."""
    if total < 1:
        raise ValueError("total must be >= 1")
    comps = simplex_compositions(total, parts)
    weights = np.empty((parts, comps.shape[0]), dtype=np.float64)
    np.divide(comps.T, float(total), out=weights)
    weights.setflags(write=False)
    return weights.T


def dense_subdivisions(parts: int) -> int:
    """Largest G whose simplex grid stays within MAX_GRID_POINTS points."""
    if parts < 1:
        raise ValueError("need at least one attribute")
    if parts == 1:
        return 1
    g = 1
    while composition_count(g + 1, parts) <= MAX_GRID_POINTS:
        g += 1
    return g


def grid_winner_stats(scores: np.ndarray, eps: float):
    """``(ever_unique, in_winner_set, beats_all, tie_all)`` over the rows of
    the (points, candidates) `scores`, vectorized; `brute_winner_stats` is
    the same loop by loop.  A NaN difference makes every test false."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] < 1:
        raise ValueError("winner statistics need at least one score row")
    rows = np.ascontiguousarray(scores.T)
    n_c = rows.shape[0]
    top = rows.max(axis=0)
    member = rows >= top - eps
    unique_points = member.sum(axis=0, dtype=np.int32) == 1
    in_winner_set = member.any(axis=1)
    ever_unique = (member & unique_points).any(axis=1)
    beats_all = np.zeros((n_c, n_c), dtype=np.bool_)
    tie_all = np.eye(n_c, dtype=np.bool_)
    for a in range(n_c):
        for b in range(a + 1, n_c):
            diff = rows[a] - rows[b]
            lo, hi = diff.min(), diff.max()
            beats_all[a, b] = lo > eps
            beats_all[b, a] = -hi > eps
            tie_all[a, b] = tie_all[b, a] = max(hi, -lo) <= eps
    return ever_unique, in_winner_set, beats_all, tie_all


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


def admissible_grid(adm: AdmissibleSet, total: int) -> np.ndarray:
    """The points of the G = `total` simplex grid that lie in `adm`'s polytope."""
    grid = simplex_grid(total, len(adm.attributes))
    inside = np.all((grid >= adm.lower) & (grid <= adm.upper), axis=1)
    return grid[inside]


def grid_statistics(matrix: ScoreMatrix, adm: AdmissibleSet, total: int) -> WinnerStats:
    """Winner facts on the grid points inside the polytope; ValueError when
    no grid point lies inside it."""
    scores = score_grid(admissible_grid(adm, total), matrix.values)
    return WinnerStats(matrix.candidates, *grid_winner_stats(scores, EPS_SCORE))


def grid_semantics(instance: Instance, total: int) -> SemanticsResult:
    """Compatible answers as the grid oracle sees them."""
    matrix = normalize(instance)
    stats = grid_statistics(matrix, admissible_set(instance), total)
    return compatible_answers(instance, stats, _closure_matrix(instance, stats))


# --- JSON oracle for `udet analyze --format json` ------------------------------
#
# The CLI writes the verdict rows from templates; this builds the whole
# document as dicts and renders it with one `json.dumps(doc, indent=2)`.  The
# rows' verdicts come from `ResponseEvaluator.evaluate`, one per response.


def analyze_json_oracle(path: str, require_decision: bool = False,
                        timestamps: bool = False) -> str:
    """What `udet analyze PATH --format json` must print."""
    text = open(path, encoding="utf-8", errors="replace").read()
    instance = parse_instance(SourceDocument(text, path))
    if require_decision:
        instance = dataclasses.replace(instance, decisiveness_required=True)
    analysis = analyze(instance)
    decision = decide(analysis)
    evaluator = ResponseEvaluator(analysis)
    doc = {
        "schema_version": cli.JSON_SCHEMA_VERSION,
        "parameters": cli._parameters(timestamps),
        "instance": cli._instance_json(instance),
        "semantics": cli._semantics_json(analysis.semantics),
        "verdicts": [
            {"response": cli.response_to_json(r),
             "verdict": dataclasses.asdict(evaluator.evaluate(r))}
            for r in enumerate_responses(analysis)
        ],
        "policy": {
            "branch": decision.branch,
            "response": cli.response_to_json(decision.response),
            "rationale": decision.rationale,
        },
        "trilemma": cli._trilemma_json(check_trilemma(analysis)),
    }
    return json.dumps(doc, indent=2) + "\n"


# --- trilemma oracle ------------------------------------------------------------
#
# `check_trilemma` counts its report in closed form; this derives the same
# report from the enumerated rows, each verdict from `evaluate`, and the
# three trilemma predicates tested on every row.

PAIRWISE_PREDICATES = (
    (lambda v: v.c_strong and v.nb_strict, lambda v: not v.u_decisive),
    (lambda v: v.nb_strict and v.u_decisive, lambda v: not v.c_strong),
    (lambda v: v.c_strong and v.u_decisive, lambda v: not v.nb_strict),
)


def trilemma_oracle(rows, underdetermined: bool):
    """(counterexamples, [(name, witness count, violations)], conflict-free
    witness) of `rows`, the (response, verdict) pairs of a whole space."""
    def select(test):
        return tuple(r for r, v in rows if test(v))

    def conflict_free(v):
        return v.c_strong and v.nb_strict and v.u_decisive

    pairwise = [(name, len(select(antecedent)),
                 select(lambda v: antecedent(v) and not consequent(v)) if underdetermined else ())
                for name, (antecedent, consequent) in zip(PAIRWISE_FORMS, PAIRWISE_PREDICATES)]
    if underdetermined:
        return select(conflict_free), pairwise, None
    return (), pairwise, next(iter(select(conflict_free)), None)


def assert_report_is_the_evaluated_space(analysis):
    """`evaluate_space` lists the enumerated space with the verdict that
    `ResponseEvaluator.evaluate` gives each row, and every field of
    `check_trilemma` is what the oracle derives from those rows.  Returns
    the report, the responses and the verdicts."""
    evaluator = ResponseEvaluator(analysis)
    rows = [(r, evaluator.evaluate(r)) for r in enumerate_responses(analysis)]
    responses, verdicts = evaluate_space(analysis)
    assert list(zip(responses, verdicts)) == rows
    report = check_trilemma(analysis)
    counterexamples, pairwise, witness = trilemma_oracle(
        rows, analysis.semantics.underdetermined)
    assert report.instance_id == analysis.instance.id
    assert report.underdetermined == analysis.semantics.underdetermined
    assert report.responses_evaluated == len(rows) == len(responses) == len(verdicts)
    assert report.counterexamples == counterexamples
    assert [(p.name, p.witnesses, p.violations) for p in report.pairwise] == pairwise
    assert [p.holds for p in report.pairwise] == [not v for _, _, v in pairwise]
    assert report.conflict_free_witness == witness
    return report, responses, verdicts
