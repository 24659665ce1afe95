"""Shared builders for the test suite."""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np
from hypothesis import strategies as st

import udet
from udet import cli
from udet._kernels import max_min_margin, score
from udet.dsl import format_number, parse_instance
from udet.model import (
    EPS_WEIGHT,
    HIGHER_BETTER,
    LOWER_BETTER,
    NUMERIC,
    ORDINAL,
    AttributeSchema,
    BoundConstraint,
    CriterionSpec,
    Fact,
    Immutable,
    Instance,
    OrdinalScale,
    PinConstraint,
    PreferencePremise,
    validate,
)
from udet.semantics import (
    EPS_SCORE,
    AdmissibleSet,
    ScoreMatrix,
    SemanticsResult,
    WinnerStats,
    _closure_matrix,
    _weight_row,
    _winners,
    admissible_set,
    compatible_answers,
    analyze,
    normalize,
)
from udet.policy import decide
from udet.responses import (
    Clarify,
    Conditional,
    Decisive,
    Equivalence,
    Refuse,
    ResponseEvaluator,
    Verdict,
)
from udet.trilemma import (
    PAIRWISE_FORMS,
    REFUSE_REASON,
    GeneratorConfig,
    _pairs,
    _subsets,
    check_enumerable,
    check_trilemma,
    evaluate_space,
    generate_instance,
)

NEED_SCALE = OrdinalScale("need_scale", ("low", "moderate", "severe"))


# --- lookups that only tests use ------------------------------------------------

def attribute_by_name(instance: Instance, name: str) -> AttributeSchema:
    return next(a for a in instance.attributes if a.name == name)


def fact_value(instance: Instance, candidate: str, attribute: str) -> float | str:
    return next(f.value for f in instance.facts
                if f.candidate == candidate and f.attribute == attribute)


def in_p(weights, adm: AdmissibleSet) -> bool:
    """Whether `weights` lie in P within the tolerance a pin gets: each
    weight within EPS_WEIGHT of its bounds, and their sum within EPS_WEIGHT
    of 1."""
    return (all(lo - EPS_WEIGHT <= w <= hi + EPS_WEIGHT
                for lo, w, hi in zip(adm.lower, weights, adm.upper))
            and abs(math.fsum(weights) - 1.0) <= EPS_WEIGHT)


def exactly_in_p(weights, adm: AdmissibleSet) -> bool:
    """Whether `weights` lie in P with no slack: within every bound, and
    summing to 1 when the sum is rounded exactly (`math.fsum`)."""
    return (all(lo <= w <= hi for lo, w, hi in zip(adm.lower, weights, adm.upper))
            and math.fsum(weights) == 1.0)


class WinnerOutcome(Immutable):
    """The argmax set at one weight vector (nonempty, in candidate order)."""

    winners: tuple[str, ...]

    @property
    def unique(self) -> str | None:
        return self.winners[0] if len(self.winners) == 1 else None


def winners_at(matrix: ScoreMatrix, theta: CriterionSpec) -> WinnerOutcome:
    """Candidates within EPS_SCORE of the maximum score under `theta`, over
    every candidate, whatever P and the compatible set are."""
    weights = _weight_row(matrix.attributes, theta)
    scores = [score(row, weights) for row in matrix.values]
    return WinnerOutcome(_winners(matrix.candidates, scores))


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


# Shapes of wide response spaces, for `wide_instance`.
WIDE_SHAPES = {
    # The benchmark's wide-responses shape; the generator makes about 30% of
    # the attributes ordinal, whose coarse levels tie some criteria.
    "wide": dict(candidate_range=(6, 12), attribute_range=(2, 2), criteria_range=(9, 12)),
    # Every attribute ordinal: ties under many criteria.
    "ordinal": dict(candidate_range=(4, 9), attribute_range=(2, 3), criteria_range=(5, 10),
                    ordinal_only=True),
    # One attribute ranks every candidate the same way under every
    # criterion, so all decided criteria share one winner.
    "one_winner": dict(candidate_range=(2, 6), attribute_range=(1, 1), criteria_range=(2, 8)),
    # Many candidates on coarse levels: large tie classes, and a premise
    # from a dominating candidate in every instance that has one.
    "many": dict(candidate_range=(20, 40), attribute_range=(2, 3), criteria_range=(2, 6),
                 ordinal_only=True, preference_probability=1.0),
}


def wide_instance(shape: str, seed: int, index: int) -> Instance:
    """The `index`-th generated instance of `WIDE_SHAPES[shape]` for `seed`."""
    fields = dict(WIDE_SHAPES[shape])
    ordinal_only = fields.pop("ordinal_only", False)
    inst = generate_instance(GeneratorConfig(seed=seed, **fields), index)
    if ordinal_only:
        # Recast each numeric attribute as a 3-level ordinal, keeping its
        # direction: tenths 0-3.3, 3.4-6.6 and 6.7-10 become lv0-lv2.  The
        # recast is monotone, so a premise from a dominating candidate still
        # cannot contradict the scores.
        scales = {a.name: OrdinalScale(f"scale_{a.name}", ("lv0", "lv1", "lv2"))
                  for a in inst.attributes if a.kind == NUMERIC}
        inst = inst.replace(
            scales=inst.scales + tuple(scales.values()),
            attributes=tuple(
                a.replace(kind=ORDINAL, scale=scales[a.name].name)
                if a.name in scales else a for a in inst.attributes),
            facts=tuple(
                f.replace(value=f"lv{min(2, int(f.value * 3 / 10))}")
                if f.attribute in scales else f for f in inst.facts))
        assert validate(inst) == []
    return inst


# Facts at 0 and 1 fix each attribute's range, so a normalized score is the
# fact itself; the others lie 2**-30 (below EPS_SCORE) or 2**-29 (above it)
# from 1/2, and every weight below is dyadic too, so each score is exact.
# Under `three_quarters`, D leads E by 1.75 * 2**-30, within 2 EPS_SCORE.
NEAR_TIES = {"A": (1.0, 0.0), "B": (0.0, 1.0), "C": (0.5, 0.5),
             "D": (0.5 + 2.0 ** -30, 0.5), "E": (0.5 - 2.0 ** -29, 0.5 + 2.0 ** -29),
             "F": (0.5 + 2.0 ** -29, 0.5 - 2.0 ** -30)}

NEAR_TIE_CONSTRAINTS = (
    (), (BoundConstraint("x", ">=", 0.5),), (BoundConstraint("x", "<=", 0.25),),
    (BoundConstraint("x", "=", 0.5),), (PinConstraint("half"),),
    (PinConstraint("three_quarters"),))


def near_tie_instance(drop: str = "", constraints: tuple = ()) -> Instance:
    """The `NEAR_TIES` candidates but `drop`, two dyadic criteria, and
    `constraints`."""
    criteria = (CriterionSpec("half", (("x", 0.5), ("y", 0.5))),
                CriterionSpec("three_quarters", (("x", 0.75), ("y", 0.25))))
    values = {c: v for c, v in NEAR_TIES.items() if c != drop}
    inst = build_two_numeric("near", values, criteria=criteria, constraints=constraints)
    assert validate(inst) == []
    return inst


@st.composite
def constrained_instances(draw):
    """Small instances with 1-6 attributes, coarse facts, criteria on
    twentieths, and a pin or bounds on twentieths, plus preferences that
    follow the candidate order, so they never form a cycle themselves, and
    a decision required or not."""
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    cands = tuple(f"c{i + 1}" for i in range(n))
    attrs = tuple(AttributeSchema(f"a{j + 1}", NUMERIC,
                                  draw(st.sampled_from((HIGHER_BETTER, LOWER_BETTER))))
                  for j in range(k))
    facts = tuple(Fact(c, a.name, float(draw(st.integers(0, 4))))
                  for c in cands for a in attrs)
    criteria = []
    for i in range(draw(st.integers(0, 3))):
        cuts = sorted(draw(st.lists(st.integers(0, 20), min_size=k - 1, max_size=k - 1)))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, 20])]
        criteria.append(CriterionSpec(f"k{i + 1}", tuple(
            (a.name, p / 20) for a, p in zip(attrs, parts))))
    if criteria and draw(st.booleans()):
        constraints = (PinConstraint(draw(st.sampled_from(criteria)).name),)
    else:
        constraints = tuple(
            BoundConstraint(a.name, draw(st.sampled_from(("<=", ">=", "="))),
                            draw(st.integers(0, 20)) / 20)
            for a in attrs if draw(st.booleans()) and draw(st.booleans()))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] < p[1]), max_size=2, unique=True))
    inst = Instance(id="prop", question="", candidates=cands, attributes=attrs,
                    facts=facts, criteria=tuple(criteria), constraints=constraints,
                    preferences=tuple(PreferencePremise(cands[i], cands[j]) for i, j in pairs),
                    decisiveness_required=draw(st.booleans()))
    assert validate(inst) == []
    return inst


# Four instances where a criterion, or equal weights, outside P, or an answer
# the premises exclude, could decide the response.  On x and y: A = (10, 0),
# B = (0, 10), C = (6, 6), D = (7, 7), E = (4.5, 9.8).
_POINTS = {"A": (10.0, 0.0), "B": (0.0, 10.0), "C": (6.0, 6.0), "D": (7.0, 7.0),
           "E": (4.5, 9.8)}
X_ONLY = CriterionSpec("x_only", (("x", 1.0), ("y", 0.0)))
Y_ONLY = CriterionSpec("y_only", (("x", 0.0), ("y", 1.0)))
EVEN = CriterionSpec("even", (("x", 0.5), ("y", 0.5)))


def outside_p_instance(name: str) -> Instance:
    """`bound`: A, B, D, E under x >= 0.6, a decision required; equal
    weights lie outside P.  `preference`: A, B, C, A preferred to C, a
    decision required; C leads at equal weights.  `conditional`: A, B, D
    and the criteria x_only and y_only under x >= 0.4; y_only lies outside
    P.  `verdicts`: A, B, C, the criteria x_only, y_only and even, under
    x >= 0.4 with A preferred to C; A is entailed."""
    cands, extra = {
        "bound": ("ABDE", dict(constraints=(BoundConstraint("x", ">=", 0.6),),
                               decisiveness_required=True)),
        "preference": ("ABC", dict(preferences=(PreferencePremise("A", "C"),),
                                   decisiveness_required=True)),
        "conditional": ("ABD", dict(criteria=(X_ONLY, Y_ONLY),
                                    constraints=(BoundConstraint("x", ">=", 0.4),))),
        "verdicts": ("ABC", dict(criteria=(X_ONLY, Y_ONLY, EVEN),
                                 constraints=(BoundConstraint("x", ">=", 0.4),),
                                 preferences=(PreferencePremise("A", "C"),))),
    }[name]
    return build_two_numeric(name, {c: _POINTS[c] for c in cands}, **extra)


@lru_cache(maxsize=1)
def extreme_instance() -> Instance:
    """A generated instance at the largest size the benchmark sweeps: 256
    candidates, 20 attributes, 2 criteria and a bound on one weight."""
    config = GeneratorConfig(seed=1, candidate_range=(256, 256), attribute_range=(20, 20),
                             criteria_range=(2, 2))
    return generate_instance(config, 0)


def build_distinct_winners(n: int = 12) -> Instance:
    """n candidates on a concave front, x = j and y = (n - 1)^2 - j^2, and
    n criteria, the j-th won by candidate j alone: under weights (w, 1 - w)
    the normalized score peaks at x / (n - 1) = w / (2 (1 - w)), so
    w = 2j / (n - 1 + 2j).  Every criterion is decided, each by its own
    winner, so only the conditional naming all of them covers every winner."""
    top = n - 1
    values = {f"c{j}": (float(j), float(top * top - j * j)) for j in range(n)}
    criteria = tuple(
        CriterionSpec(f"k{j}", (("x", 2 * j / (top + 2 * j)), ("y", top / (top + 2 * j))))
        for j in range(n))
    return build_two_numeric("distinct_winners", values, criteria=criteria)


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


def grid_scores(weights, values) -> np.ndarray:
    """Scores for every (weight vector, candidate) pair of the (n_points, k)
    `weights` and the (n_candidates, k) `values`, as a (n_points,
    n_candidates) view of a candidate-major buffer.  Each entry is
    accumulated from 0.0 over attributes in declared order, as
    `udet._kernels.score` does."""
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    scores = np.zeros((values.shape[0], weights.shape[0]))
    for j in range(weights.shape[1]):
        scores += values[:, j:j + 1] * weights[:, j]
    return scores.T


def admissible_grid(adm: AdmissibleSet, total: int) -> np.ndarray:
    """The points of the G = `total` simplex grid that lie in `adm`'s polytope."""
    grid = simplex_grid(total, len(adm.attributes))
    inside = np.all((grid >= adm.lower) & (grid <= adm.upper), axis=1)
    return grid[inside]


def grid_statistics(matrix: ScoreMatrix, adm: AdmissibleSet, total: int) -> WinnerStats:
    """Winner facts on the grid points inside the polytope; ValueError when
    no grid point lies inside it."""
    scores = grid_scores(admissible_grid(adm, total), matrix.values)
    return WinnerStats(matrix.candidates, *grid_winner_stats(scores, EPS_SCORE))


def grid_semantics(instance: Instance, total: int) -> SemanticsResult:
    """Compatible answers as the grid oracle sees them."""
    matrix = normalize(instance)
    stats = grid_statistics(matrix, admissible_set(instance), total)
    return compatible_answers(instance, stats, _closure_matrix(instance, stats))


# --- numpy reference for the exact winner statistics ---------------------------
#
# The vectorized form the program had before its semantics went to plain
# Python: every pairwise extreme by one numpy greedy fill, and the margin
# linear program for every candidate whose bracket straddles a threshold.


def numpy_box_simplex_min(coef, lower, upper) -> np.ndarray:
    """min over P of ``coef[r] . w`` for every row r of the (m, k) `coef`,
    by the greedy fill of `udet._kernels.box_simplex_min`, vectorized."""
    coef = np.asarray(coef, dtype=np.float64)
    lower, upper = np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64)
    order = np.argsort(coef, axis=1, kind="stable")
    room = (upper - lower)[order]
    spent = np.zeros_like(room)
    np.cumsum(room[:, :-1], axis=1, out=spent[:, 1:])
    fill = np.clip((1.0 - lower.sum()) - spent, 0.0, room)
    ranked = np.take_along_axis(coef, order, axis=1)
    return coef @ lower + np.einsum("rj,rj->r", ranked, fill)


def numpy_winner_statistics(matrix: ScoreMatrix, adm: AdmissibleSet):
    """``(ever_unique, in_winner_set, beats_all, tie_all)`` as numpy arrays."""
    m = np.asarray(matrix.values, dtype=np.float64)
    n, k = m.shape
    diffs = m[:, None, :] - m[None, :, :]  # diffs[a, b] . w == s_a - s_b
    lo = numpy_box_simplex_min(diffs.reshape(n * n, k), adm.lower, adm.upper).reshape(n, n)
    hi = -lo.T
    beats_all = lo > EPS_SCORE
    tie_all = (lo >= -EPS_SCORE) & (hi <= EPS_SCORE)
    rival = ~np.eye(n, dtype=bool)
    margin = np.where(rival, lo, np.inf).min(axis=1)
    margin_hi = np.where(rival, hi, np.inf).min(axis=1)
    rows = rival & ~beats_all.any(axis=0)
    for i in np.flatnonzero(((margin > EPS_SCORE) != (margin_hi > EPS_SCORE))
                            | ((margin >= -EPS_SCORE) != (margin_hi >= -EPS_SCORE))):
        margin[i] = max_min_margin(diffs[i, rows[i]], adm.lower, adm.upper)
    return margin > EPS_SCORE, margin >= -EPS_SCORE, beats_all, tie_all


# --- oracles for `udet analyze` ------------------------------------------------
#
# The CLI writes the verdict rows from the key tables of `evaluate_space`.
# These build the space object by object with `enumerate_responses`, take
# each row's verdict from `ResponseEvaluator.evaluate`, and render the JSON
# document with one `json.dumps(doc, indent=2)` and the text report row by
# row with `render_response`.


def _canonical(cls, field: str, value: tuple):
    """A `cls` response whose one `field` is `value`, already in the form
    its `__init__` would give it; skips the coercion.  For enumeration."""
    response = object.__new__(cls)
    object.__setattr__(response, field, value)
    return response


def enumerate_responses(analysis) -> tuple:
    """All structured responses for the instance, in the row order of
    `evaluate_space`.

    Order: Decisive by candidate (undisclosed criterion first, then each
    declared criterion, then the default, if any), Conditional over nonempty subsets of the criteria
    that have a unique winner (by subset size, then declaration order),
    Equivalence over candidate pairs, one Clarify, one Refuse.  Conditionals
    and equivalences are built in their canonical form directly, without
    the coercion of public construction.

    Raises ResponseSpaceTooLarge as `udet analyze` does (`check_enumerable`).
    """
    instance = analysis.instance
    check_enumerable(instance)
    out = [Decisive(cand, theta)
           for cand, theta in product(instance.candidates, (None, *analysis.theta_winners))]
    out += [_canonical(Conditional, "branches", subset)
            for subset in _subsets(tuple(analysis.unique_winners.items()))]
    out += [_canonical(Equivalence, "candidates", pair) for pair in _pairs(instance.candidates)]
    out.append(Clarify(tuple(f"weight for {a}" for a in instance.attribute_names)))
    out.append(Refuse(REFUSE_REASON))
    return tuple(out)


def triple(verdict: Verdict) -> tuple[bool, bool, bool]:
    """(c_strong, nb_strict, u_decisive): the three trilemma predicates."""
    return (verdict.c_strong, verdict.nb_strict, verdict.u_decisive)


def invariants_ok(verdict: Verdict) -> bool:
    """The implications the `Verdict` docstring states, and u_assistive in [0, 1]."""
    if verdict.c_strong and not verdict.c_cond:
        return False
    if verdict.nb_strict and not verdict.nb_transparent:
        return False
    if verdict.u_decisive and verdict.u_assistive != 1.0:
        return False
    return 0.0 <= verdict.u_assistive <= 1.0


def evaluated_rows(analysis) -> list:
    """(response, verdict) for every enumerated response, each verdict
    from its own `evaluate` call."""
    evaluator = ResponseEvaluator(analysis)
    return [(r, evaluator.evaluate(r)) for r in enumerate_responses(analysis)]


def table_rows(table) -> list:
    """(response, verdict) for every row of a `VerdictTable`, in its order.
    The responses are built as the table gives them, without coercion."""
    keyed = [(Decisive(cand, theta), key) for (cand, theta), key in table.decisive_rows()]
    keyed += [(_canonical(Conditional, "branches", branches), key)
              for branches, key in table.conditional_rows(table.decided)]
    keyed += [(_canonical(Equivalence, "candidates", pair), key)
              for pair, key in table.equivalence_rows()]
    keyed += table.closing_rows()
    assert set(table.verdicts) == {key for _, key in keyed}
    return [(response, table.verdicts[key]) for response, key in keyed]


def _analysis_of(path: str, require_decision: bool):
    text = open(path, encoding="utf-8", errors="replace").read()
    instance = parse_instance(text, path)
    if require_decision:
        instance = instance.replace(decisiveness_required=True)
    return analyze(instance)


def instance_doc(instance: Instance) -> dict:
    """The ``instance`` value of the analyze document, from the model's fields."""
    return {
        "id": instance.id,
        "question": instance.question,
        "candidates": list(instance.candidates),
        "scales": [{"name": s.name, "levels": list(s.levels)} for s in instance.scales],
        "attributes": [
            {"name": a.name, "kind": a.kind, "direction": a.direction,
             **({"scale": a.scale} if a.kind == ORDINAL else {})}
            for a in instance.attributes],
        "facts": [{"candidate": f.candidate, "attribute": f.attribute, "value": f.value}
                  for f in instance.facts],
        "criteria": [{"name": c.name, "weights": dict(c.weights)} for c in instance.criteria],
        "constraints": [
            {"kind": "pin", "criterion": c.criterion} if isinstance(c, PinConstraint)
            else {"kind": "bound", "attribute": c.attribute, "op": c.op, "value": c.value}
            for c in instance.constraints],
        "preferences": [[p.winner, p.loser] for p in instance.preferences],
        "decisiveness_required": instance.decisiveness_required,
    }


def trilemma_doc(report) -> dict:
    """The ``trilemma`` value of the analyze document, from the report's fields."""
    return {
        "underdetermined": report.underdetermined,
        "responses_evaluated": report.responses_evaluated,
        "counterexamples": [cli.response_to_json(r) for r in report.counterexamples],
        "pairwise": [
            {"name": p.name, "witnesses": p.witnesses, "holds": not p.violations,
             "violations": [cli.response_to_json(r) for r in p.violations]}
            for p in report.pairwise],
        "conflict_free_witness": (None if report.conflict_free_witness is None
                                  else cli.response_to_json(report.conflict_free_witness)),
    }


def analyze_json_oracle(path: str, require_decision: bool = False,
                        timestamps: bool = False) -> str:
    """What `udet analyze PATH --format json` must print."""
    analysis = _analysis_of(path, require_decision)
    decision = decide(analysis)
    doc = {
        "schema_version": cli.JSON_SCHEMA_VERSION,
        "parameters": cli._parameters(timestamps),
        "instance": instance_doc(analysis.instance),
        "semantics": cli._semantics_json(analysis.semantics),
        "verdicts": [
            {"response": cli.response_to_json(r),
             "verdict": {f: getattr(v, f) for f in Verdict.__slots__}}
            for r, v in evaluated_rows(analysis)
        ],
        "policy": {
            "branch": decision.branch,
            "response": cli.response_to_json(decision.response),
            "rationale": decision.rationale,
        },
        "trilemma": trilemma_doc(check_trilemma(analysis)),
    }
    return json.dumps(doc, indent=2) + "\n"


def analyze_text_oracle(path: str, require_decision: bool = False) -> str:
    """What `udet analyze PATH` must print."""
    analysis = _analysis_of(path, require_decision)
    instance, semantics = analysis.instance, analysis.semantics
    decision, report = decide(analysis), check_trilemma(analysis)
    attrs = ", ".join(
        f"{a.name} ({a.kind}{'/' + a.scale if a.kind == ORDINAL else ''}, {a.direction})"
        for a in instance.attributes)
    closure = "; ".join(f"{a} > {b}" for a, b in semantics.preference_closure) or "-"
    header = ["response".ljust(52), "C".ljust(6), "Ccond".ljust(6), "NB".ljust(6),
              "NBt".ljust(6), "Udec".ljust(6), "Uass".ljust(6), "hidden"]
    witness = report.conflict_free_witness
    lines = [
        f"instance {instance.id}",
        *([f"question: {instance.question}"] if instance.question else []),
        f"candidates: {', '.join(instance.candidates)}",
        f"attributes: {attrs}",
        f"parameters: eps_score={format_number(EPS_SCORE)} "
        f"eps_weight={format_number(EPS_WEIGHT)} version={udet.__version__}",
        "semantics:",
        f"  compatible: {', '.join(semantics.compatible)}",
        f"  underdetermined: {cli._bool(semantics.underdetermined)}",
        f"  entailed: {semantics.entailed or '-'}",
        f"  preference closure: {closure}",
        "verdicts:",
        "  " + " ".join(header).rstrip(),
        *(f"  {cli.render_response(r).ljust(52)} {cli._verdict_cells(v)}"
          for r, v in evaluated_rows(analysis)),
        "policy:",
        f"  branch: {decision.branch}",
        f"  response: {cli.render_response(decision.response)}",
        f"  rationale: {decision.rationale}",
        "trilemma:",
        f"  underdetermined: {cli._bool(report.underdetermined)}",
        f"  responses evaluated: {report.responses_evaluated}",
        f"  counterexamples: {len(report.counterexamples)}",
        *(f"  {c.name}: {'holds' if c.holds else 'VIOLATED'} (witnesses {c.witnesses})"
          for c in report.pairwise),
        f"  conflict-free witness: {cli.render_response(witness) if witness else '-'}",
    ]
    return "\n".join(lines) + "\n"


# --- trilemma oracle ------------------------------------------------------------
#
# `check_trilemma` reads its report off the key tables of `evaluate_space`;
# this derives the same report from the enumerated rows, each verdict from
# `evaluate`, and the three trilemma predicates tested on every row.

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
    rows = evaluated_rows(analysis)
    assert table_rows(evaluate_space(analysis)) == rows
    report = check_trilemma(analysis)
    counterexamples, pairwise, witness = trilemma_oracle(
        rows, analysis.semantics.underdetermined)
    assert report.instance_id == analysis.instance.id
    assert report.underdetermined == analysis.semantics.underdetermined
    assert report.responses_evaluated == len(rows)
    assert report.counterexamples == counterexamples
    assert [(p.name, p.witnesses, p.violations) for p in report.pairwise] == pairwise
    assert [p.holds for p in report.pairwise] == [not v for _, _, v in pairwise]
    assert report.conflict_free_witness == witness
    responses, verdicts = zip(*rows)
    return report, responses, verdicts


# Mutations of a corpus file, for the fuzz tests of the CLI and the parser.
TOKEN_POOL = ("A", "B", "Z", "gpa", "need", "over", "criterion", "weight", "numeric",
              "-1", "0", "0.5", "2", "1e400", "{", "}", ",", ".", ":", "=", '"', '"x"', "")


def mutate_lines(lines: list[str], data) -> list[str]:
    """Drop, duplicate or swap lines, corrupt one token, or shuffle the
    declarations after the first line."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(("drop", "duplicate", "swap", "corrupt", "shuffle")))
        i = data.draw(st.integers(0, len(lines) - 1))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "corrupt":
            tokens = lines[i].split(" ")
            k = data.draw(st.integers(0, len(tokens) - 1))
            tokens[k] = data.draw(st.sampled_from(TOKEN_POOL) | st.text(max_size=3))
            lines[i] = " ".join(tokens)
        elif op == "shuffle":
            lines[1:] = data.draw(st.permutations(lines[1:]))
    return lines
