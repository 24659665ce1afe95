"""Scoring semantics: normalization, admissible criteria, compatible answers.

`analyze` computes an instance's semantics once and returns it as one frozen
`Analysis`: the min-max normalized score matrix, the admissible weight
polytope P = {w : sum(w) = 1, lower <= w <= upper}, the exact winner
statistics over P, the preference closure, the compatible answer set with
its underdetermination flag and entailed winner, and the scores and winners
under each declared criterion.  The response, trilemma and policy layers
read that object and recompute none of it.

Every instance takes the same exact path, whatever its attribute count and
whether a pin or bounds shape P: pairwise score differences are minimized
over P in closed form, and a small linear program decides where a
candidate can win (`_kernels`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ContradictoryPremises, InfeasibleConstraints
from .model import (
    EPS_WEIGHT,
    LOWER_BETTER,
    NUMERIC,
    BoundConstraint,
    CriterionSpec,
    Instance,
    PinConstraint,
    WeightConstraint,
)

# Absolute tolerance for score comparisons (ties, strict wins).
EPS_SCORE = 1e-9

@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Min-max normalized scores, one row per candidate, one column per attribute."""

    candidates: tuple[str, ...]
    attributes: tuple[str, ...]
    values: np.ndarray  # (n_candidates, n_attributes) float64 in [0, 1]


@dataclass(frozen=True)
class WinnerOutcome:
    """The argmax set at one weight vector (nonempty, in candidate order)."""

    winners: tuple[str, ...]

    @property
    def unique(self) -> str | None:
        return self.winners[0] if len(self.winners) == 1 else None


@dataclass(frozen=True, eq=False)
class AdmissibleSet:
    """The weight polytope P = {w : sum(w) = 1, lower <= w <= upper}.

    Both arrays are (n_attributes,) in declared order and read-only.  A pin
    makes `lower` and `upper` the pinned weights; a bound raises `lower` or
    lowers `upper` of its attribute.
    """

    attributes: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class SemanticsResult:
    """Whole-instance outcome: compatible answers and what they determine."""

    compatible: tuple[str, ...]
    underdetermined: bool
    entailed: str | None
    preference_closure: tuple[tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
class WinnerStats:
    """Aggregate winner facts across every admissible weight vector."""

    candidates: tuple[str, ...]
    ever_unique: np.ndarray  # (n,) bool: sole argmax somewhere
    in_winner_set: np.ndarray  # (n,) bool: within EPS_SCORE of some maximum
    beats_all: np.ndarray  # (n, n) bool: strictly ahead everywhere
    tie_all: np.ndarray  # (n, n) bool: within EPS_SCORE everywhere


def normalize(instance: Instance) -> ScoreMatrix:
    """Min-max normalize every attribute over the candidate set.

    Ordinal levels are mapped to their scale rank first; `lower_better`
    attributes are flipped as ``1 - scaled``.  When all candidates tie on an
    attribute every entry becomes 0.5, so the attribute cannot influence any
    argmax.

    Raises ValueError naming ``candidate.attribute`` for a non-finite
    numeric value, which `validate` reports as ``fact-value-finite``.
    """
    cands = instance.candidates
    attrs = instance.attributes
    values = {(f.candidate, f.attribute): f.value for f in instance.facts}
    out = np.empty((len(cands), len(attrs)), dtype=np.float64)
    for j, attr in enumerate(attrs):
        if attr.kind == NUMERIC:
            raw = np.array([float(values[(c, attr.name)]) for c in cands])
            bad = np.flatnonzero(~np.isfinite(raw))
            if bad.size:
                cand = cands[bad[0]]
                raise ValueError(f"fact {cand}.{attr.name} is not finite "
                                 f"({values[(cand, attr.name)]!r})")
        else:
            scale = instance.scale_by_name(attr.scale)
            raw = np.array([float(scale.rank(values[(c, attr.name)])) for c in cands])
        lo, hi = raw.min(), raw.max()
        if lo == hi:
            out[:, j] = 0.5
            continue
        with np.errstate(over="ignore"):
            span = hi - lo
        if not np.isfinite(span):
            # Finite values whose range overflows: halving is exact, so the
            # ratio is unchanged and stays finite.
            raw, lo, span = raw / 2.0, lo / 2.0, hi / 2.0 - lo / 2.0
        scaled = (raw - lo) / span
        if attr.direction == LOWER_BETTER:
            scaled = 1.0 - scaled
        out[:, j] = scaled
    return ScoreMatrix(tuple(cands), instance.attribute_names, out)


def _weight_row(matrix_attrs: tuple[str, ...], theta: CriterionSpec) -> np.ndarray:
    wmap = theta.weight_map
    try:
        return np.array([wmap[a] for a in matrix_attrs], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(
            f"criterion '{theta.name}' has no weight for attribute {exc.args[0]!r}"
        ) from None


def _winners(candidates: tuple[str, ...], scores: np.ndarray) -> tuple[str, ...]:
    top = scores.max()
    return tuple(c for i, c in enumerate(candidates) if scores[i] >= top - EPS_SCORE)


def winners_at(matrix: ScoreMatrix, theta: CriterionSpec) -> WinnerOutcome:
    """Candidates within EPS_SCORE of the maximum score under `theta`."""
    weights = _weight_row(matrix.attributes, theta)
    scores = _kernels.score_grid(weights[None, :], matrix.values)[0]
    return WinnerOutcome(_winners(matrix.candidates, scores))


def _bounds(constraints: tuple[WeightConstraint, ...]) -> list[BoundConstraint]:
    return [c for c in constraints if isinstance(c, BoundConstraint)]


def _pin_vector(instance: Instance) -> np.ndarray | None:
    """Weight vector demanded by pin constraints, or None.

    Multiple pins must agree within EPS_WEIGHT componentwise; a pinned vector
    must also satisfy every bound constraint.
    """
    attrs = instance.attribute_names
    pinned: np.ndarray | None = None
    pinned_name = ""
    for con in instance.constraints:
        if not isinstance(con, PinConstraint):
            continue
        vec = _weight_row(attrs, instance.criterion_by_name(con.criterion))
        if pinned is None:
            pinned, pinned_name = vec, con.criterion
        elif np.any(np.abs(vec - pinned) > EPS_WEIGHT):
            raise InfeasibleConstraints(
                f"pin constraints disagree: '{pinned_name}' vs '{con.criterion}'")
    if pinned is None:
        return None
    for bound in _bounds(instance.constraints):
        w = pinned[attrs.index(bound.attribute)]
        if not _bound_holds(w, bound):
            raise InfeasibleConstraints(
                f"pinned criterion '{pinned_name}' violates "
                f"weight {bound.attribute} {bound.op} {bound.value}")
    return pinned


def _bound_holds(w: float, bound: BoundConstraint) -> bool:
    if bound.op == "<=":
        return w <= bound.value + EPS_WEIGHT
    if bound.op == ">=":
        return w >= bound.value - EPS_WEIGHT
    return abs(w - bound.value) <= EPS_WEIGHT


def admissible_set(instance: Instance) -> AdmissibleSet:
    """The box-simplex of weight vectors the declared constraints allow.

    Raises InfeasibleConstraints when it is empty: pins that disagree, a pin
    outside a bound, a lower bound above an upper one, or bounds that leave
    no room for weights summing to 1 (each test within EPS_WEIGHT).
    """
    attrs = instance.attribute_names
    pinned = _pin_vector(instance)
    if pinned is not None:
        pinned.setflags(write=False)
        return AdmissibleSet(attrs, pinned, pinned)
    lower, upper = np.zeros(len(attrs)), np.ones(len(attrs))
    for bound in _bounds(instance.constraints):
        j = attrs.index(bound.attribute)
        if bound.op != "<=":
            lower[j] = max(lower[j], bound.value)
        if bound.op != ">=":
            upper[j] = min(upper[j], bound.value)
    crossed = np.flatnonzero(lower - upper > EPS_WEIGHT)
    if crossed.size:
        j = crossed[0]
        raise InfeasibleConstraints(
            f"no admissible weight for '{attrs[j]}' in [{lower[j]}, {upper[j]}]")
    upper = np.maximum(upper, lower)
    if lower.sum() > 1.0 + EPS_WEIGHT or upper.sum() < 1.0 - EPS_WEIGHT:
        raise InfeasibleConstraints(
            f"no admissible weight: the bounds allow weight sums in "
            f"[{lower.sum():.12g}, {upper.sum():.12g}], not 1")
    lower.setflags(write=False)
    upper.setflags(write=False)
    return AdmissibleSet(attrs, lower, upper)


def exact_thresholds(matrix: ScoreMatrix, lo: float = 0.0, hi: float = 1.0) -> list[float]:
    """Sorted alphas in (lo, hi) where two candidates' scores cross exactly.

    Alpha is the weight of the first of two attributes; the scores are
    linear in it, s(alpha) = m[:, 1] + alpha * (m[:, 0] - m[:, 1]).
    """
    m = matrix.values
    tilt = m[:, 0] - m[:, 1]
    slope = tilt[:, None] - tilt[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        alphas = (m[None, :, 1] - m[:, None, 1]) / slope
    inside = (slope != 0.0) & (alphas > lo) & (alphas < hi)
    return sorted(set(alphas[inside].tolist()))


def winner_regions(matrix: ScoreMatrix, thresholds: list[float]):
    """Coalesced winner regions over alpha in [0, 1] on two attributes.

    Alpha is the weight of the first attribute and `thresholds` are its
    `exact_thresholds`.  The winners are read at every threshold, at both
    ends and at the midpoint of each gap, all scored in one `score_grid`
    call; runs with identical winner sets merge.  Returns (lo, lo_closed,
    hi, hi_closed, winners) tuples.
    """
    points = [0.0] + thresholds + [1.0]
    items = [(0.0, 0.0, True)]  # (lo, hi, is_point), in alpha order
    for lo, hi in zip(points, points[1:]):
        items += [(lo, hi, False), (hi, hi, True)]
    alphas = np.array([lo if is_point else (lo + hi) / 2.0 for lo, hi, is_point in items])
    scores = _kernels.score_grid(np.column_stack((alphas, 1.0 - alphas)), matrix.values)
    winners = [_winners(matrix.candidates, row) for row in scores]
    regions = []
    for ws, run in itertools.groupby(zip(items, winners), key=lambda pair: pair[1]):
        run = [item for item, _ in run]
        (lo, _, lo_closed), (_, hi, hi_closed) = run[0], run[-1]
        regions.append((lo, lo_closed, hi, hi_closed, ws))
    return regions


def winner_statistics(matrix: ScoreMatrix, adm: AdmissibleSet) -> WinnerStats:
    """Exact winner facts over the admissible polytope P.

    `beats_all` and `tie_all` read the minimum and maximum over P of each
    difference s_a - s_b (`_kernels.box_simplex_min`).  A candidate's
    margin t = max over P of min over rivals b of (s_a - s_b) decides the
    rest: `ever_unique` is t > EPS_SCORE and `in_winner_set` is
    t >= -EPS_SCORE.  The pairwise extremes bracket t: it lies between the
    least over rivals of min over P of s_a - s_b and the least over rivals
    of its max over P.  The linear program (`_kernels.max_min_margin`)
    runs only where that bracket straddles a threshold, which it never does
    for a candidate that some rival beats everywhere.  The program leaves
    out the rivals that some candidate beats everywhere: they never decide
    either test.
    """
    m = matrix.values
    n, k = m.shape
    diffs = m[:, None, :] - m[None, :, :]  # diffs[a, b] . w == s_a - s_b
    lo = _kernels.box_simplex_min(diffs.reshape(n * n, k), adm.lower,
                                  adm.upper).reshape(n, n)
    hi = -lo.T
    beats_all = lo > EPS_SCORE
    tie_all = (lo >= -EPS_SCORE) & (hi <= EPS_SCORE)
    rival = ~np.eye(n, dtype=bool)
    margin = np.where(rival, lo, np.inf).min(axis=1)
    margin_hi = np.where(rival, hi, np.inf).min(axis=1)
    rows = rival & ~beats_all.any(axis=0)
    for i in np.flatnonzero(((margin > EPS_SCORE) != (margin_hi > EPS_SCORE))
                            | ((margin >= -EPS_SCORE) != (margin_hi >= -EPS_SCORE))):
        margin[i] = _kernels.max_min_margin(diffs[i, rows[i]], adm.lower, adm.upper)
    return WinnerStats(matrix.candidates, margin > EPS_SCORE, margin >= -EPS_SCORE,
                       beats_all, tie_all)


def _closure_matrix(instance: Instance, stats: WinnerStats) -> np.ndarray:
    """Transitive closure of explicit premises united with score unanimity.

    Raises ContradictoryPremises when the union contains a cycle (some
    premise orders a pair against a unanimous score ordering).
    """
    cands = instance.candidates
    index = {c: i for i, c in enumerate(cands)}
    n = len(cands)
    reach = stats.beats_all.copy()
    for pref in instance.preferences:
        reach[index[pref.winner], index[pref.loser]] = True
    for m in range(n):
        reach |= reach[:, m][:, None] & reach[m, :][None, :]
    # Any cycle orders two distinct candidates both ways; name the first pair.
    both = reach & reach.T & ~np.eye(n, dtype=bool)
    if both.any():
        i, j = np.argwhere(both)[0]
        raise ContradictoryPremises(
            f"premises order '{cands[i]}' and '{cands[j]}' both ways "
            "(explicit preference against a unanimous score ordering)")
    return reach


def compatible_answers(instance: Instance, stats: WinnerStats,
                       closure: np.ndarray) -> SemanticsResult:
    """Compatible answer set, underdetermination, entailed winner, closure.

    A candidate is compatible when it is the unique winner at some admissible
    weight vector; if no candidate ever wins uniquely the union of winner
    sets is used instead.  Candidates on the losing side of the preference
    `closure` (from `_closure_matrix`) are removed.  The entailed winner is
    the candidate that wins uniquely everywhere (and is undominated), or the
    sole compatible answer.

    Raises ContradictoryPremises when preference filtering empties the
    compatible set.
    """
    cands = instance.candidates
    n = len(cands)

    if stats.ever_unique.any():
        base = [i for i in range(n) if stats.ever_unique[i]]
    else:
        base = [i for i in range(n) if stats.in_winner_set[i]]

    dominated = closure.any(axis=0)

    compatible = [i for i in base if not dominated[i]]
    if not compatible:
        raise ContradictoryPremises(
            "preference premises exclude every achievable answer")

    entailed: str | None = None
    for i in range(n):
        others = [j for j in range(n) if j != i]
        if all(stats.beats_all[i, j] for j in others) and not dominated[i]:
            entailed = cands[i]
            break
    if entailed is None and len(compatible) == 1:
        entailed = cands[compatible[0]]

    pairs = tuple((cands[i], cands[j])
                  for i in range(n) for j in range(n) if closure[i, j])
    return SemanticsResult(
        compatible=tuple(cands[i] for i in compatible),
        underdetermined=len(compatible) > 1,
        entailed=entailed,
        preference_closure=pairs,
    )


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything the later layers read about one instance, computed once.

    `closure[i, j]` is true when the premises order candidate i above j
    (the matrix behind `semantics.preference_closure`).  `criterion_scores`
    and `criterion_winners` map each declared criterion, in declaration
    order, to its (n,) score row and to `winners_at(matrix, criterion).winners`.
    The closure and the score rows are read-only.
    """

    instance: Instance
    matrix: ScoreMatrix
    adm: AdmissibleSet
    stats: WinnerStats
    closure: np.ndarray
    semantics: SemanticsResult
    criterion_scores: dict[str, np.ndarray]
    criterion_winners: dict[str, tuple[str, ...]]

    @property
    def unique_winners(self) -> dict[str, str]:
        """Criterion name -> its sole winner, for criteria that have one."""
        return {name: ws[0] for name, ws in self.criterion_winners.items()
                if len(ws) == 1}


def analyze(instance: Instance) -> Analysis:
    """Compute the semantics of a validated instance once.

    The criterion rows are scored in one `score_grid` call; each row is
    bitwise what scoring it alone gives, since every entry is accumulated on
    its own.

    Raises InfeasibleConstraints and ContradictoryPremises.
    """
    adm = admissible_set(instance)
    matrix = normalize(instance)
    stats = winner_statistics(matrix, adm)
    closure = _closure_matrix(instance, stats)
    semantics = compatible_answers(instance, stats, closure)
    crits = instance.criteria
    weights = np.array([_weight_row(matrix.attributes, c) for c in crits],
                       dtype=np.float64).reshape(len(crits), len(matrix.attributes))
    scores = _kernels.score_grid(weights, matrix.values)
    # Every later layer reads these; none may change them.
    closure.setflags(write=False)
    scores.setflags(write=False)
    return Analysis(
        instance, matrix, adm, stats, closure, semantics,
        criterion_scores={c.name: scores[i] for i, c in enumerate(crits)},
        criterion_winners={c.name: _winners(matrix.candidates, scores[i])
                           for i, c in enumerate(crits)},
    )
