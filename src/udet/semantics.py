"""Scoring semantics: normalization, admissible criteria, compatible answers.

`analyze` computes an instance's semantics once and returns it as one frozen
`Analysis`: the min-max normalized score matrix, the admissible weight
vectors (exact interval algebra for two attributes, otherwise the simplex
grid that `_kernels.simplex_grid` builds once per (G, k) and shares
read-only), the winner statistics over them, the preference closure, the
compatible answer set with its underdetermination flag and entailed winner,
and the scores and winners under each declared criterion.  The response,
trilemma and policy layers read that object and recompute none of it.
Scores and winner statistics come from the numpy kernels in `_kernels`.
"""

from __future__ import annotations

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

# Enumeration kinds.
EXACT_THRESHOLD = "exact_threshold"
GRID = "grid"
SINGLETON = "singleton"

# Default grids keep the point count at desk scale.
MAX_GRID_POINTS = 100_000


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
    """The weight vectors consistent with the instance's constraints.

    `kind` is ``exact_threshold`` (two attributes, interval algebra over the
    first attribute's weight), ``grid`` (simplex grid filtered by bounds), or
    ``singleton`` (a pin constraint fixes one vector).  `vectors` holds the
    enumerated rows for grid/singleton kinds, read-only: without bounds it is
    the shared cached grid itself.  `alpha_interval` holds the admissible
    range of the first attribute's weight for the exact kind.
    """

    attributes: tuple[str, ...]
    constraints: tuple[WeightConstraint, ...]
    kind: str
    grid_subdivisions: int | None = None
    vectors: np.ndarray | None = None
    alpha_interval: tuple[float, float] | None = None

    @property
    def size(self) -> int | None:
        """Number of enumerated vectors; None for the continuous exact kind."""
        return None if self.vectors is None else int(self.vectors.shape[0])


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


def default_grid_subdivisions(n_attributes: int) -> int:
    """Largest G whose simplex grid stays within MAX_GRID_POINTS points."""
    if n_attributes < 1:
        raise ValueError("need at least one attribute")
    if n_attributes == 1:
        return 1
    g = 1
    while _kernels.composition_count(g + 1, n_attributes) <= MAX_GRID_POINTS:
        g += 1
    return g


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


def admissible_set(instance: Instance, grid_G: int | None = None,
                   mode: str = "auto") -> AdmissibleSet:
    """Enumerate the weight vectors consistent with the declared constraints.

    With exactly two attributes and no pin the set is the exact interval of
    the first attribute's weight (`mode="auto"`); otherwise a simplex grid
    with `grid_G` subdivisions per dimension, filtered by bound constraints.
    `mode="grid"` forces grid enumeration for two-attribute instances (used
    to cross-check the exact path).

    Raises InfeasibleConstraints when no admissible vector remains.
    """
    if mode not in ("auto", "grid", "exact"):
        raise ValueError(f"mode must be 'auto', 'grid' or 'exact', got {mode!r}")
    if grid_G is not None and grid_G < 1:
        raise ValueError("grid_G must be a positive integer")
    attrs = instance.attribute_names
    k = len(attrs)

    pinned = _pin_vector(instance)
    if pinned is not None:
        pinned.setflags(write=False)
        return AdmissibleSet(attrs, instance.constraints, SINGLETON,
                             vectors=pinned[None, :])

    if mode == "exact" and k != 2:
        raise ValueError("exact_threshold enumeration requires exactly 2 attributes")

    if k == 2 and mode in ("auto", "exact"):
        lo, hi = 0.0, 1.0
        for bound in _bounds(instance.constraints):
            # Translate to a constraint on alpha, the first attribute's weight.
            flip = bound.attribute == attrs[1]
            value = 1.0 - bound.value if flip else bound.value
            op = bound.op
            if flip and op == "<=":
                op = ">="
            elif flip and op == ">=":
                op = "<="
            if op == "<=":
                hi = min(hi, value)
            elif op == ">=":
                lo = max(lo, value)
            else:
                lo, hi = max(lo, value), min(hi, value)
        if lo - hi > EPS_WEIGHT:
            raise InfeasibleConstraints(
                f"no admissible weight for '{attrs[0]}' in [{lo}, {hi}]")
        hi = max(hi, lo)
        return AdmissibleSet(attrs, instance.constraints, EXACT_THRESHOLD,
                             alpha_interval=(lo, hi))

    g = grid_G if grid_G is not None else default_grid_subdivisions(k)
    weights = _kernels.simplex_grid(g, k)
    bounds = _bounds(instance.constraints)
    if bounds:
        keep = np.ones(weights.shape[0], dtype=bool)
        for bound in bounds:
            col = weights[:, attrs.index(bound.attribute)]
            if bound.op == "<=":
                keep &= col <= bound.value + EPS_WEIGHT
            elif bound.op == ">=":
                keep &= col >= bound.value - EPS_WEIGHT
            else:
                keep &= np.abs(col - bound.value) <= EPS_WEIGHT
        if not keep.any():
            raise InfeasibleConstraints(
                f"no point of the {g}-subdivision simplex grid satisfies the bounds")
        weights = weights.T[:, keep].T  # stays attribute-major
        weights.setflags(write=False)
    return AdmissibleSet(attrs, instance.constraints, GRID, grid_subdivisions=g,
                         vectors=weights)


def _exact_eval_weights(matrix: ScoreMatrix, lo: float, hi: float) -> np.ndarray:
    """Evaluation vectors that make point sampling exact for two attributes.

    Scores are linear in alpha, so every strict/tie predicate changes truth
    only where some pairwise difference crosses 0, +EPS_SCORE, or -EPS_SCORE.
    Sampling all such breakpoints plus the midpoints between them covers every
    truth region exactly.
    """
    points = {lo, hi}
    for level in (0.0, EPS_SCORE, -EPS_SCORE):
        for alpha in _pairwise_crossings(matrix, level):
            if lo <= alpha <= hi:
                points.add(alpha)
    ordered = sorted(points)
    evals = list(ordered)
    for left, right in zip(ordered, ordered[1:]):
        evals.append((left + right) / 2.0)
    alphas = np.array(sorted(evals), dtype=np.float64)
    return np.column_stack((alphas, 1.0 - alphas))


def _pairwise_crossings(matrix: ScoreMatrix, level: float) -> list[float]:
    """Alphas where some pairwise score difference equals `level`."""
    m = matrix.values
    n = m.shape[0]
    out: list[float] = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            # d(alpha) = (m[a,1]-m[b,1]) + alpha * ((m[a,0]-m[a,1]) - (m[b,0]-m[b,1]))
            intercept = m[a, 1] - m[b, 1]
            slope = (m[a, 0] - m[a, 1]) - (m[b, 0] - m[b, 1])
            if slope != 0.0:
                out.append((level - intercept) / slope)
    return out


def exact_thresholds(matrix: ScoreMatrix, lo: float = 0.0, hi: float = 1.0) -> list[float]:
    """Sorted alphas in (lo, hi) where two candidates' scores cross exactly."""
    seen: set[float] = set()
    for alpha in _pairwise_crossings(matrix, 0.0):
        if lo < alpha < hi:
            seen.add(alpha)
    return sorted(seen)


def _admissible_weights(matrix: ScoreMatrix, adm: AdmissibleSet) -> np.ndarray:
    if adm.kind == EXACT_THRESHOLD:
        lo, hi = adm.alpha_interval
        return _exact_eval_weights(matrix, lo, hi)
    return adm.vectors


def winner_statistics(matrix: ScoreMatrix, adm: AdmissibleSet) -> WinnerStats:
    """Winner facts aggregated over every admissible weight vector.

    For the exact two-attribute kind this is computed from breakpoint algebra
    (scores are linear in the first attribute's weight), so the result is
    exact rather than sampled; linear differences attain their extrema at the
    interval endpoints, which the evaluation set always contains.
    """
    weights = _admissible_weights(matrix, adm)
    scores = _kernels.score_grid(weights, matrix.values)
    ever_unique, in_winner_set, beats_all, tie_all = _kernels.winner_stats(
        scores, EPS_SCORE)
    return WinnerStats(matrix.candidates, ever_unique, in_winner_set,
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
    for i in range(n):
        for j in range(n):
            if reach[i, j] and reach[j, i]:
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


def analyze(instance: Instance, grid_G: int | None = None,
            mode: str = "auto") -> Analysis:
    """Compute the semantics of a validated instance once.

    `grid_G` and `mode` go to `admissible_set`.  The criterion rows are
    scored in one `score_grid` call; each row is bitwise what scoring it
    alone gives, since every entry is accumulated on its own.

    Raises InfeasibleConstraints and ContradictoryPremises.
    """
    adm = admissible_set(instance, grid_G, mode)
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
