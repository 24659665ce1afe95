"""Scoring semantics: normalization, admissible criteria, compatible answers.

`analyze` computes an instance's semantics once and returns it as one frozen
`Analysis`: the min-max normalized score matrix, the admissible weight
polytope P = {w : sum(w) = 1, lower <= w <= upper}, the scores and winners
under each declared criterion, the exact winner statistics over P, the
preference closure, and the compatible answer set with its
underdetermination flag and entailed winner.  The response, trilemma and
policy layers read that object and recompute none of it.  Its score rows
and tables are tuples of plain Python floats and bools, so no reader can
change them, and computing them needs no numpy.

Every instance takes the same exact path, whatever its attribute count and
whether a pin or bounds shape P.  Pairwise score differences are minimized
over P in closed form.  Over the rivals that no candidate beats everywhere,
they bracket each candidate's winning margin; against one such rival the
bracket's upper end is the margin itself.  Where the bracket leaves a
verdict open, a small linear program gives the margin (`_kernels`).  The
default criterion is equal weights projected onto P.
"""

from __future__ import annotations

import itertools
import math
from operator import sub

from . import _kernels
from .errors import ContradictoryPremises, InfeasibleConstraints
from .model import (
    EPS_WEIGHT,
    LOWER_BETTER,
    NUMERIC,
    BoundConstraint,
    CriterionSpec,
    Immutable,
    Instance,
    format_number,
)

# Absolute tolerance for score comparisons (ties, strict wins).
EPS_SCORE = 1e-9

# The name of the default criterion, suffixed if a declared one has it.
UNIFORM_DEFAULT = "uniform_default"

Vector = tuple[float, ...]
BoolTable = tuple[tuple[bool, ...], ...]


class ScoreMatrix(Immutable, eq=False):
    """Min-max normalized scores, one row per candidate, one column per
    attribute: ``values[c][j]`` in [0, 1]."""

    candidates: tuple[str, ...]
    attributes: tuple[str, ...]
    values: tuple[Vector, ...]


class AdmissibleSet(Immutable, eq=False):
    """The weight polytope P = {w : sum(w) = 1, lower <= w <= upper}.

    `lower` and `upper` hold one weight per attribute, in declared order.  A
    pin makes both the pinned weights; a bound raises `lower` or lowers
    `upper` of its attribute.  Always math.fsum(lower) <= 1 <= math.fsum(upper).
    """

    attributes: tuple[str, ...]
    lower: Vector
    upper: Vector


class SemanticsResult(Immutable):
    """Whole-instance outcome: compatible answers and what they determine."""

    compatible: tuple[str, ...]
    underdetermined: bool
    entailed: str | None
    preference_closure: tuple[tuple[str, str], ...]


class WinnerStats(Immutable, eq=False):
    """Aggregate winner facts across every admissible weight vector.

    Per candidate: `ever_unique`, the sole argmax somewhere, and
    `in_winner_set`, within EPS_SCORE of some maximum.  Per pair, indexed by
    candidate position as ``beats_all[a][b]``: `beats_all`, strictly ahead
    everywhere, and `tie_all`, within EPS_SCORE everywhere.
    """

    candidates: tuple[str, ...]
    ever_unique: tuple[bool, ...]
    in_winner_set: tuple[bool, ...]
    beats_all: BoolTable
    tie_all: BoolTable


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
    values = {(f.candidate, f.attribute): f.value for f in instance.facts}
    columns = []
    for attr in instance.attributes:
        if attr.kind == NUMERIC:
            raw = [float(values[(c, attr.name)]) for c in cands]
            for cand, value in zip(cands, raw):
                if not math.isfinite(value):
                    raise ValueError(f"fact {cand}.{attr.name} is not finite "
                                     f"({values[(cand, attr.name)]!r})")
        else:
            scale = instance.scale_by_name(attr.scale)
            raw = [float(scale.rank(values[(c, attr.name)])) for c in cands]
        lo, hi = min(raw), max(raw)
        if lo == hi:
            columns.append([0.5] * len(cands))
            continue
        span = hi - lo
        if not math.isfinite(span):
            # Finite values whose range overflows: halving is exact, so the
            # ratio is unchanged and stays finite.
            raw, lo, span = [v / 2.0 for v in raw], lo / 2.0, hi / 2.0 - lo / 2.0
        scaled = [(v - lo) / span for v in raw]
        if attr.direction == LOWER_BETTER:
            scaled = [1.0 - v for v in scaled]
        columns.append(scaled)
    return ScoreMatrix(tuple(cands), instance.attribute_names, tuple(zip(*columns)))


def _weight_row(matrix_attrs: tuple[str, ...], theta: CriterionSpec) -> Vector:
    wmap = theta.weight_map
    try:
        return tuple(float(wmap[a]) for a in matrix_attrs)
    except KeyError as exc:
        raise ValueError(
            f"criterion '{theta.name}' has no weight for attribute {exc.args[0]!r}"
        ) from None


def _winners(candidates: tuple[str, ...], scores: Vector) -> tuple[str, ...]:
    top = max(scores)
    return tuple(c for c, s in zip(candidates, scores) if s >= top - EPS_SCORE)


def admissible_set(instance: Instance) -> AdmissibleSet:
    """P, built in one pass over the weight premises.

    Each bound narrows its attribute's interval [lower, upper].  A pin makes
    P its criterion's vector, exactly: that vector must agree with every
    other pin and lie in the bounds' box, each within EPS_WEIGHT, so no
    bound is tested on its own.  Without a pin, the bounds must admit a
    weight vector that meets each of them within EPS_WEIGHT and sums to 1
    within EPS_WEIGHT, as a pinned vector must.  So two bounds may cross by
    up to 2 * EPS_WEIGHT, and then fix their attribute at their midpoint.
    If the tolerance leaves the box's lower corner above the simplex, or its
    upper corner below it, P is that corner moved onto the simplex.  Raises
    InfeasibleConstraints when P is empty: pins that disagree, bounds that
    cross by more (reported before a pin outside them), a pin outside the
    box, or, with no pin, bounds that leave no room for weights summing to 1.
    """
    attrs = instance.attribute_names
    lower, upper = [0.0] * len(attrs), [1.0] * len(attrs)
    pinned: Vector | None = None
    for con in instance.constraints:
        if isinstance(con, BoundConstraint):
            j = attrs.index(con.attribute)
            if con.op != "<=":
                lower[j] = max(lower[j], con.value)
            if con.op != ">=":
                upper[j] = min(upper[j], con.value)
            continue
        vec = _weight_row(attrs, instance.criterion_by_name(con.criterion))
        if pinned is None:
            pinned, pin = vec, con.criterion
        elif any(abs(v - p) > EPS_WEIGHT for v, p in zip(vec, pinned)):
            raise InfeasibleConstraints(
                f"pin constraints disagree: '{pin}' vs '{con.criterion}'")
    for j, (name, lo, hi) in enumerate(zip(attrs, lower, upper)):
        if lo - hi > 2 * EPS_WEIGHT:
            raise InfeasibleConstraints(f"no admissible weight for '{name}' in [{lo}, {hi}]")
        if pinned is None:
            if lo > hi:
                lower[j] = upper[j] = (lo + hi) / 2
        elif not lo - EPS_WEIGHT <= pinned[j] <= hi + EPS_WEIGHT:
            raise InfeasibleConstraints(
                f"pinned criterion '{pin}' puts weight {format_number(pinned[j])} on "
                f"'{name}', outside [{format_number(lo)}, {format_number(hi)}]")
    # Each weight may miss its bounds by EPS_WEIGHT, and their sum 1 by EPS_WEIGHT.
    if pinned is not None:
        lower = upper = pinned
    elif (sum(max(lo - EPS_WEIGHT, 0.0) for lo in lower) > 1.0 + EPS_WEIGHT
            or sum(upper) + len(upper) * EPS_WEIGHT < 1.0 - EPS_WEIGHT):
        raise InfeasibleConstraints(
            f"no admissible weight: the bounds allow weight sums in "
            f"[{format_number(sum(lower))}, {format_number(sum(upper))}], not 1")
    simplex = ((0.0,) * len(attrs), (1.0,) * len(attrs))
    if math.fsum(lower) > 1.0:
        lower = upper = _project(lower, *simplex)
    elif math.fsum(upper) < 1.0:
        lower = upper = _project(upper, *simplex)
    return AdmissibleSet(attrs, tuple(lower), tuple(upper))


def _project(v: Vector, lower: Vector, upper: Vector) -> Vector:
    """The point of {w : sum(w) = 1, lower <= w <= upper} nearest `v`, for
    math.fsum(lower) <= 1 <= math.fsum(upper): w_i = clip(v_i + t, lower_i,
    upper_i) summing to 1.  The sum bends in t where a weight meets a bound;
    past the last bend where it is at most 1, unless it is 1 there, the
    weights between their bounds rise together.  If `math.fsum(w)` is not
    1, the largest of them with room for the difference takes it.  A `v`
    in P, within its bounds and of `math.fsum` 1, is its own projection."""
    if math.fsum(v) == 1.0 and all(lo <= x <= hi for x, lo, hi in zip(v, lower, upper)):
        return tuple(v)
    low = [lo - x for x, lo in zip(v, lower)]
    high = [hi - x for x, hi in zip(v, upper)]
    t = min(low)
    for bend in sorted({*low, *high}):
        if math.fsum(min(max(x + bend, lo), hi) for x, lo, hi in zip(v, lower, upper)) > 1.0:
            break
        t = bend
    w = [min(max(x + t, lo), hi) for x, lo, hi in zip(v, lower, upper)]
    free = [i for i, (a, b) in enumerate(zip(low, high)) if a <= t < b]
    if free and math.fsum(w) != 1.0:
        rest = [x for i, x in enumerate(w) if i not in free]
        shift = math.fsum([1.0, *(-x for x in rest), *(-v[i] for i in free)]) / len(free)
        for i in free:
            w[i] = min(max(v[i] + shift, lower[i]), upper[i])
    if math.fsum(w) != 1.0:
        r = math.fsum([1.0, *(-x for x in w)])
        j = max(free or range(len(w)), key=lambda i: (lower[i] <= w[i] + r <= upper[i], w[i]))
        w[j] = math.fsum([1.0, *(-x for i, x in enumerate(w) if i != j)])
    return tuple(w)


def exact_thresholds(matrix: ScoreMatrix, lo: float = 0.0, hi: float = 1.0) -> list[float]:
    """Sorted alphas in (lo, hi) where two candidates' scores cross exactly.

    Alpha is the weight of the first of two attributes; the scores are
    linear in it, s(alpha) = m[c][1] + alpha * (m[c][0] - m[c][1]).
    """
    m = matrix.values
    tilt = [row[0] - row[1] for row in m]
    alphas = set()
    # (b, a) crosses where (a, b) does, with both signs of the quotient flipped.
    for a, b in itertools.combinations(range(len(m)), 2):
        slope = tilt[a] - tilt[b]
        if slope != 0.0:
            alpha = (m[b][1] - m[a][1]) / slope
            if lo < alpha < hi:
                alphas.add(alpha)
    return sorted(alphas)


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
    alphas = [lo if is_point else (lo + hi) / 2.0 for lo, hi, is_point in items]
    scores = _kernels.score_grid([(a, 1.0 - a) for a in alphas], matrix.values)
    winners = [_winners(matrix.candidates, row) for row in scores]
    regions = []
    for ws, run in itertools.groupby(zip(items, winners), key=lambda pair: pair[1]):
        run = [item for item, _ in run]
        (lo, _, lo_closed), (_, hi, hi_closed) = run[0], run[-1]
        regions.append((lo, lo_closed, hi, hi_closed, ws))
    return regions


def _decided(t: float, t_hi: float) -> bool:
    """Whether every t' in [t, t_hi] gives the same two winner tests."""
    return (t > EPS_SCORE) == (t_hi > EPS_SCORE) and (t >= -EPS_SCORE) == (t_hi >= -EPS_SCORE)


def winner_statistics(matrix: ScoreMatrix, adm: AdmissibleSet) -> WinnerStats:
    """Exact winner facts over the admissible polytope P.

    `beats_all` and `tie_all` read the minimum and maximum over P of each
    difference s_a - s_b (`_kernels.box_simplex_min`).  A candidate's
    margin t = max over P of min over rivals b of (s_a - s_b) decides the
    rest: `ever_unique` is t > EPS_SCORE and `in_winner_set` is
    t >= -EPS_SCORE.  A rival that some candidate beats everywhere never
    decides either test, so only the unbeaten rivals count.  The pairwise
    extremes bracket t: it lies between the least over those rivals of min
    over P of s_a - s_b and the least of its max over P, which is t itself
    when one rival is left.  Where the bracket straddles a threshold, the
    linear program gives t (`_kernels.max_min_margin`).
    """
    m = matrix.values
    lo = [_kernels.box_simplex_min([list(map(sub, m_a, m_b)) for m_b in m], adm.lower, adm.upper)
          for m_a in m]
    hi = [[-d for d in col] for col in zip(*lo)]  # hi[a][b] = -lo[b][a]
    beats_all = tuple(tuple(d > EPS_SCORE for d in row) for row in lo)
    tie_all = tuple(tuple(d >= -EPS_SCORE and h <= EPS_SCORE for d, h in zip(row, row_hi))
                    for row, row_hi in zip(lo, hi))
    unbeaten = [b for b, col in enumerate(zip(*beats_all)) if not any(col)]
    margin = []
    for a, (row, row_hi) in enumerate(zip(lo, hi)):
        rivals = [b for b in unbeaten if b != a]
        t = min((row_hi[b] for b in rivals), default=math.inf)
        if len(rivals) > 1 and not _decided(min(row[b] for b in rivals), t):
            t = _kernels.max_min_margin([list(map(sub, m[a], m[b])) for b in rivals],
                                        adm.lower, adm.upper)
        margin.append(t)
    return WinnerStats(matrix.candidates, tuple(t > EPS_SCORE for t in margin),
                       tuple(t >= -EPS_SCORE for t in margin), beats_all, tie_all)


# Maps a row of bools, as bytes, to its binary digits.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _closure_matrix(instance: Instance, stats: WinnerStats) -> BoolTable:
    """Transitive closure of explicit premises united with score unanimity.

    Each row is a bitset, bit j for candidate j, closed by Warshall's
    algorithm.  Raises ContradictoryPremises when the union contains a
    cycle (some premise orders a pair against a unanimous score ordering).
    """
    cands = instance.candidates
    index = {c: i for i, c in enumerate(cands)}
    n = len(cands)
    reach = [int(bytes(row[::-1]).translate(_BIT_DIGITS), 2) for row in stats.beats_all]
    for pref in instance.preferences:
        reach[index[pref.winner]] |= 1 << index[pref.loser]
    for k in range(n):
        bit, via = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= via
    # A cycle orders two distinct candidates both ways and puts each in its
    # own row; name the first such pair.
    for i in range(n):
        if not reach[i] >> i & 1:
            continue
        for j in range(n):
            if j != i and reach[i] >> j & 1 and reach[j] >> i & 1:
                raise ContradictoryPremises(
                    f"premises order '{cands[i]}' and '{cands[j]}' both ways "
                    "(explicit preference against a unanimous score ordering)")
    return tuple(tuple(map("1".__eq__, format(row, f"0{n}b")[::-1])) for row in reach)


def compatible_answers(instance: Instance, stats: WinnerStats,
                       closure: BoolTable) -> SemanticsResult:
    """Compatible answer set, underdetermination, entailed winner, closure.

    A candidate is compatible when it is the unique winner at some admissible
    weight vector; if no candidate ever wins uniquely the union of winner
    sets is used instead.  Candidates on the losing side of the preference
    `closure` (from `_closure_matrix`) are removed.  The entailed winner is
    the sole compatible answer.  That covers a candidate that beats every
    rival on all of P: it is the only one that ever wins uniquely, and a
    premise against it would close a cycle, which `_closure_matrix` rejects.

    Raises ContradictoryPremises when preference filtering empties the
    compatible set.
    """
    cands = instance.candidates
    n = len(cands)

    if any(stats.ever_unique):
        base = [i for i in range(n) if stats.ever_unique[i]]
    else:
        base = [i for i in range(n) if stats.in_winner_set[i]]

    dominated = [any(col) for col in zip(*closure)]

    compatible = [i for i in base if not dominated[i]]
    if not compatible:
        raise ContradictoryPremises(
            "preference premises exclude every achievable answer")

    entailed = cands[compatible[0]] if len(compatible) == 1 else None
    pairs = tuple((cands[i], cands[j])
                  for i, row in enumerate(closure) for j in itertools.compress(range(n), row))
    return SemanticsResult(
        compatible=tuple(cands[i] for i in compatible),
        underdetermined=len(compatible) > 1,
        entailed=entailed,
        preference_closure=pairs,
    )


class Analysis(Immutable, eq=False):
    """Everything the later layers read about one instance, computed once.

    `closure[i][j]` is true when the premises order candidate i above j
    (the table behind `semantics.preference_closure`).

    A criterion outside P decides nothing.  A declared criterion lies in P
    when its weights meet their bounds and sum to 1, each within EPS_WEIGHT.
    `criterion_winners` maps every declared criterion, in order, to the
    compatible answers within EPS_SCORE of the best compatible score under
    it, or to none if it lies outside P; `criterion_scores` maps each one in
    P to its score per candidate.  With a decision required and several
    answers compatible, `default` is the point of P nearest equal weights,
    named `uniform_default` (or `_2`, `_3`, ... past declared names), with
    every candidate's `default_scores`; `theta_winners` adds its winners to
    `criterion_winners`.  Without one they are None, () and the same map.
    """

    instance: Instance
    matrix: ScoreMatrix
    adm: AdmissibleSet
    stats: WinnerStats
    closure: BoolTable
    semantics: SemanticsResult
    criterion_scores: dict[str, Vector]
    criterion_winners: dict[str, tuple[str, ...]]
    default: CriterionSpec | None
    default_scores: Vector
    theta_winners: dict[str, tuple[str, ...]]

    @property
    def unique_winners(self) -> dict[str, str]:
        """Criterion name -> its sole winner, for the criteria that have one,
        in declaration order."""
        return {name: ws[0] for name, ws in self.criterion_winners.items()
                if len(ws) == 1}


def analyze(instance: Instance) -> Analysis:
    """Compute the semantics of a validated instance once.

    The criterion rows are scored in one `score_grid` call; each row is
    what scoring it alone gives, since every entry is accumulated on its
    own.  The default is equal weights projected onto P (`_project`).

    Raises InfeasibleConstraints and ContradictoryPremises.
    """
    adm = admissible_set(instance)
    matrix = normalize(instance)
    crits = instance.criteria
    weights = [_weight_row(matrix.attributes, c) for c in crits]
    scores = _kernels.score_grid(weights, matrix.values)
    stats = winner_statistics(matrix, adm)
    closure = _closure_matrix(instance, stats)
    semantics = compatible_answers(instance, stats, closure)
    keep = list(map(set(semantics.compatible).__contains__, matrix.candidates))

    def winners(row: Vector) -> tuple[str, ...]:
        return _winners(semantics.compatible, tuple(itertools.compress(row, keep)))

    inside = {c.name: row for c, w, row in zip(crits, weights, scores)
              if abs(math.fsum(w) - 1.0) <= EPS_WEIGHT
              and all(lo - EPS_WEIGHT <= x <= hi + EPS_WEIGHT
                      for lo, x, hi in zip(adm.lower, w, adm.upper))}
    criterion_winners = {c.name: winners(inside[c.name]) if c.name in inside else ()
                         for c in crits}
    theta_winners, default, default_scores = dict(criterion_winners), None, ()
    if instance.decisiveness_required and semantics.underdetermined:
        k = len(matrix.attributes)
        vector = _project((1.0 / k,) * k, adm.lower, adm.upper)
        names = [UNIFORM_DEFAULT, *(f"{UNIFORM_DEFAULT}_{i}" for i in range(2, len(crits) + 2))]
        name = next(name for name in names if name not in criterion_winners)
        default = CriterionSpec(name, tuple(zip(matrix.attributes, vector)))
        default_scores = _kernels.score_grid([vector], matrix.values)[0]
        theta_winners[name] = winners(default_scores)
    return Analysis(instance, matrix, adm, stats, closure, semantics, inside,
                    criterion_winners, default, default_scores, theta_winners)
