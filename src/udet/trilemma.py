"""The trilemma over the structured response space, and a seeded generator.

Lemma.  For any instance, when it is underdetermined no structured response
is at once strongly correct, strictly non-biased and decisive.

Proof.  Only `Decisive` is decisive, and `Decisive(a, theta)` is strongly
correct only when a is the entailed winner.  `compatible_answers` sets
`entailed` only when one answer is compatible, and then the instance is not
underdetermined.  So under underdetermination `entailed` is None and no
response is a counterexample.

The lemma speaks of this closed world, the five response forms and their
predicates, not of the paper's conjecture about language models.
`evaluate_space` gives the space as per-form key tables with one `Verdict`
per distinct key, and builds no other response object.  `check_trilemma`
reads its report off that table, testing the three predicates, `CORNERS`,
on the verdicts that `ResponseEvaluator` gives, so it computes, not assumes,
the counterexamples: one would mean the premise failed.  `policy.decide`
reads the table too, and names what its row gives up from `CORNERS`.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, combinations, compress, product
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import ResponseSpaceTooLarge
from .model import (
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
)
from .responses import (
    Clarify,
    Conditional,
    Decisive,
    Equivalence,
    Refuse,
    Response,
    ResponseEvaluator,
    Verdict,
)
from .semantics import EPS_SCORE, Analysis, Vector, normalize

if TYPE_CHECKING:
    import numpy as np

# 2**12 criterion subsets keeps the listing of `udet analyze` at desk scale.
MAX_ENUMERATED_CRITERIA = 12

REFUSE_REASON = "cannot determine the best candidate without a selection criterion"

# The trilemma's three predicates, by `Verdict` field, with their names in
# a rationale.
CORNERS = (("c_strong", "strong correctness"), ("nb_strict", "strict non-bias"),
           ("u_decisive", "decisiveness"))

# The trilemma's pairwise forms a & b -> !c, by `Verdict` field: c runs
# through `CORNERS` from its last, and a and b are the other two in order.
_PAIRWISE_FIELDS = tuple((*(a for a, _ in CORNERS if a != c), c)
                         for c, _ in CORNERS[-1:] + CORNERS[:-1])
PAIRWISE_FORMS = tuple(f"{a} & {b} -> !{c}" for a, b, c in _PAIRWISE_FIELDS)


class PairwiseCheck(Immutable):
    """One pairwise implication, asserted only under underdetermination.

    `witnesses` counts the responses satisfying the antecedent; `violations`
    are the witnesses whose verdict falsifies the consequent while the
    instance is underdetermined.
    """

    name: str
    witnesses: int
    violations: tuple[Response, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


class TrilemmaReport(Immutable):
    """Outcome of checking one instance's response space.

    `responses_evaluated` is the size of the response space, the default
    criterion's column included: the rows of the verdict table, of which
    only one per distinct verdict is evaluated.  The name stays because the
    JSON key and the text labels carry it.
    """

    instance_id: str
    underdetermined: bool
    responses_evaluated: int
    counterexamples: tuple[Response, ...]
    pairwise: tuple[PairwiseCheck, ...]
    conflict_free_witness: Response | None


def check_enumerable(instance: Instance) -> None:
    """Raise ResponseSpaceTooLarge if the space is too large to list."""
    if len(instance.criteria) > MAX_ENUMERATED_CRITERIA:
        raise ResponseSpaceTooLarge(
            f"{len(instance.criteria)} criteria declared; "
            f"enumeration is capped at {MAX_ENUMERATED_CRITERIA}")


def _subsets(items: tuple) -> Iterator[tuple]:
    """Nonempty subsets of `items` by size, then in `items` order."""
    return chain.from_iterable(combinations(items, size)
                               for size in range(1, len(items) + 1))


def _pairs(candidates: tuple[str, ...]) -> list[tuple[str, str]]:
    """Each unordered candidate pair, by `combinations`, its names sorted."""
    return [(a, b) if a < b else (b, a) for a, b in combinations(candidates, 2)]


# Verdict keys, one range per response form.  A response's verdict is a
# function of its key; see `evaluate_space`.
_CONDITIONAL_KEY = 16  # + whether its answers cover every unique winner
_COVERING_KEY = _CONDITIONAL_KEY + 1
_EQUIVALENCE_KEY = 18  # + 2 c_strong + c_cond
_CLARIFY_KEY = 22
_REFUSE_KEY = 23


def _decisive_keys(analysis: Analysis) -> list[int]:
    """The verdict key of each Decisive(a, theta), in enumeration order.

    Row a, column theta of an (n, 1 + len(theta_winners)) table, column 0
    the undisclosed criterion: 8 when a is entailed, + 4 when a wins theta
    alone (for the undisclosed criterion: some declared criterion), + 2
    when a is among theta's winners, + 1 when theta is undisclosed.
    """
    codes = [dict.fromkeys(winners, 6 if len(winners) == 1 else 2)
             for winners in analysis.theta_winners.values()]
    unique = set(analysis.unique_winners.values())
    entailed = analysis.semantics.entailed
    keys = []
    for cand in analysis.instance.candidates:
        base = 8 if cand == entailed else 0
        keys.append(base + (5 if cand in unique else 1))
        keys += [base + code.get(cand, 0) for code in codes]
    return keys


@functools.cache
def _subset_reader(g: int) -> Callable[[bytes], tuple[int, ...]]:
    """Reads a table indexed by subset bitmask, bit i for item i of g, in
    `_subsets` order, for g >= 1.  Its first pick, position 0, is a
    placeholder that makes the result a tuple even for g = 1."""
    return itemgetter(0, *map(sum, _subsets(tuple(1 << i for i in range(g)))))


# The key of a conditional whose criteria cover every unique winner (binary
# digit 0 of `missed`) or miss one (1).
_KEY_OF_DIGIT = bytes.maketrans(b"01", bytes((_COVERING_KEY, _CONDITIONAL_KEY)))


def _conditional_keys(decided: tuple[tuple[str, str], ...]) -> list[int]:
    """The verdict key of each Conditional, in `_subsets(decided)` order:
    whether its answers include every distinct unique winner.

    A subset misses winner w when it avoids every criterion that w wins.
    With bit i standing for decided[i], the bitmasks of the subsets that
    avoid them are built by doubling over the other criteria, each set as
    bit `mask` of one integer, and `missed` unites them over the winners.
    Its binary digits, read by mask, are the key table.
    """
    g = len(decided)
    if not g:
        return []
    missed = 0
    for winner in {w for _, w in decided}:
        avoiding = 1
        for i, (_, w) in enumerate(decided):
            if w != winner:
                avoiding |= avoiding << (1 << i)
        missed |= avoiding
    table = format(missed, f"0{1 << g}b")[::-1].encode().translate(_KEY_OF_DIGIT)
    return list(_subset_reader(g)(table)[1:])


def _tied_pairs(scores: Vector) -> Iterator[tuple[int, int]]:
    """The candidate pairs (a, b), a < b, whose scores lie within EPS_SCORE:
    each candidate against the ones that follow it in score order, until
    the gap exceeds EPS_SCORE."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if scores[b] - scores[a] > EPS_SCORE:
                break
            yield (a, b) if a < b else (b, a)


def _equivalence_keys(analysis: Analysis) -> list[int]:
    """The verdict key of each Equivalence(a, b), in enumeration order.

    A pair tied everywhere on P and left unordered by the closure is
    strongly correct; a pair tied under some criterion is conditionally
    correct.  `combinations` gives pair (a, b) the position
    a (2n - a - 1) / 2 + b - a - 1.
    """
    n, closure = len(analysis.instance.candidates), analysis.closure

    def position(a: int, b: int) -> int:
        return a * (2 * n - a - 1) // 2 + b - a - 1

    keys = [_EQUIVALENCE_KEY] * (n * (n - 1) // 2)
    for a, row in enumerate(analysis.stats.tie_all):
        for b in compress(range(a + 1, n), row[a + 1:]):
            if not (closure[a][b] or closure[b][a]):
                keys[position(a, b)] = _EQUIVALENCE_KEY + 3
    for scores in analysis.criterion_scores.values():
        for a, b in _tied_pairs(scores):
            at = position(a, b)
            keys[at] = max(keys[at], _EQUIVALENCE_KEY + 1)  # a strong pair has c_cond
    return keys


class VerdictTable(Immutable):
    """The response space of one instance as per-form key tables.

    Rows run in a fixed order: Decisive over `candidates` x `thetas`
    (undisclosed criterion first), Conditional over the nonempty subsets of
    `decided` (by size, then declaration order), Equivalence over `pairs`,
    then `clarify` and `refuse`; `decisive` and `equivalence` hold the keys
    of those forms' rows, and the conditionals' keys are computed when
    their rows are read.  A row's integer key determines its verdict, and
    `verdicts` maps each key that occurs to its `Verdict`.
    """

    candidates: tuple[str, ...]
    thetas: tuple[str | None, ...]
    decisive: list[int]
    decided: tuple[tuple[str, str], ...]
    pairs: list[tuple[str, str]]
    equivalence: list[int]
    clarify: Clarify
    refuse: Refuse
    verdicts: dict[int, Verdict]

    def decisive_rows(self) -> Iterator[tuple[tuple[str, str | None], int]]:
        """((candidate, theta), key) per Decisive."""
        return zip(product(self.candidates, self.thetas), self.decisive)

    def conditional_rows(self, items: Iterable) -> Iterator[tuple[tuple, int]]:
        """(subset of `items`, key) per Conditional, where `items` stands
        for `decided` one for one, e.g. a rendering of each branch."""
        return zip(_subsets(tuple(items)), _conditional_keys(self.decided))

    def equivalence_rows(self) -> Iterator[tuple[tuple[str, str], int]]:
        """((a, b), key) per Equivalence, a < b."""
        return zip(self.pairs, self.equivalence)

    def closing_rows(self) -> tuple[tuple[Clarify, int], tuple[Refuse, int]]:
        """(response, key) for the Clarify and the Refuse."""
        return ((self.clarify, _CLARIFY_KEY), (self.refuse, _REFUSE_KEY))

    def rows_in(self, keys: set[int]) -> Iterator[tuple[Response, int]]:
        """(response, key) for each row whose key is in `keys`, in row order,
        reading of the conditionals only the one over every decided
        criterion: it covers every unique winner, so none ranks above it."""
        conditional = [(self.decided, _COVERING_KEY)] if self.decided else []
        return chain(((Decisive(*row), key) for row, key in self.decisive_rows() if key in keys),
                     ((Conditional(b), key) for b, key in conditional if key in keys),
                     ((Equivalence(p), key) for p, key in self.equivalence_rows() if key in keys),
                     ((r, key) for r, key in self.closing_rows() if key in keys))


def evaluate_space(analysis: Analysis) -> VerdictTable:
    """The response space as key tables, each distinct key's verdict taken
    from `ResponseEvaluator.evaluate` on one response that has the key.
    So `evaluate` runs on at most 24 responses, the Clarify and the Refuse
    among them, however large the space.  It lists no conditional, so any
    number of criteria is served; `udet analyze` lists them.

    - Decisive(a, theta): its verdict reads only whether a is entailed,
      whether a wins theta alone, whether a is among theta's winners and
      whether theta is undisclosed (`_decisive_keys`).
    - Conditional: each names only criteria with a unique winner and
      answers each with that winner, so every branch holds by construction:
      strongly correct, transparent, not decisive.  It is strictly
      non-biased exactly when its answers cover every distinct unique
      winner (`_conditional_keys`).  The first subset, one criterion, covers
      only when every decided criterion has the same winner, and the last,
      all of them, always covers, so the two represent every key.
    - Equivalence(a, b): its verdict reads only c_strong and c_cond
      (`_equivalence_keys`).
    """
    instance = analysis.instance
    thetas, decided = (None, *analysis.theta_winners), tuple(analysis.unique_winners.items())
    pairs = _pairs(instance.candidates)
    decisive, equivalence = _decisive_keys(analysis), _equivalence_keys(analysis)
    # The clarification names each attribute's missing weight.
    clarify = Clarify(tuple(f"weight for {a}" for a in instance.attribute_names))
    refuse = Refuse(REFUSE_REASON)
    examples: dict[int, Response] = {
        key: Decisive(*row)
        for key, row in dict(zip(decisive, product(instance.candidates, thetas))).items()}
    if decided:
        one_winner = len({winner for _, winner in decided}) == 1
        examples[_CONDITIONAL_KEY + one_winner] = Conditional(decided[:1])
        examples[_COVERING_KEY] = Conditional(decided)
    examples.update((key, Equivalence(pair))
                    for key, pair in dict(zip(equivalence, pairs)).items())
    examples[_CLARIFY_KEY], examples[_REFUSE_KEY] = clarify, refuse
    evaluator = ResponseEvaluator(analysis)
    return VerdictTable(
        candidates=instance.candidates, thetas=thetas, decisive=decisive,
        decided=decided, pairs=pairs, equivalence=equivalence,
        clarify=clarify, refuse=refuse,
        verdicts={key: evaluator.evaluate(r) for key, r in examples.items()})


def check_trilemma(analysis: Analysis, table: VerdictTable | None = None) -> TrilemmaReport:
    """The trilemma report of `table`, the analysis's verdict table, built
    if not given.

    Each row counts once under its key.  The conditionals are counted, not
    listed: prod_w (2^g_w - 1) of the 2^g - 1 cover every unique winner,
    g_w the decided criteria that w wins, so the count of criteria is not
    capped.  A pairwise form's witnesses are the rows whose verdict meets
    its antecedent.  The rows whose verdict meets all three predicates, as
    `rows_in` lists them, are the counterexamples and every form's
    violations under underdetermination, and the first of them is the
    conflict-free witness otherwise.
    """
    table = evaluate_space(analysis) if table is None else table
    under = analysis.semantics.underdetermined
    counts = Counter(chain(table.decisive, table.equivalence, (_CLARIFY_KEY, _REFUSE_KEY)))
    if table.decided:
        won = Counter(winner for _, winner in table.decided).values()
        counts[_COVERING_KEY] = math.prod(2 ** g_w - 1 for g_w in won)
        counts[_CONDITIONAL_KEY] = 2 ** len(table.decided) - 1 - counts[_COVERING_KEY]
    conflict_free = tuple(response for response, _ in table.rows_in(
        {key for key, v in table.verdicts.items()
         if all(getattr(v, field) for field, _ in CORNERS)}))
    violations = conflict_free if under else ()
    return TrilemmaReport(
        instance_id=analysis.instance.id,
        underdetermined=under,
        responses_evaluated=sum(counts.values()),
        counterexamples=violations,
        pairwise=tuple(
            PairwiseCheck(name, sum(counts[key] for key, v in table.verdicts.items()
                                    if getattr(v, a) and getattr(v, b)), violations)
            for name, (a, b, _) in zip(PAIRWISE_FORMS, _PAIRWISE_FIELDS)),
        conflict_free_witness=None if under else next(iter(conflict_free), None),
    )


class GeneratorConfig(Immutable):
    """Shape of randomly generated instances.

    Ranges are inclusive.  Pin and bound constraints are mutually exclusive
    per instance, at most one bound is emitted, and a single attribute only
    ever gets a lower bound, which keeps every generated constraint set
    feasible by construction.  With
    `preference_probability` an explicit preference premise is added from a
    strictly dominating candidate to a dominated one, which can never
    contradict the score orderings.

    `generate_instance` draws every choice from numpy's PCG64 stream,
    seeded by `seed` and the instance index, so a seed names the same
    instances on every run.  It imports numpy on its first call, so that
    `import udet` does not.
    """

    seed: int = 0
    candidate_range: tuple[int, int] = (2, 4)
    attribute_range: tuple[int, int] = (2, 4)
    criteria_range: tuple[int, int] = (0, 3)
    pin_probability: float = 0.15
    bound_probability: float = 0.2
    decision_probability: float = 0.2
    preference_probability: float = 0.15

    def check(self) -> None:
        for label, (lo, hi), floor in (
                ("candidate_range", self.candidate_range, 2),
                ("attribute_range", self.attribute_range, 1),
                ("criteria_range", self.criteria_range, 0)):
            if lo > hi or lo < floor:
                raise ValueError(f"{label} must be a nonempty range with low >= {floor}")
        for label, p in (("pin_probability", self.pin_probability),
                         ("bound_probability", self.bound_probability),
                         ("decision_probability", self.decision_probability),
                         ("preference_probability", self.preference_probability)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{label} must be in [0, 1]")


_SEED_MASK = (1 << 64) - 1

# Raw numeric facts are tenths in [0, 10]; criterion weights are twentieths.
_VALUE_STEPS = 100
_WEIGHT_STEPS = 20


def generate_instance(config: GeneratorConfig, index: int) -> Instance:
    """Deterministically generate the `index`-th instance for `config.seed`.

    Numeric fact values are drawn uniformly from {0.0, 0.1, ..., 10.0};
    criterion weights are multiples of 1/20 summing to 1; ordinal attributes
    get their own 3-5 level scale.  Generated instances always validate.
    """
    config.check()
    if index < 0:
        raise ValueError("index must be non-negative")
    import numpy as np

    seed = config.seed & _SEED_MASK
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(index,)))

    n_cand = int(rng.integers(config.candidate_range[0], config.candidate_range[1] + 1))
    n_attr = int(rng.integers(config.attribute_range[0], config.attribute_range[1] + 1))
    n_crit = int(rng.integers(config.criteria_range[0], config.criteria_range[1] + 1))

    candidates = tuple(f"c{i + 1}" for i in range(n_cand))
    scales: list[OrdinalScale] = []
    attributes: list[AttributeSchema] = []
    for j in range(n_attr):
        name = f"a{j + 1}"
        direction = HIGHER_BETTER if rng.random() < 0.75 else LOWER_BETTER
        if rng.random() < 0.7:
            attributes.append(AttributeSchema(name, NUMERIC, direction))
        else:
            n_levels = int(rng.integers(3, 6))
            scale = OrdinalScale(f"scale_{name}",
                                 tuple(f"lv{r}" for r in range(n_levels)))
            scales.append(scale)
            attributes.append(AttributeSchema(name, ORDINAL, direction, scale.name))

    facts: list[Fact] = []
    for cand in candidates:
        for attr in attributes:
            if attr.kind == NUMERIC:
                value: float | str = float(rng.integers(0, _VALUE_STEPS + 1)) / 10.0
            else:
                scale = next(s for s in scales if s.name == attr.scale)
                value = scale.levels[int(rng.integers(0, len(scale.levels)))]
            facts.append(Fact(cand, attr.name, value))

    attr_names = tuple(a.name for a in attributes)
    criteria: list[CriterionSpec] = []
    for i in range(n_crit):
        parts = rng.multinomial(_WEIGHT_STEPS, [1.0 / n_attr] * n_attr)
        weights = tuple((a, float(p) / _WEIGHT_STEPS)
                        for a, p in zip(attr_names, parts))
        criteria.append(CriterionSpec(f"crit{i + 1}", weights))

    constraints: list[PinConstraint | BoundConstraint] = []
    if criteria and rng.random() < config.pin_probability:
        constraints.append(
            PinConstraint(criteria[int(rng.integers(0, len(criteria)))].name))
    elif rng.random() < config.bound_probability:
        attr = attr_names[int(rng.integers(0, n_attr))]
        # A lone attribute weighs 1, so only a lower bound keeps it admissible.
        op = "<=" if rng.random() < 0.5 and n_attr > 1 else ">="
        value = float(rng.integers(0, 11)) / 10.0
        constraints.append(BoundConstraint(attr, op, value))

    instance = Instance(
        id=f"gen_{seed}_{index}",
        question="Which candidate should be selected?",
        candidates=candidates,
        scales=tuple(scales),
        attributes=tuple(attributes),
        facts=tuple(facts),
        criteria=tuple(criteria),
        constraints=tuple(constraints),
        preferences=(),
        decisiveness_required=bool(rng.random() < config.decision_probability),
    )

    if rng.random() < config.preference_probability:
        pair = _dominating_pair(instance, rng)
        if pair is not None:
            instance = instance.replace(preferences=(PreferencePremise(*pair),))
    return instance


def _dominating_pair(instance: Instance,
                     rng: np.random.Generator) -> tuple[str, str] | None:
    """Pick (winner, loser) where the winner strictly dominates on normalized
    scores; such a premise can never conflict with score unanimity."""
    values = normalize(instance).values
    cands = instance.candidates
    pairs: list[tuple[str, str]] = []
    for i, row_i in enumerate(values):
        for j, row_j in enumerate(values):
            if i == j:
                continue
            if (all(x >= y for x, y in zip(row_i, row_j))
                    and any(x > y for x, y in zip(row_i, row_j))):
                pairs.append((cands[i], cands[j]))
    if not pairs:
        return None
    return pairs[int(rng.integers(0, len(pairs)))]
