"""Structured response forms and the predicate evaluator.

Five response forms (decisive, conditional, equivalence, clarification,
refusal) are scored against an instance's `Analysis`, yielding a Verdict of
correctness, non-bias, and utility predicates plus the graded assistive
score.  Each form's rules live in its own class: its `form` name in a
report, its `rubric` bits, its `check_structure` against the instance's
names and its `verdict`.  `ResponseEvaluator` holds what they read: the
analysis's winner statistics, preference closure and per-criterion scores
and winners, none of which it computes.
"""

from __future__ import annotations

from itertools import combinations

from .errors import UndeclaredReference
from .model import Immutable
from .semantics import EPS_SCORE, Analysis


class _Form(Immutable):
    """Base of the response forms.

    Each form sets `form`, its name in a report, and `rubric`, its
    (relevance, informativeness, actionability, decisiveness) bits behind
    the assistive-utility rubric: every well-formed response is relevant,
    and only a decisive answer decides.  Its `check_structure` raises on a
    malformed response or an undeclared name, and its `verdict` scores it;
    both read the instance through a `ResponseEvaluator`.  The two methods
    here serve a form that asserts nothing.
    """

    def check_structure(self, evaluator: ResponseEvaluator) -> None:
        """Raise ValueError or UndeclaredReference; a refusal has nothing to check."""

    def verdict(self, evaluator: ResponseEvaluator) -> Verdict:
        """Asserting nothing is vacuously correct and unbiased, never decisive."""
        return Verdict(
            c_strong=True,
            c_cond=True,
            nb_strict=True,
            nb_transparent=True,
            u_decisive=False,
            u_assistive=u_assistive_score(self),
            hidden_theta=False,
        )


class Decisive(_Form):
    """Asserts one candidate unconditionally; may disclose the criterion used."""

    candidate: str
    declared_theta: str | None = None
    form = "decisive"
    rubric = (1, 1, 1, 1)

    def check_structure(self, evaluator: ResponseEvaluator) -> None:
        if self.candidate not in evaluator.index:
            raise UndeclaredReference(f"unknown candidate '{self.candidate}'")
        if self.declared_theta not in (None, *evaluator.analysis.theta_winners):
            raise UndeclaredReference(f"unknown criterion '{self.declared_theta}'")

    def verdict(self, evaluator: ResponseEvaluator) -> Verdict:
        a, theta = self.candidate, self.declared_theta
        analysis = evaluator.analysis
        winners = analysis.theta_winners
        c_strong = analysis.semantics.entailed == a
        wins_under_theta = theta is not None and winners[theta] == (a,)
        named_under_theta = theta is not None and a in winners[theta]
        c_cond = c_strong or wins_under_theta or (
            theta is None and any(ws == (a,) for ws in analysis.criterion_winners.values()))
        return Verdict(
            c_strong=c_strong,
            c_cond=c_cond,
            nb_strict=c_strong,
            nb_transparent=c_strong or named_under_theta,
            u_decisive=True,
            u_assistive=u_assistive_score(self),
            hidden_theta=theta is None,
        )


class Conditional(_Form):
    """One answer per named criterion: ``if <criterion>, select <candidate>``.

    `branches` holds (criterion name, candidate) pairs; construction coerces
    each to a pair of `str`.
    """

    branches: tuple[tuple[str, str], ...]
    form = "conditional"
    rubric = (1, 1, 1, 0)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "branches", tuple((str(c), str(a)) for c, a in self.branches))

    def check_structure(self, evaluator: ResponseEvaluator) -> None:
        if not self.branches:
            raise ValueError("a conditional response needs at least one branch")
        seen: set[str] = set()
        for crit, cand in self.branches:
            if crit in seen:
                raise ValueError(f"duplicate branch criterion '{crit}'")
            seen.add(crit)
            if crit not in evaluator.analysis.criterion_winners:
                raise UndeclaredReference(f"unknown criterion '{crit}'")
            if cand not in evaluator.index:
                raise UndeclaredReference(f"unknown candidate '{cand}'")

    def verdict(self, evaluator: ResponseEvaluator) -> Verdict:
        winners = evaluator.analysis.criterion_winners
        branch_ok = all(winners[crit] == (cand,) for crit, cand in self.branches)
        branch_crits = {crit for crit, _ in self.branches}
        branch_answers = {cand for _, cand in self.branches}
        silently_excluded = any(len(ws) == 1 and ws[0] not in branch_answers
                                for crit, ws in winners.items() if crit not in branch_crits)
        return Verdict(
            c_strong=branch_ok,
            c_cond=branch_ok,
            nb_strict=branch_ok and not silently_excluded,
            nb_transparent=branch_ok,
            u_decisive=False,
            u_assistive=u_assistive_score(self),
            hidden_theta=False,
        )


class Equivalence(_Form):
    """Claims the listed candidates are equally good.

    Construction coerces the members to `str`, drops duplicates and sorts
    them.
    """

    candidates: tuple[str, ...]
    form = "equivalence"
    rubric = (1, 1, 0, 0)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "candidates", tuple(sorted(set(map(str, self.candidates)))))

    def check_structure(self, evaluator: ResponseEvaluator) -> None:
        if len(self.candidates) < 2:
            raise ValueError("an equivalence claim needs at least two candidates")
        for cand in self.candidates:
            if cand not in evaluator.index:
                raise UndeclaredReference(f"unknown candidate '{cand}'")

    def verdict(self, evaluator: ResponseEvaluator) -> Verdict:
        analysis = evaluator.analysis
        pairs = list(combinations([evaluator.index[c] for c in self.candidates], 2))
        ties = all(analysis.stats.tie_all[i][j] for i, j in pairs)
        unordered = not any(analysis.closure[i][j] or analysis.closure[j][i] for i, j in pairs)
        c_strong = ties and unordered
        c_cond = c_strong or any(
            all(abs(scores[i] - scores[j]) <= EPS_SCORE for i, j in pairs)
            for scores in analysis.criterion_scores.values())
        return Verdict(
            c_strong=c_strong,
            c_cond=c_cond,
            nb_strict=c_strong,
            nb_transparent=c_strong,
            u_decisive=False,
            u_assistive=u_assistive_score(self),
            hidden_theta=False,
        )


class Clarify(_Form):
    """Asks for the missing information instead of answering; actionable
    when it names what is missing."""

    missing: tuple[str, ...]
    form = "clarify"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "missing", tuple(map(str, self.missing)))

    @property
    def rubric(self) -> tuple[int, int, int, int]:
        return (1, 1, 1 if self.missing else 0, 0)

    def check_structure(self, evaluator: ResponseEvaluator) -> None:
        if not self.missing:
            raise ValueError("a clarification must list what is missing")


class Refuse(_Form):
    """Declines to answer, with a reason; not informative."""

    reason: str
    form = "refuse"
    rubric = (1, 0, 0, 0)


Response = Decisive | Conditional | Equivalence | Clarify | Refuse


class Verdict(Immutable):
    """Predicate outcomes for one response on one instance.

    Internal invariants: c_strong implies c_cond, nb_strict implies
    nb_transparent, and u_decisive forces u_assistive == 1.0.
    """

    c_strong: bool
    c_cond: bool
    nb_strict: bool
    nb_transparent: bool
    u_decisive: bool
    u_assistive: float
    hidden_theta: bool


# Rubric weights for (relevance, informativeness, actionability, decisiveness).
RUBRIC_WEIGHTS = (0.25, 0.25, 0.25, 0.25)


def u_assistive_score(response: Response) -> float:
    """Graded usefulness in [0, 1] from the form's structural `rubric` bits.

    Decisive 1.0, Conditional 0.75, Clarify 0.75, Equivalence 0.5, bare
    Refuse 0.25 under the equal RUBRIC_WEIGHTS; always positive, so a
    non-decisive response retains assistive value.
    """
    return sum(w * b for w, b in zip(RUBRIC_WEIGHTS, response.rubric))


class ResponseEvaluator:
    """Evaluates responses against one instance's `Analysis`; the candidate
    index that each form's `check_structure` and `verdict` read is built
    once."""

    def __init__(self, analysis: Analysis):
        self.analysis = analysis
        self.index = {c: i for i, c in enumerate(analysis.instance.candidates)}

    def evaluate(self, response: Response) -> Verdict:
        if not isinstance(response, _Form):
            raise TypeError(f"not a response: {response!r}")
        response.check_structure(self)
        return response.verdict(self)
