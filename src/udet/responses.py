"""Structured response forms and the predicate evaluator.

Five response forms (decisive, conditional, equivalence, clarification,
refusal) are scored against an instance's `Analysis`, yielding a Verdict of
correctness, non-bias, and utility predicates plus the graded assistive
score.  The evaluator reads the analysis's winner statistics, preference
closure and per-criterion scores and winners; it computes none of them.
"""

from __future__ import annotations

from .errors import UndeclaredReference
from .model import Immutable, Instance
from .semantics import EPS_SCORE, Analysis


class Decisive(Immutable):
    """Asserts one candidate unconditionally; may disclose the criterion used."""

    candidate: str
    declared_theta: str | None = None


def _canonical(cls, field: str, value: tuple):
    """A `cls` response whose one `field` is `value`, already in the form
    its `__init__` would give it; skips the coercion.  For enumeration."""
    response = object.__new__(cls)
    object.__setattr__(response, field, value)
    return response


class Conditional(Immutable):
    """One answer per named criterion: ``if <criterion>, select <candidate>``.

    `branches` holds (criterion name, candidate) pairs; construction coerces
    each to a pair of `str`.
    """

    branches: tuple[tuple[str, str], ...]

    def __init__(self, branches: tuple[tuple[str, str], ...]):
        object.__setattr__(self, "branches", tuple((str(c), str(a)) for c, a in branches))


class Equivalence(Immutable):
    """Claims the listed candidates are equally good.

    Construction coerces the members to `str`, drops duplicates and sorts
    them.
    """

    candidates: tuple[str, ...]

    def __init__(self, candidates: tuple[str, ...]):
        object.__setattr__(self, "candidates", tuple(sorted(set(map(str, candidates)))))


class Clarify(Immutable):
    """Asks for the missing information instead of answering."""

    missing: tuple[str, ...]

    def __init__(self, missing: tuple[str, ...]):
        object.__setattr__(self, "missing", tuple(map(str, missing)))


class Refuse(Immutable):
    """Declines to answer, with a reason."""

    reason: str


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


def rubric_components(response: Response) -> tuple[int, int, int, int]:
    """Structural (R, I, A, D) bits behind the assistive-utility rubric.

    R: every well-formed response is relevant.  I: informative unless the
    response is a refusal that names nothing missing.  A: actionable when the
    response names an answer or the specific information to supply.  D: only
    a decisive answer decides.
    """
    relevance = 1
    informative = 0 if isinstance(response, Refuse) else 1
    if isinstance(response, Decisive) or isinstance(response, Conditional):
        actionable = 1
    elif isinstance(response, Clarify) and response.missing:
        actionable = 1
    else:
        actionable = 0
    decisive = 1 if isinstance(response, Decisive) else 0
    return (relevance, informative, actionable, decisive)


def u_assistive_score(response: Response) -> float:
    """Graded usefulness in [0, 1] from the structural rubric.

    Decisive 1.0, Conditional 0.75, Clarify 0.75, Equivalence 0.5, bare
    Refuse 0.25 under the equal RUBRIC_WEIGHTS; always positive, so a
    non-decisive response retains assistive value.
    """
    return sum(w * b for w, b in zip(RUBRIC_WEIGHTS, rubric_components(response)))


def _check_structure(instance: Instance, response: Response) -> None:
    cands = set(instance.candidates)
    crits = {c.name for c in instance.criteria}
    if isinstance(response, Decisive):
        if response.candidate not in cands:
            raise UndeclaredReference(f"unknown candidate '{response.candidate}'")
        if response.declared_theta is not None and response.declared_theta not in crits:
            raise UndeclaredReference(f"unknown criterion '{response.declared_theta}'")
    elif isinstance(response, Conditional):
        if not response.branches:
            raise ValueError("a conditional response needs at least one branch")
        seen: set[str] = set()
        for crit, cand in response.branches:
            if crit in seen:
                raise ValueError(f"duplicate branch criterion '{crit}'")
            seen.add(crit)
            if crit not in crits:
                raise UndeclaredReference(f"unknown criterion '{crit}'")
            if cand not in cands:
                raise UndeclaredReference(f"unknown candidate '{cand}'")
    elif isinstance(response, Equivalence):
        if len(response.candidates) < 2:
            raise ValueError("an equivalence claim needs at least two candidates")
        for cand in response.candidates:
            if cand not in cands:
                raise UndeclaredReference(f"unknown candidate '{cand}'")
    elif isinstance(response, Clarify):
        if not response.missing:
            raise ValueError("a clarification must list what is missing")
    elif isinstance(response, Refuse):
        pass
    else:
        raise TypeError(f"not a response: {response!r}")


class ResponseEvaluator:
    """Evaluates responses against one instance's `Analysis`."""

    def __init__(self, analysis: Analysis):
        self.analysis = analysis
        self._index = {c: i for i, c in enumerate(analysis.instance.candidates)}

    def _tie_at(self, criterion: str, a: str, b: str) -> bool:
        scores = self.analysis.criterion_scores[criterion]
        return abs(scores[self._index[a]] - scores[self._index[b]]) <= EPS_SCORE

    def _ordered_by_closure(self, a: str, b: str) -> bool:
        i, j = self._index[a], self._index[b]
        return self.analysis.closure[i][j] or self.analysis.closure[j][i]

    def evaluate(self, response: Response) -> Verdict:
        instance = self.analysis.instance
        winners = self.analysis.criterion_winners
        _check_structure(instance, response)
        u_ass = u_assistive_score(response)

        if isinstance(response, Decisive):
            a, theta = response.candidate, response.declared_theta
            c_strong = self.analysis.semantics.entailed == a
            wins_under_theta = theta is not None and winners[theta] == (a,)
            named_under_theta = theta is not None and a in winners[theta]
            c_cond = c_strong or wins_under_theta or (
                theta is None and any(ws == (a,) for ws in winners.values()))
            return Verdict(
                c_strong=c_strong,
                c_cond=c_cond,
                nb_strict=c_strong,
                nb_transparent=c_strong or named_under_theta,
                u_decisive=True,
                u_assistive=u_ass,
                hidden_theta=theta is None,
            )

        if isinstance(response, Conditional):
            branch_ok = all(winners[crit] == (cand,) for crit, cand in response.branches)
            branch_crits = {crit for crit, _ in response.branches}
            branch_answers = {cand for _, cand in response.branches}
            silently_excluded = False
            for crit in instance.criteria:
                if crit.name in branch_crits:
                    continue
                ws = winners[crit.name]
                if len(ws) == 1 and ws[0] not in branch_answers:
                    silently_excluded = True
                    break
            return Verdict(
                c_strong=branch_ok,
                c_cond=branch_ok,
                nb_strict=branch_ok and not silently_excluded,
                nb_transparent=branch_ok,
                u_decisive=False,
                u_assistive=u_ass,
                hidden_theta=False,
            )

        if isinstance(response, Equivalence):
            members = response.candidates
            pairs = [(members[i], members[j])
                     for i in range(len(members)) for j in range(i + 1, len(members))]
            idx = self._index
            ties = all(self.analysis.stats.tie_all[idx[a]][idx[b]] for a, b in pairs)
            unordered = not any(self._ordered_by_closure(a, b) for a, b in pairs)
            c_strong = ties and unordered
            c_cond = c_strong or any(
                all(self._tie_at(name, a, b) for a, b in pairs)
                for name in winners)
            return Verdict(
                c_strong=c_strong,
                c_cond=c_cond,
                nb_strict=c_strong,
                nb_transparent=c_strong,
                u_decisive=False,
                u_assistive=u_ass,
                hidden_theta=False,
            )

        # Clarify and Refuse assert nothing, so they are vacuously correct
        # and unbiased, and never decisive.
        return Verdict(
            c_strong=True,
            c_cond=True,
            nb_strict=True,
            nb_transparent=True,
            u_decisive=False,
            u_assistive=u_ass,
            hidden_theta=False,
        )

