"""The response policy: `decide` returns the best row of the verdict table.

The table (`trilemma.evaluate_space`, each verdict from
`ResponseEvaluator.evaluate`) is the only rule set.  The candidate rows are
every row, or the decisive ones when a decision is required.  They rank by
(c_strong, nb_strict, c_cond, nb_transparent, u_assistive), highest first;
ties go to the row that names the pinned criterion, then to the one that
names the default criterion, then to the first in table order.  Of the
conditionals only the one over every decided criterion competes, since none
ranks above it.  The row names the branch: a Decisive of the entailed answer
`direct`, another Decisive `recommend_with_assumptions`, and any other row
its `form`, `conditional` or `clarify`.  A criterion outside the admissible
weights P decides nothing (`semantics.analyze`), so no row it names ranks
first on its account.  The rationale reads the trilemma's predicates from
`trilemma.CORNERS` and the leaders under the default from
`semantics._winners`.
"""

from __future__ import annotations

from .model import Immutable, format_number
from .responses import Clarify, Conditional, Response
from .semantics import Analysis, _winners
from .trilemma import CORNERS, VerdictTable, evaluate_space

DIRECT = "direct"
CLARIFY = Clarify.form
CONDITIONAL = Conditional.form
RECOMMEND = "recommend_with_assumptions"

# What each branch does, and why.
_LEADS = {
    DIRECT: "the premises determine '{answer}', so answer directly",
    RECOMMEND: "a decision is required, so recommend '{answer}' under '{theta}'",
    CONDITIONAL: "several criteria are plausible, so answer conditionally per declared "
                 "criterion that has a unique winner",
    CLARIFY: "no declared criterion yields a unique winner, so ask which attribute "
             "weighting applies",
}


class PolicyDecision(Immutable):
    """Which branch fired, the response, and why."""

    branch: str
    response: Response
    rationale: str


def decide(analysis: Analysis, table: VerdictTable | None = None) -> PolicyDecision:
    """The best row of `table`, the analysis's verdict table, built if not
    given.  The rationale names what the row gives up of the trilemma, a
    tie at its criterion, the default's weights and an excluded leader."""
    table = evaluate_space(analysis) if table is None else table
    instance, compat = analysis.instance, analysis.semantics.compatible
    ranks = {key: (v.c_strong, v.nb_strict, v.c_cond, v.nb_transparent, v.u_assistive)
             for key, v in table.verdicts.items()
             if v.u_decisive or not instance.decisiveness_required}
    best = max(ranks.values())
    default = analysis.default.name if analysis.default else None
    preferred = {theta: i for i, theta in enumerate((instance.pinned_criterion(), default))
                 if theta is not None}
    response, key = min(table.rows_in({key for key, rank in ranks.items() if rank == best}),
                        key=lambda row: preferred.get(getattr(row[0], "declared_theta", None), 2))
    verdict = table.verdicts[key]
    theta = getattr(response, "declared_theta", None)

    branch = (DIRECT if verdict.c_strong else RECOMMEND) if verdict.u_decisive else response.form
    flag = "yes" if instance.decisiveness_required else "no"
    notes = [f"compatible answers: {len(compat)} ({', '.join(compat)}); "
             f"declared criteria: {len(instance.criteria)}; decision required: {flag}",
             _LEADS[branch].format(answer=getattr(response, "candidate", None), theta=theta)]
    if theta is not None and theta == default:
        weights = ", ".join(f"{a}: {format_number(w)}" for a, w in analysis.default.weights)
        notes.append(f"'{theta}' is the admissible weighting nearest equal weights ({weights})")
        excluded = [c for c in _winners(instance.candidates, analysis.default_scores)
                    if c not in compat]
        if excluded:
            notes.append(f"there the top score goes to {', '.join(excluded)}, "
                         "which the premises exclude")
    winners = analysis.theta_winners.get(theta, ())
    if len(winners) > 1:
        notes.append(f"'{theta}' ties {', '.join(winners)}, broken in candidate order "
                     f"to '{winners[0]}'")
    outside = [name for name in analysis.criterion_winners
               if name not in analysis.criterion_scores]
    if outside:
        notes.append(f"criteria outside the admissible weights decide nothing: "
                     f"{', '.join(outside)}")
    lost = " and ".join(label for field, label in CORNERS if not getattr(verdict, field))
    notes.append(f"this gives up {lost or 'no trilemma predicate'}")
    return PolicyDecision(branch, response, "; ".join(notes))
