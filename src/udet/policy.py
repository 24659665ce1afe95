"""Four-branch response policy: answer, clarify, condition, or recommend.

Branch order: a determined instance is answered directly; if a decision is
required despite underdetermination, recommend under a disclosed uniform
default criterion; with no declared criteria ask for clarification;
otherwise give one conditional answer per declared criterion.
"""

from __future__ import annotations

from .model import EPS_WEIGHT, CriterionSpec, Immutable, Instance
from .responses import Conditional, Decisive, Response
from .semantics import Analysis, winners_at
from .trilemma import clarify_for

DIRECT = "direct"
CLARIFY = "clarify"
CONDITIONAL = "conditional"
RECOMMEND = "recommend_with_assumptions"

UNIFORM_DEFAULT = "uniform_default"


class PolicyDecision(Immutable):
    """Which branch fired, the response, and why."""

    branch: str
    response: Response
    rationale: str


def uniform_criterion(instance: Instance, name: str = UNIFORM_DEFAULT) -> CriterionSpec:
    """Equal weight on every attribute; the only symmetry-respecting default."""
    k = len(instance.attributes)
    return CriterionSpec(name, tuple((a, 1.0 / k) for a in instance.attribute_names))


def with_default_criterion(instance: Instance) -> tuple[Instance, str]:
    """Instance with the uniform default registered as a criterion.

    Reuses an existing criterion whose weights are already uniform; otherwise
    appends one under the first free ``uniform_default``-based name.  Needed
    to evaluate a recommend_with_assumptions response, whose declared
    criterion must exist on the instance.
    """
    k = len(instance.attributes)
    target = 1.0 / k
    name = UNIFORM_DEFAULT
    suffix = 1
    while True:
        try:
            existing = instance.criterion_by_name(name)
        except KeyError:
            spec = uniform_criterion(instance, name)
            return instance.replace(criteria=instance.criteria + (spec,)), name
        wmap = existing.weight_map
        if all(abs(wmap.get(a, -1.0) - target) <= EPS_WEIGHT
               for a in instance.attribute_names):
            return instance, name
        suffix += 1
        name = f"{UNIFORM_DEFAULT}_{suffix}"


def decide(analysis: Analysis) -> PolicyDecision:
    """Total, deterministic policy over an analyzed instance.

    A recommend_with_assumptions response names the uniform default
    criterion; use `with_default_criterion` to obtain the instance on which
    that response evaluates.
    """
    instance = analysis.instance
    compat = analysis.semantics.compatible
    n_crit = len(instance.criteria)
    flag = "yes" if instance.decisiveness_required else "no"
    context = (f"compatible answers: {len(compat)} ({', '.join(compat)}); "
               f"declared criteria: {n_crit}; decision required: {flag}")

    if len(compat) == 1:
        pinned = instance.pinned_criterion()
        response = Decisive(compat[0], declared_theta=pinned)
        return PolicyDecision(DIRECT, response,
                              f"{context}; the premises determine '{compat[0]}', "
                              "so answer directly")

    if instance.decisiveness_required:
        _, name = with_default_criterion(instance)
        outcome = winners_at(analysis.matrix, uniform_criterion(instance, name))
        if outcome.unique is not None:
            winner = outcome.unique
            tie_note = ""
        else:
            winner = min(outcome.winners)
            tie_note = (f"; uniform weights tie {', '.join(outcome.winners)}, "
                        f"broken lexicographically to '{winner}'")
        return PolicyDecision(
            RECOMMEND, Decisive(winner, declared_theta=name),
            f"{context}; a decision is required, so recommend '{winner}' "
            f"under the disclosed uniform criterion '{name}'{tie_note}")

    branches = tuple(analysis.unique_winners.items())
    if n_crit == 0 or not branches:
        note = ("no declared criterion yields a unique winner, so "
                if n_crit else "")
        return PolicyDecision(
            CLARIFY, clarify_for(instance),
            f"{context}; {note}ask which attribute weighting applies")

    return PolicyDecision(
        CONDITIONAL, Conditional(branches),
        f"{context}; several criteria are plausible, so answer "
        "conditionally per declared criterion")
