from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings

from helpers import (
    build_scholarship,
    build_two_numeric,
    constrained_instances,
    evaluated_rows,
    exactly_in_p,
    in_p,
    outside_p_instance,
    triple,
)

from udet.errors import ContradictoryPremises, InfeasibleConstraints
from udet.model import BoundConstraint, CriterionSpec, PinConstraint
from udet.policy import (
    CLARIFY,
    CONDITIONAL,
    DIRECT,
    RECOMMEND,
    decide,
)
from udet.responses import (
    Clarify,
    Conditional,
    Decisive,
    ResponseEvaluator,
)
from udet.semantics import UNIFORM_DEFAULT, analyze
from udet.trilemma import GeneratorConfig, generate_instance


def run_policy(instance):
    analysis = analyze(instance)
    return decide(analysis), analysis


def test_pinned_scholarship_answers_directly():
    inst = build_scholarship(constraints=(PinConstraint("merit_first"),))
    decision, _ = run_policy(inst)
    assert decision.branch == DIRECT
    assert decision.response == Decisive("A", declared_theta="merit_first")
    assert "answer directly" in decision.rationale
    assert "1 (A)" in decision.rationale


def test_unconstrained_scholarship_goes_conditional(scholarship):
    decision, _ = run_policy(scholarship)
    assert decision.branch == CONDITIONAL
    assert decision.response == Conditional(
        (("merit_first", "A"), ("need_first", "B")))
    assert "decision required: no" in decision.rationale


def test_no_criteria_asks_for_clarification():
    inst = build_scholarship(criteria=())
    decision, _ = run_policy(inst)
    assert decision.branch == CLARIFY
    assert isinstance(decision.response, Clarify)
    missing = " ".join(decision.response.missing)
    assert "gpa" in missing and "need" in missing


def test_require_decision_recommends_with_uniform_default():
    # No criterion: only the default column names the answer, and equal
    # weights tie A and B at 0.5 each; the tie-break must be disclosed.
    inst = build_scholarship(criteria=(), decisiveness_required=True)
    decision, _ = run_policy(inst)
    assert decision.branch == RECOMMEND
    assert decision.response == Decisive("A", declared_theta=UNIFORM_DEFAULT)
    assert "'uniform_default' ties A, B, broken in candidate order to 'A'" in decision.rationale
    assert "nearest equal weights (gpa: 0.5, need: 0.5)" in decision.rationale


def test_require_decision_on_scholarship_recommends_under_merit_first(scholarship):
    # Equal weights tie A and B, while merit_first is won by A alone: the
    # row that names it ranks higher (conditionally correct).
    decision, analysis = run_policy(scholarship.replace(decisiveness_required=True))
    assert analysis.theta_winners[UNIFORM_DEFAULT] == ("A", "B")
    assert decision.branch == RECOMMEND
    assert decision.response == Decisive("A", declared_theta="merit_first")
    assert decision.rationale == (
        "compatible answers: 2 (A, B); declared criteria: 2; decision required: yes; "
        "a decision is required, so recommend 'A' under 'merit_first'; "
        "this gives up strong correctness and strict non-bias")


def test_require_decision_without_tie():
    inst = build_two_numeric("skew", {"A": (10.0, 10.0), "B": (0.0, 5.0),
                                      "C": (5.0, 0.0)},
                             decisiveness_required=True)
    decision, _ = run_policy(inst)
    assert decision.branch == DIRECT  # A dominates: determined, not recommend
    inst2 = build_two_numeric("skew2", {"A": (10.0, 0.0), "B": (0.0, 10.0),
                                        "C": (9.0, 9.0)},
                              decisiveness_required=True)
    decision2, _ = run_policy(inst2)
    assert decision2.branch == RECOMMEND
    assert decision2.response.candidate == "C"  # uniform weights favor C
    assert "tie" not in decision2.rationale


def test_recommend_takes_precedence_over_clarify():
    inst = build_scholarship(criteria=(), decisiveness_required=True)
    decision, _ = run_policy(inst)
    assert decision.branch == RECOMMEND


def test_conditional_falls_back_to_clarify_when_all_criteria_tie():
    half = CriterionSpec("half", (("gpa", 0.5), ("need", 0.5)))
    inst = build_scholarship(criteria=(half,))
    decision, _ = run_policy(inst)
    assert decision.branch == CLARIFY
    assert "no declared criterion yields a unique winner" in decision.rationale


def test_default_criterion_takes_a_free_name(scholarship):
    inst = scholarship.replace(decisiveness_required=True)
    assert analyze(inst).default.name == UNIFORM_DEFAULT
    # a declared criterion of that name, uniform or not, moves the default on
    for weights in ((("gpa", 1.0), ("need", 0.0)), (("gpa", 0.5), ("need", 0.5))):
        clash = inst.replace(criteria=(CriterionSpec(UNIFORM_DEFAULT, weights),))
        assert analyze(clash).default.name == f"{UNIFORM_DEFAULT}_2"
    taken = tuple(CriterionSpec(name, (("gpa", 1.0), ("need", 0.0)))
                  for name in (UNIFORM_DEFAULT, f"{UNIFORM_DEFAULT}_2"))
    assert analyze(inst.replace(criteria=taken)).default.name == f"{UNIFORM_DEFAULT}_3"
    # no default without a required decision, or with one compatible answer
    assert analyze(scholarship).default is None
    pinned = inst.replace(constraints=(PinConstraint("merit_first"),))
    assert analyze(pinned).default is None


# --- the policy stays inside the premises -----------------------------------------

def test_bound_recommends_the_compatible_leader_at_the_nearest_admissible_weights():
    decision, analysis = run_policy(outside_p_instance("bound"))
    assert analysis.default.weights == (("x", 0.6), ("y", 0.4))
    assert (decision.branch, decision.response) == (
        RECOMMEND, Decisive("D", declared_theta=UNIFORM_DEFAULT))
    assert decision.rationale == (
        "compatible answers: 2 (A, D); declared criteria: 0; decision required: yes; "
        "a decision is required, so recommend 'D' under 'uniform_default'; "
        "'uniform_default' is the admissible weighting nearest equal weights (x: 0.6, y: 0.4); "
        "this gives up strong correctness and strict non-bias")


def test_preference_recommends_a_compatible_answer_and_names_the_excluded_leader():
    decision, _ = run_policy(outside_p_instance("preference"))
    assert (decision.branch, decision.response) == (
        RECOMMEND, Decisive("A", declared_theta=UNIFORM_DEFAULT))
    assert decision.rationale == (
        "compatible answers: 2 (A, B); declared criteria: 0; decision required: yes; "
        "a decision is required, so recommend 'A' under 'uniform_default'; "
        "'uniform_default' is the admissible weighting nearest equal weights (x: 0.5, y: 0.5); "
        "there the top score goes to C, which the premises exclude; "
        "'uniform_default' ties A, B, broken in candidate order to 'A'; "
        "this gives up strong correctness and strict non-bias")


def test_conditional_drops_the_criterion_outside_p():
    decision, _ = run_policy(outside_p_instance("conditional"))
    assert (decision.branch, decision.response) == (
        CONDITIONAL, Conditional((("x_only", "A"),)))
    assert decision.rationale == (
        "compatible answers: 2 (A, D); declared criteria: 2; decision required: no; "
        "several criteria are plausible, so answer conditionally per declared criterion "
        "that has a unique winner; criteria outside the admissible weights decide "
        "nothing: y_only; this gives up decisiveness")


def test_entailed_answer_is_direct_whatever_lies_outside_p():
    decision, _ = run_policy(outside_p_instance("verdicts"))
    assert (decision.branch, decision.response) == (DIRECT, Decisive("A"))
    assert decision.rationale == (
        "compatible answers: 1 (A); declared criteria: 3; decision required: no; "
        "the premises determine 'A', so answer directly; criteria outside the "
        "admissible weights decide nothing: y_only; this gives up no trilemma predicate")


def test_clarify_when_every_criterion_lies_outside_p():
    inst = build_two_numeric("away", {"A": (10.0, 0.0), "B": (0.0, 10.0), "D": (7.0, 7.0)},
                             criteria=(CriterionSpec("y_heavy", (("x", 0.2), ("y", 0.8))),),
                             constraints=(BoundConstraint("x", ">=", 0.4),))
    decision, analysis = run_policy(inst)
    assert analysis.criterion_winners == {"y_heavy": ()}
    assert decision.branch == CLARIFY
    assert "decide nothing: y_heavy" in decision.rationale


def test_policy_serves_more_criteria_than_analyze_lists():
    # 40 criteria: the listing is capped at 12, and the policy reads none of it.
    crits = tuple(CriterionSpec(f"c{i}", (("gpa", i / 39), ("need", 1 - i / 39)))
                  for i in range(40))
    for required in (False, True):
        inst = build_scholarship(criteria=crits, decisiveness_required=required)
        decision, _ = run_policy(inst)
        assert decision.branch == (RECOMMEND if required else CONDITIONAL)


# --- the decision is the best row of the table --------------------------------------

def rank(verdict):
    return (verdict.c_strong, verdict.nb_strict, verdict.c_cond, verdict.nb_transparent,
            verdict.u_assistive)


def assert_best_row(analysis):
    """The decision is a row of the enumerated space, each row's verdict from
    `evaluate`, and no candidate row ranks above it; it names only
    compatible answers and criteria in P, and its branch is its form's."""
    decision = decide(analysis)
    instance, semantics = analysis.instance, analysis.semantics
    required = instance.decisiveness_required
    rows = dict(evaluated_rows(analysis))
    verdict = rows[decision.response]
    assert verdict == ResponseEvaluator(analysis).evaluate(decision.response)
    candidates = [v for v in rows.values() if v.u_decisive or not required]
    assert verdict in candidates
    assert all(rank(v) <= rank(verdict) for v in candidates)
    response = decision.response
    thetas = {c.name: c for c in instance.criteria}
    if analysis.default is not None:
        thetas[analysis.default.name] = analysis.default
    if isinstance(response, Decisive):
        named = [(response.declared_theta, response.candidate)]
        expected = DIRECT if response.candidate == semantics.entailed else RECOMMEND
    elif isinstance(response, Conditional):
        named, expected = list(response.branches), CONDITIONAL
    else:
        named, expected = [], CLARIFY
        assert isinstance(response, Clarify)
    assert decision.branch == expected
    for theta, answer in named:
        assert answer in semantics.compatible
        if theta is not None:
            weights = thetas[theta].weight_map
            assert in_p([weights[a] for a in analysis.adm.attributes], analysis.adm)
    if decision.branch == DIRECT:
        assert triple(verdict) == (True, True, True)
    elif decision.branch == RECOMMEND:
        assert verdict.u_decisive and verdict.nb_transparent and not verdict.nb_strict
    else:
        assert triple(verdict) == (True, True, False)
    return decision


def test_branch_soundness_on_corpus(corpus_entries):
    for entry in corpus_entries:
        decision, analysis = run_policy(entry.instance)
        assert decision.branch == entry.expected.branch
        assert assert_best_row(analysis) == decision
        assert_best_row(analyze(entry.instance.replace(decisiveness_required=True)))


def test_policy_total_and_deterministic_on_random_instances():
    for config in (GeneratorConfig(seed=37),
                   GeneratorConfig(seed=1, decision_probability=0.5, bound_probability=0.4)):
        for index in range(150):
            inst = generate_instance(config, index)
            decision, analysis = run_policy(inst)
            again, _ = run_policy(inst)
            assert decision == again
            assert decision.branch in (DIRECT, CLARIFY, CONDITIONAL, RECOMMEND)
            assert str(len(analysis.semantics.compatible)) in decision.rationale
            assert_best_row(analysis)


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None,
                             suppress_health_check=[HealthCheck.filter_too_much])


def analyze_or_skip(instance):
    try:
        return analyze(instance)
    except (InfeasibleConstraints, ContradictoryPremises):
        assume(False)


@PROPERTY_SETTINGS
@given(constrained_instances())
def test_decision_is_the_best_row(inst):
    assert_best_row(analyze_or_skip(inst))


@PROPERTY_SETTINGS
@given(constrained_instances())
def test_default_is_equal_weights_projected_onto_p(inst):
    analysis = analyze_or_skip(inst.replace(decisiveness_required=True))
    assume(analysis.default is not None)
    adm = analysis.adm
    w = tuple(weight for _, weight in analysis.default.weights)
    k = len(w)
    assert tuple(a for a, _ in analysis.default.weights) == adm.attributes
    assert exactly_in_p(w, adm)
    if exactly_in_p((1.0 / k,) * k, adm):
        assert w == (1.0 / k,) * k
    if inst.pinned_criterion() is not None:
        assert w == adm.lower == adm.upper
    # The projection: one shift t moves every weight that its bounds leave
    # free, and no bound that holds a weight would let it nearer 1/k.  A
    # weight within 1e-12 of a bound counts as held by it.
    shifts = [x - 1.0 / k for x, lo, hi in zip(w, adm.lower, adm.upper)
              if lo + 1e-12 < x < hi - 1e-12]
    assert all(abs(s - shifts[0]) <= 1e-12 for s in shifts)
    for x, lo, hi in zip(w, adm.lower, adm.upper):
        if shifts and lo < hi:
            assert abs(x - lo) > 1e-12 or lo >= 1.0 / k + shifts[0] - 1e-12
            assert abs(x - hi) > 1e-12 or hi <= 1.0 / k + shifts[0] + 1e-12
