from __future__ import annotations

from helpers import build_scholarship, build_two_numeric, triple

from udet.model import CriterionSpec, PinConstraint
from udet.policy import (
    CLARIFY,
    CONDITIONAL,
    DIRECT,
    RECOMMEND,
    UNIFORM_DEFAULT,
    decide,
    uniform_criterion,
    with_default_criterion,
)
from udet.responses import (
    Clarify,
    Conditional,
    Decisive,
    ResponseEvaluator,
)
from udet.semantics import analyze
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


def test_require_decision_recommends_with_uniform_default(scholarship):
    inst = scholarship.replace(decisiveness_required=True)
    decision, _ = run_policy(inst)
    assert decision.branch == RECOMMEND
    assert decision.response == Decisive("A", declared_theta=UNIFORM_DEFAULT)
    # uniform weights tie A and B at 0.5 each; the tie-break must be disclosed
    assert "tie" in decision.rationale
    assert "lexicographically" in decision.rationale
    assert "uniform_default" in decision.rationale


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


def test_with_default_criterion_registers_uniform(scholarship):
    augmented, name = with_default_criterion(scholarship)
    assert name == UNIFORM_DEFAULT
    spec = augmented.criterion_by_name(name)
    assert spec.weight_map == {"gpa": 0.5, "need": 0.5}
    # reuse when already present and uniform
    again, name2 = with_default_criterion(augmented)
    assert name2 == name and again is augmented
    # pick a fresh name when the name is taken by a non-uniform criterion
    clash = CriterionSpec(UNIFORM_DEFAULT, (("gpa", 1.0), ("need", 0.0)))
    inst = build_scholarship(criteria=(clash,))
    _, name3 = with_default_criterion(inst)
    assert name3 == f"{UNIFORM_DEFAULT}_2"


def test_uniform_criterion_weights():
    spec = uniform_criterion(build_scholarship())
    assert spec.weight_map == {"gpa": 0.5, "need": 0.5}


def branch_verdict(analysis, decision):
    if decision.branch == RECOMMEND:
        instance, _ = with_default_criterion(analysis.instance)
        analysis = analyze(instance)
    return ResponseEvaluator(analysis).evaluate(decision.response)


def assert_branch_sound(analysis, decision):
    v = branch_verdict(analysis, decision)
    if decision.branch == DIRECT:
        assert triple(v) == (True, True, True)
    elif decision.branch == CLARIFY:
        assert triple(v) == (True, True, False)
    elif decision.branch == CONDITIONAL:
        assert v.c_strong and not v.u_decisive
    else:
        assert v.u_decisive and v.nb_transparent
        if analysis.semantics.underdetermined:
            assert not v.nb_strict


def test_branch_soundness_on_corpus(corpus_entries):
    for entry in corpus_entries:
        decision, analysis = run_policy(entry.instance)
        assert decision.branch == entry.expected.branch
        assert_branch_sound(analysis, decision)


def test_policy_total_and_deterministic_on_random_instances():
    config = GeneratorConfig(seed=37)
    for index in range(150):
        inst = generate_instance(config, index)
        decision, analysis = run_policy(inst)
        again, _ = run_policy(inst)
        assert decision == again
        assert decision.branch in (DIRECT, CLARIFY, CONDITIONAL, RECOMMEND)
        assert str(len(analysis.semantics.compatible)) in decision.rationale
        assert_branch_sound(analysis, decision)
